package exec

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// freeGPU is a zero-cost GPU profile: compute without busy-wait charges,
// so correctness tests run fast.
func freeGPU() Device {
	return NewGPU(GPUProfile{LaunchLatency: 0, BytesPerSecond: math.Inf(1)})
}

// TestBatchedGEMMBitIdentical is the batcher's core correctness property:
// kernels routed through a fused launch must produce byte-for-byte the
// results of sequential unfused launches, across shapes, fusion degrees
// and concurrent submitters.
func TestBatchedGEMMBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{{1, 8, 16}, {3, 5, 7}, {16, 16, 16}, {40, 17, 65}, {100, 33, 24}}
	for _, dims := range shapes {
		m, n, k := dims[0], dims[1], dims[2]
		const submitters = 8
		as := make([][]float32, submitters)
		bs := make([][]float32, submitters)
		want := make([][]float32, submitters)
		for i := 0; i < submitters; i++ {
			as[i] = randMat(rng, m*k)
			bs[i] = randMat(rng, k*n)
			want[i] = make([]float32, m*n)
			freeGPU().GEMM(m, n, k, as[i], bs[i], want[i])
		}
		bat := NewBatcher(freeGPU(), submitters, nil)
		bat.window = 50 * time.Millisecond
		got := make([][]float32, submitters)
		var wg sync.WaitGroup
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = make([]float32, m*n)
				bat.GEMM(m, n, k, as[i], bs[i], got[i])
			}(i)
		}
		wg.Wait()
		for i := 0; i < submitters; i++ {
			for j := range want[i] {
				if math.Float32bits(want[i][j]) != math.Float32bits(got[i][j]) {
					t.Fatalf("GEMM(%v) submitter %d: fused result differs at %d: %g vs %g",
						dims, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestBatchedPairwiseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := [][3]int{{1, 1, 4}, {10, 20, 8}, {37, 53, 16}, {64, 64, 3}}
	for _, dims := range shapes {
		lx, ly, d := dims[0], dims[1], dims[2]
		const submitters = 6
		xs := make([][]float32, submitters)
		ys := make([][]float32, submitters)
		want := make([][]float32, submitters)
		for i := 0; i < submitters; i++ {
			xs[i] = randMat(rng, lx*d)
			ys[i] = randMat(rng, ly*d)
			want[i] = make([]float32, lx*ly)
			freeGPU().PairwiseSqDist(xs[i], ys[i], lx, ly, d, want[i])
		}
		bat := NewBatcher(freeGPU(), submitters, nil)
		bat.window = 50 * time.Millisecond
		got := make([][]float32, submitters)
		var wg sync.WaitGroup
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = make([]float32, lx*ly)
				bat.PairwiseSqDist(xs[i], ys[i], lx, ly, d, got[i])
			}(i)
		}
		wg.Wait()
		for i := 0; i < submitters; i++ {
			for j := range want[i] {
				if math.Float32bits(want[i][j]) != math.Float32bits(got[i][j]) {
					t.Fatalf("pairwise(%v) submitter %d: fused result differs at %d", dims, i, j)
				}
			}
		}
	}
}

// TestBatcherFlushOnSize: a batch that holds one kernel per sharer launches
// immediately, without waiting out the window.
func TestBatcherFlushOnSize(t *testing.T) {
	bat := NewBatcher(freeGPU(), 4, nil)
	bat.window = time.Hour
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float32, 4)
			bat.GEMM(2, 2, 2, []float32{1, 0, 0, 1}, []float32{1, 2, 3, 4}, c)
		}()
	}
	wg.Wait()
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("size flush took %v (deadline path taken?)", el)
	}
	st := bat.BatcherStats()
	if st.FlushSize != 1 || st.Launches != 1 || st.FusedKernels != 4 {
		t.Fatalf("stats after size flush: %+v", st)
	}
	if st.MaxFusion != 4 {
		t.Fatalf("max fusion = %d, want 4", st.MaxFusion)
	}
}

// TestBatcherFlushOnDeadline: a partial batch launches once the window
// lapses even though it never held one kernel per sharer.
func TestBatcherFlushOnDeadline(t *testing.T) {
	bat := NewBatcher(freeGPU(), 100, nil)
	bat.window = 5 * time.Millisecond
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := make([]float32, 4)
			bat.GEMM(2, 2, 2, []float32{1, 0, 0, 1}, []float32{1, 2, 3, 4}, c)
		}()
	}
	wg.Wait()
	st := bat.BatcherStats()
	if st.FlushDeadline < 1 {
		t.Fatalf("no deadline flush recorded: %+v", st)
	}
	if st.Submitted != 3 || st.FusedKernels != 3 {
		t.Fatalf("stats after deadline flush: %+v", st)
	}
}

// TestBatcherShapeGroups: incompatible shapes never share a batch.
func TestBatcherShapeGroups(t *testing.T) {
	bat := NewBatcher(freeGPU(), 2, nil)
	bat.window = 5 * time.Millisecond
	var wg sync.WaitGroup
	run := func(m, n, k int) {
		defer wg.Done()
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c := make([]float32, m*n)
		bat.GEMM(m, n, k, a, b, c)
	}
	wg.Add(4)
	go run(2, 4, 8)
	go run(3, 4, 8) // same (k=8, n=4): may fuse with the first
	go run(2, 5, 8) // different n: own batch
	go run(2, 4, 9) // different k: own batch
	wg.Wait()
	st := bat.BatcherStats()
	if st.Launches < 3 {
		t.Fatalf("incompatible shapes shared a launch: %+v", st)
	}
	if st.FusedKernels != 4 {
		t.Fatalf("kernels executed = %d, want 4", st.FusedKernels)
	}
}

// TestBatcherPassThroughCPU: devices without launch overhead bypass the
// queue entirely.
func TestBatcherPassThroughCPU(t *testing.T) {
	for _, kind := range []Kind{CPU, AVX} {
		bat := NewBatcher(New(kind), 1, nil)
		c := make([]float32, 4)
		bat.GEMM(2, 2, 2, []float32{1, 0, 0, 1}, []float32{1, 2, 3, 4}, c)
		if c[0] != 1 || c[3] != 4 {
			t.Fatalf("%v pass-through GEMM wrong: %v", kind, c)
		}
		dist := make([]float32, 1)
		bat.PairwiseSqDist([]float32{0, 0}, []float32{3, 4}, 1, 1, 2, dist)
		if dist[0] != 25 {
			t.Fatalf("%v pass-through pairwise = %v, want 25", kind, dist[0])
		}
		st := bat.BatcherStats()
		if st.PassThrough != 2 || st.Launches != 0 {
			t.Fatalf("%v pass-through stats: %+v", kind, st)
		}
		ds := bat.Stats()
		if ds.Kernels != 2 || ds.Launches != 2 {
			t.Fatalf("%v device stats: %+v", kind, ds)
		}
	}
}

// TestFusedLaunchAmortizesOverhead is the acceptance-criterion check: the
// same kernels cost strictly less simulated Overhead fused than unfused,
// and the launch counter shows the amortization. Overhead is accounted in
// simulated nanoseconds, so this is deterministic under load and -race.
func TestFusedLaunchAmortizesOverhead(t *testing.T) {
	profile := GPUProfile{LaunchLatency: 30 * time.Microsecond, BytesPerSecond: 6e9}
	const submitters = 8
	run := func(sharers int) (Stats, BatcherStats) {
		dev := NewGPU(profile)
		bat := NewBatcher(dev, sharers, nil)
		bat.window = 10 * time.Millisecond
		var wg sync.WaitGroup
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				a := make([]float32, 8*16)
				b := make([]float32, 16*8)
				c := make([]float32, 8*8)
				bat.GEMM(8, 8, 16, a, b, c)
			}(i)
		}
		wg.Wait()
		return dev.Stats(), bat.BatcherStats()
	}
	unfused, _ := run(1)
	fused, fstats := run(submitters)
	if unfused.Launches != submitters || unfused.Kernels != submitters {
		t.Fatalf("unfused stats: %+v", unfused)
	}
	if fused.Kernels != submitters || fused.Launches >= unfused.Launches {
		t.Fatalf("fusion did not reduce launches: fused %+v vs unfused %+v", fused, unfused)
	}
	if fused.Overhead >= unfused.Overhead {
		t.Fatalf("fused overhead %v not below unfused %v", fused.Overhead, unfused.Overhead)
	}
	// Transfer bytes are conserved; only launch latencies are saved (up
	// to sub-µs float rounding in the per-charge transfer durations).
	saved := unfused.Overhead - fused.Overhead
	wantSaved := time.Duration(unfused.Launches-fused.Launches) * profile.LaunchLatency
	if diff := saved - wantSaved; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("overhead saved %v, want %v (launch latencies)", saved, wantSaved)
	}
	if fstats.FusionFactor() <= 1 {
		t.Fatalf("fusion factor %.2f, want > 1", fstats.FusionFactor())
	}
}

// TestBatcherConcurrentSubmitRace hammers one batcher from 16 goroutines
// with mixed kernels; run under -race this is the scheduler's data-race
// certification.
func TestBatcherConcurrentSubmitRace(t *testing.T) {
	bat := NewBatcher(freeGPU(), 5, nil)
	bat.window = 200 * time.Microsecond
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					m := 1 + rng.Intn(4)
					a := randMat(rng, m*8)
					b := randMat(rng, 8*4)
					c := make([]float32, m*4)
					bat.GEMM(m, 4, 8, a, b, c)
				} else {
					lx := 1 + rng.Intn(6)
					x := randMat(rng, lx*8)
					y := randMat(rng, 3*8)
					out := make([]float32, lx*3)
					bat.PairwiseSqDist(x, y, lx, 3, 8, out)
				}
			}
		}(g)
	}
	wg.Wait()
	st := bat.BatcherStats()
	if st.Submitted != 16*20 {
		t.Fatalf("submitted = %d, want %d", st.Submitted, 16*20)
	}
	if st.FusedKernels != st.Submitted {
		t.Fatalf("executed %d of %d submitted kernels", st.FusedKernels, st.Submitted)
	}
}

// TestBatcherIdleFlushLoneSubmitter: with submitter tracking on, a lone
// registered submitter never waits out the window deadline — its kernel
// launches immediately because the queue provably cannot grow.
func TestBatcherIdleFlushLoneSubmitter(t *testing.T) {
	bat := NewBatcher(freeGPU(), 8, nil)
	bat.window = time.Hour
	bat.BeginSubmitter()
	defer bat.EndSubmitter()
	start := time.Now()
	c := make([]float32, 4)
	bat.GEMM(2, 2, 2, []float32{1, 0, 0, 1}, []float32{1, 2, 3, 4}, c)
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("lone submitter waited %v (deadline path taken despite idle device)", el)
	}
	st := bat.BatcherStats()
	if st.FlushIdle != 1 || st.Launches != 1 || st.FlushDeadline != 0 {
		t.Fatalf("stats after idle flush: %+v", st)
	}
	if c[0] != 1 || c[1] != 2 || c[2] != 3 || c[3] != 4 {
		t.Fatalf("idle-flushed GEMM result wrong: %v", c)
	}
}

// TestBatcherIdleFlushWaitsForMidQuerySubmitter: while a second
// registered submitter is still mid-query, a partial batch holds (it
// might still fuse); once every registered submitter is blocked in the
// batcher, the batch launches without the deadline.
func TestBatcherIdleFlushWaitsForMidQuerySubmitter(t *testing.T) {
	bat := NewBatcher(freeGPU(), 8, nil)
	bat.window = time.Hour
	bat.BeginSubmitter() // submitter A
	bat.BeginSubmitter() // submitter B

	done := make(chan struct{})
	go func() {
		defer close(done)
		c := make([]float32, 4)
		bat.GEMM(2, 2, 2, []float32{1, 0, 0, 1}, []float32{1, 2, 3, 4}, c) // A blocks
	}()
	// A alone must not flush: B is registered and still mid-query.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("batch flushed while another registered submitter was mid-query")
	default:
	}
	// B submits: now both submitters are blocked, the batch fuses and
	// launches immediately (size flush at 2 kernels would need 2 sharers;
	// here the idle rule fires).
	c := make([]float32, 4)
	bat.GEMM(2, 2, 2, []float32{1, 0, 0, 1}, []float32{1, 2, 3, 4}, c)
	<-done
	st := bat.BatcherStats()
	if st.FusedKernels != 2 || st.Launches != 1 {
		t.Fatalf("expected one fused launch of 2 kernels, got %+v", st)
	}
	if st.FlushIdle != 1 {
		t.Fatalf("idle flush not recorded: %+v", st)
	}
	bat.EndSubmitter()
	bat.EndSubmitter()
}

// TestBatcherIdleFlushOnSubmitterExit: a registered submitter that
// finishes without submitting does not idle-flush the batch whose waiter
// was waiting for it: the stranded batch launches at its window
// deadline.
func TestBatcherIdleFlushOnSubmitterExit(t *testing.T) {
	bat := NewBatcher(freeGPU(), 8, nil)
	bat.window = 200 * time.Millisecond
	bat.BeginSubmitter() // A: will submit
	bat.BeginSubmitter() // B: never submits

	done := make(chan struct{})
	go func() {
		defer close(done)
		c := make([]float32, 4)
		bat.GEMM(2, 2, 2, []float32{1, 0, 0, 1}, []float32{1, 2, 3, 4}, c)
	}()
	// B exits without submitting once A's kernel is queued.
	for queued := 0; queued == 0; {
		select {
		case <-done:
			t.Fatal("A's batch launched before B exited")
		case <-time.After(time.Millisecond):
		}
		bat.mu.Lock()
		queued = bat.queuedKernels
		bat.mu.Unlock()
	}
	bat.EndSubmitter()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stranded batch not flushed at its deadline")
	}
	if st := bat.BatcherStats(); st.FlushDeadline != 1 || st.FlushIdle != 0 || st.Launches != 1 {
		t.Fatalf("want one deadline flush and no idle flush: %+v", st)
	}
	bat.EndSubmitter()
}

// TestBatcherUntrackedSubmittersKeepDeadlinePolicy: without
// BeginSubmitter registrations the idle rule stays off.
func TestBatcherUntrackedSubmittersKeepDeadlinePolicy(t *testing.T) {
	bat := NewBatcher(freeGPU(), 8, nil)
	bat.window = 5 * time.Millisecond
	c := make([]float32, 4)
	bat.GEMM(2, 2, 2, []float32{1, 0, 0, 1}, []float32{1, 2, 3, 4}, c)
	st := bat.BatcherStats()
	if st.FlushIdle != 0 || st.FlushDeadline != 1 {
		t.Fatalf("untracked submitter: %+v (want pure deadline flush)", st)
	}
}
