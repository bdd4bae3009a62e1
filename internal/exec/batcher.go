// Cross-request kernel batching. The paper's §7.4.2 finding is that GPU
// execution loses to vectorized CPU on small batches because the fixed
// per-kernel launch and transfer overhead dominates. Within one query the
// nn layers already fuse their per-frame GEMMs; the Batcher extends the
// same amortization *across* concurrent queries: independent callers
// submit kernels to a shared scheduler that stacks compatible submissions
// and executes them as one fused launch, paying one simulated launch
// latency for N requests. The trade is classic accelerator micro-batching:
// a bounded queuing delay (the flush window) buys an up-to-N-fold
// reduction in fixed launch cost for N submitters sharing the device.
package exec

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// fusedDevice is the backend contract the Batcher needs: uncharged kernel
// bodies plus a fused launch that charges once for a whole batch. Only the
// simulated GPU implements it; for CPU/AVX devices fusion buys nothing
// (they have no launch overhead), so the Batcher passes through.
type fusedDevice interface {
	Device
	launchFused(nbytes int, kernels []func())
	gemmKernel(m, n, k int, a, b, c []float32)
	pairwiseKernel(x, y []float32, lenX, lenY, dim int, out []float32)
}

// flushWindow is the deadline for a partial batch: the oldest queued
// kernel waits at most this long before its batch launches. 50µs is
// 5/3 of the default GPU profile's 30µs launch charge:
// TestFlushWindowSweep's table (README) kept that ratio against 1/2, 1
// and 3 charges, none of which beats it at 15 of 20 seeds anywhere
// without losing at 15 somewhere.
const flushWindow = 50 * time.Microsecond

// batchKey groups shape-compatible kernels: fused GEMMs must share (k, n)
// (they stack along m), fused pairwise distances must share the vector
// dimension (they stack along the left rows).
type batchKey struct {
	op     uint8 // 0 = GEMM, 1 = PairwiseSqDist
	d1, d2 int   // GEMM: k, n; pairwise: dim, 0
}

// fusedReq is one queued kernel: its compute body, its transfer bytes,
// and the channel its submitter blocks on. GEMM submissions also carry
// their operands so the launch stage can stack same-rhs products into
// one physical kernel (a is nil for non-GEMM kernels). Observed
// submissions (rec non-nil) also record submit→launch wait and batch
// size; launch writes rec before closing done, so the submitter reads
// it race-free.
type fusedReq struct {
	run   func()
	bytes int
	done  chan struct{}

	enq time.Time
	rec *kernelRecord

	m, n, k  int
	a, bm, c []float32
}

// kernelRecord receives one observed submission's timing: how long the
// kernel sat queued before its fused launch, and how many kernels that
// launch carried.
type kernelRecord struct {
	wait  time.Duration
	batch int
}

// pendingBatch accumulates shape-compatible kernels until a flush. seq
// is the submission number of its first kernel: an idle flush launches
// the batches it drains oldest first.
type pendingBatch struct {
	reqs  []fusedReq
	timer *time.Timer
	seq   int64
}

// Batcher is a kernel-coalescing scheduler over one Device. It implements
// Device, so any code written against a Device (nn networks, similarity
// joins, vision models) routes through it unchanged. Concurrent
// submissions of shape-compatible kernels are stacked into one fused
// launch per flush window; incompatible kernels batch independently.
// Safe for concurrent use by any number of submitters.
type Batcher struct {
	dev Device
	fd  fusedDevice // nil: pass-through (CPU/AVX)

	// sharers bounds a batch: one that holds that many kernels launches
	// at once, without waiting out the window. The caller passes the
	// submitters that share the device; at 1 or below every kernel
	// launches at once.
	sharers int
	// window is the partial-batch deadline: flushWindow, which in-package
	// tests override before the batcher is shared.
	window time.Duration

	mu      sync.Mutex
	pending map[batchKey]*pendingBatch
	// queuedKernels counts kernels sitting in pending batches (guarded by
	// mu). Every blocked submitter holds exactly one queued kernel, so
	// queuedKernels >= inFlight means no registered submitter is still
	// mid-query: nothing new can join a batch and waiting out the window
	// deadline would be pure added latency.
	queuedKernels int

	// inFlight counts registered submitters currently mid-query (see
	// BeginSubmitter). Zero means no one registers, which disables the
	// idle flush and preserves the pure size/deadline policy.
	inFlight atomic.Int64

	// idle, when non-nil, vetoes the idle flush while more submitters
	// are imminent (e.g. a serving layer's admission queue is non-empty:
	// those tasks will register as submitters the moment a worker picks
	// them up, so a partial batch may still grow).
	idle func() bool

	// launchSem (one token) serializes fused launches, preserving the
	// cost model's fidelity when many workers share one simulated device:
	// a real GPU serializes kernel launches on a stream, and overlapping
	// two charges would under-count wall time. It is a channel, not a
	// mutex, so a launch queued behind a sleeping charge is durably
	// blocked inside a testing/synctest bubble and synthetic time can
	// advance.
	launchSem chan struct{}

	submitted     atomic.Int64
	fusedKernels  atomic.Int64
	launches      atomic.Int64
	flushSize     atomic.Int64
	flushDeadline atomic.Int64
	flushIdle     atomic.Int64
	passThrough   atomic.Int64
	maxFusion     atomic.Int64
	stacks        atomic.Int64
	stackedGEMMs  atomic.Int64
}

// NewBatcher wraps dev in a kernel-coalescing scheduler. sharers bounds
// a batch (one of that many kernels launches without waiting out the
// window); idle, if non-nil, is
// consulted before an idle flush and returns false while more
// submitters are imminent (a non-empty admission queue). For devices
// without launch overhead (CPU, AVX) every call passes straight through.
func NewBatcher(dev Device, sharers int, idle func() bool) *Batcher {
	b := &Batcher{dev: dev, sharers: sharers, window: flushWindow, idle: idle,
		pending: make(map[batchKey]*pendingBatch), launchSem: make(chan struct{}, 1)}
	if fd, ok := dev.(fusedDevice); ok {
		b.fd = fd
	}
	return b
}

// Kind reports the underlying device kind.
func (b *Batcher) Kind() Kind { return b.dev.Kind() }

// Stats reports the underlying device's counters (fusion shows up as
// Launches < Kernels and a sub-linear Overhead).
func (b *Batcher) Stats() Stats { return b.dev.Stats() }

// BeginSubmitter registers a submitter that is mid-query on this device
// (it may submit kernels until the matching EndSubmitter). The count
// drives the adaptive flush: when every registered submitter is already
// blocked inside the batcher, a partial batch cannot grow, so it
// launches immediately instead of waiting out the window deadline — a
// lightly-loaded service stops paying the deadline per launch. Callers
// that never register keep the pure size/deadline policy.
func (b *Batcher) BeginSubmitter() { b.inFlight.Add(1) }

// EndSubmitter unregisters a BeginSubmitter registration. A partial
// batch whose waiters were waiting for this submitter launches at its
// window deadline: an idle-flush check here beat its removal at no more
// than 11 of the idle-flush ablation's 20 seeds at any k (README).
func (b *Batcher) EndSubmitter() {
	if n := b.inFlight.Add(-1); n < 0 {
		panic("exec: Batcher.EndSubmitter without BeginSubmitter")
	}
}

// GEMM submits C += A·B and blocks until the (possibly fused) launch that
// includes it completes. See Device.GEMM for the shape contract.
func (b *Batcher) GEMM(m, n, k int, a, bm, c []float32) {
	b.gemm(m, n, k, a, bm, c, nil)
}

func (b *Batcher) gemm(m, n, k int, a, bm, c []float32, rec *kernelRecord) {
	if b.fd == nil {
		b.passThrough.Add(1)
		b.dev.GEMM(m, n, k, a, bm, c)
		if rec != nil {
			rec.batch = 1
		}
		return
	}
	checkGEMM(m, n, k, a, bm, c) // fail in the submitter's goroutine
	req := fusedReq{
		run:   func() { b.fd.gemmKernel(m, n, k, a, bm, c) },
		bytes: gemmBytes(m, n, k),
		done:  make(chan struct{}),
		rec:   rec,
		m:     m, n: n, k: k, a: a, bm: bm, c: c,
	}
	if rec != nil {
		req.enq = time.Now()
	}
	b.submit(batchKey{op: 0, d1: k, d2: n}, req)
}

// PairwiseSqDist submits a distance-matrix kernel and blocks until its
// launch completes. See Device.PairwiseSqDist for the shape contract.
func (b *Batcher) PairwiseSqDist(x, y []float32, lenX, lenY, dim int, out []float32) {
	b.pairwise(x, y, lenX, lenY, dim, out, nil)
}

func (b *Batcher) pairwise(x, y []float32, lenX, lenY, dim int, out []float32, rec *kernelRecord) {
	if b.fd == nil {
		b.passThrough.Add(1)
		b.dev.PairwiseSqDist(x, y, lenX, lenY, dim, out)
		if rec != nil {
			rec.batch = 1
		}
		return
	}
	checkPairwise(x, y, lenX, lenY, dim, out)
	req := fusedReq{
		run:   func() { b.fd.pairwiseKernel(x, y, lenX, lenY, dim, out) },
		bytes: pairwiseBytes(lenX, lenY, dim),
		done:  make(chan struct{}),
		rec:   rec,
	}
	if rec != nil {
		req.enq = time.Now()
	}
	b.submit(batchKey{op: 1, d1: dim}, req)
}

// submit queues req under key and blocks until its batch has launched.
// The batch flushes when it holds one kernel per sharer (flushed by the
// submitter that filled it) or when the window deadline set by its first
// kernel fires (flushed by the timer goroutine).
func (b *Batcher) submit(key batchKey, req fusedReq) {
	seq := b.submitted.Add(1)
	b.mu.Lock()
	pb, ok := b.pending[key]
	if !ok {
		pb = &pendingBatch{seq: seq}
		b.pending[key] = pb
		if b.sharers > 1 {
			pb.timer = time.AfterFunc(b.window, func() { b.flushDeadlined(key, pb) })
		}
	}
	pb.reqs = append(pb.reqs, req)
	b.queuedKernels++
	full := len(pb.reqs) >= b.sharers
	if full {
		b.takeLocked(key, pb)
	}
	// Adaptive flush: if every registered mid-query submitter is now
	// blocked in this batcher (each holds exactly one queued kernel), no
	// pending batch can grow — launch them all now rather than letting
	// the window deadline add latency to an already-quiet device.
	var idle []*pendingBatch
	if !full {
		idle = b.idleBatchesLocked()
	}
	b.mu.Unlock()
	if full {
		// Single-kernel "batches" (one sharer, the eager unfused mode) are
		// not size flushes: counting them would make flush_size read as
		// batching activity when no fusion is happening.
		if len(pb.reqs) > 1 {
			b.flushSize.Add(1)
		}
		b.launch(pb)
		return
	}
	for _, pb := range idle {
		b.flushIdle.Add(1)
		b.launch(pb)
	}
	<-req.done
}

// takeLocked removes pb from the pending map, stops its deadline timer
// and releases its kernels' queue accounting. Callers hold b.mu.
func (b *Batcher) takeLocked(key batchKey, pb *pendingBatch) {
	delete(b.pending, key)
	if pb.timer != nil {
		pb.timer.Stop()
	}
	b.queuedKernels -= len(pb.reqs)
}

// idleBatchesLocked drains every pending batch when all registered
// submitters are blocked in the batcher (the queue cannot grow). Returns
// nil when submitter tracking is off (inFlight 0) or someone is still
// mid-query. Callers hold b.mu.
func (b *Batcher) idleBatchesLocked() []*pendingBatch {
	inf := b.inFlight.Load()
	if inf <= 0 || int64(b.queuedKernels) < inf || len(b.pending) == 0 {
		return nil
	}
	if b.idle != nil && !b.idle() {
		return nil // more submitters are imminent: let the batch grow
	}
	out := make([]*pendingBatch, 0, len(b.pending))
	for key, pb := range b.pending {
		b.takeLocked(key, pb)
		out = append(out, pb)
	}
	slices.SortFunc(out, func(x, y *pendingBatch) int { return cmp.Compare(x.seq, y.seq) })
	return out
}

// flushDeadlined launches pb if it is still pending (a size flush may
// have raced the timer and already taken it).
func (b *Batcher) flushDeadlined(key batchKey, pb *pendingBatch) {
	b.mu.Lock()
	if b.pending[key] != pb {
		b.mu.Unlock()
		return
	}
	b.takeLocked(key, pb)
	b.mu.Unlock()
	b.flushDeadline.Add(1)
	b.launch(pb)
}

// launch executes pb as one fused device launch and releases its waiters.
func (b *Batcher) launch(pb *pendingBatch) {
	fns, total, nstacks, nstacked := b.buildLaunch(pb.reqs)
	// Stamp observed submissions before their done channels close (the
	// close is the happens-before edge the submitter's read rides on).
	now := time.Now()
	for _, r := range pb.reqs {
		if r.rec != nil {
			r.rec.wait = now.Sub(r.enq)
			r.rec.batch = len(pb.reqs)
		}
	}
	b.launchSem <- struct{}{}
	b.fd.launchFused(total, fns)
	<-b.launchSem
	b.launches.Add(1)
	b.fusedKernels.Add(int64(len(pb.reqs)))
	b.stacks.Add(nstacks)
	b.stackedGEMMs.Add(nstacked)
	for {
		cur := b.maxFusion.Load()
		if int64(len(pb.reqs)) <= cur || b.maxFusion.CompareAndSwap(cur, int64(len(pb.reqs))) {
			break
		}
	}
	for _, r := range pb.reqs {
		close(r.done)
	}
}

// buildLaunch lowers a flushed batch into physical launch bodies. GEMMs
// that share the rhs operand (same backing array — concurrent queries
// against one set of weights) and the batch's (k, n) are stacked: their
// lhs rows concatenate into one physical product, trading two copies for
// one kernel body and a single transfer of the shared weights. The
// caller's C rows are copied in before the kernel and back out after, so
// every output element sees exactly the accumulation sequence the
// unstacked kernel would produce — outputs are byte-identical. Kernels
// that stack with nothing launch their original bodies unchanged.
func (b *Batcher) buildLaunch(reqs []fusedReq) (fns []func(), total int, nstacks, nstacked int64) {
	var groups map[*float32][]int
	for i := range reqs {
		// Degenerate shapes (empty operands) stay unstacked: there is
		// nothing to save and the element-pointer keys need a first element.
		if reqs[i].a == nil || len(reqs[i].bm) == 0 || len(reqs[i].c) == 0 {
			continue
		}
		if groups == nil {
			groups = make(map[*float32][]int)
		}
		rhs := &reqs[i].bm[0]
		groups[rhs] = append(groups[rhs], i)
	}
	fns = make([]func(), 0, len(reqs))
	stacked := make(map[int]bool)
	for _, idxs := range groups {
		// Conservatively refuse to stack two kernels writing the same C
		// buffer: copy-in/copy-back would lose one's contribution.
		seenC := make(map[*float32]bool, len(idxs))
		grp := idxs[:0:0]
		for _, i := range idxs {
			cb := &reqs[i].c[0]
			if seenC[cb] {
				continue
			}
			seenC[cb] = true
			grp = append(grp, i)
		}
		if len(grp) < 2 {
			continue
		}
		n, k := reqs[grp[0]].n, reqs[grp[0]].k
		bm := reqs[grp[0]].bm
		rows := 0
		members := make([]fusedReq, len(grp))
		for j, i := range grp {
			rows += reqs[i].m
			members[j] = reqs[i]
			stacked[i] = true
		}
		total += gemmBytes(rows, n, k) // the shared rhs transfers once
		nstacks++
		nstacked += int64(len(grp))
		fns = append(fns, func() {
			aStk := tensor.GetScratch(rows * k)
			cStk := tensor.GetScratch(rows * n)
			off := 0
			for _, r := range members {
				copy(aStk[off*k:(off+r.m)*k], r.a)
				copy(cStk[off*n:(off+r.m)*n], r.c)
				off += r.m
			}
			b.fd.gemmKernel(rows, n, k, aStk, bm, cStk)
			off = 0
			for _, r := range members {
				copy(r.c[:r.m*n], cStk[off*n:(off+r.m)*n])
				off += r.m
			}
			tensor.PutScratch(cStk)
			tensor.PutScratch(aStk)
		})
	}
	for i := range reqs {
		if stacked[i] {
			continue
		}
		fns = append(fns, reqs[i].run)
		total += reqs[i].bytes
	}
	return fns, total, nstacks, nstacked
}

// BatcherStats is the scheduler's cumulative activity record.
type BatcherStats struct {
	Submitted     int64 `json:"submitted"`      // kernels submitted for fusion
	FusedKernels  int64 `json:"fused_kernels"`  // kernels executed via fused launches
	Launches      int64 `json:"launches"`       // fused launches issued
	FlushSize     int64 `json:"flush_size"`     // multi-kernel batches flushed by holding one kernel per sharer
	FlushDeadline int64 `json:"flush_deadline"` // batches flushed by the window deadline
	FlushIdle     int64 `json:"flush_idle"`     // batches flushed because every active submitter was already blocked
	PassThrough   int64 `json:"pass_through"`   // kernels bypassing fusion (CPU/AVX)
	MaxFusion     int64 `json:"max_fusion"`     // largest batch launched
	Stacks        int64 `json:"stacks"`         // stacked same-rhs GEMM products launched
	StackedGEMMs  int64 `json:"stacked_gemms"`  // logical GEMMs folded into stacked products
}

// FusionFactor is the mean kernels-per-launch — the launch-overhead
// amortization achieved (1.0 = no fusion).
func (s BatcherStats) FusionFactor() float64 {
	if s.Launches == 0 {
		return 0
	}
	return float64(s.FusedKernels) / float64(s.Launches)
}

// Add accumulates o into s (aggregating across a fleet of batchers).
func (s *BatcherStats) Add(o BatcherStats) {
	s.Submitted += o.Submitted
	s.FusedKernels += o.FusedKernels
	s.Launches += o.Launches
	s.FlushSize += o.FlushSize
	s.FlushDeadline += o.FlushDeadline
	s.FlushIdle += o.FlushIdle
	s.PassThrough += o.PassThrough
	s.Stacks += o.Stacks
	s.StackedGEMMs += o.StackedGEMMs
	if o.MaxFusion > s.MaxFusion {
		s.MaxFusion = o.MaxFusion
	}
}

// BatcherStats snapshots the scheduler counters.
func (b *Batcher) BatcherStats() BatcherStats {
	return BatcherStats{
		Submitted:     b.submitted.Load(),
		FusedKernels:  b.fusedKernels.Load(),
		Launches:      b.launches.Load(),
		FlushSize:     b.flushSize.Load(),
		FlushDeadline: b.flushDeadline.Load(),
		FlushIdle:     b.flushIdle.Load(),
		PassThrough:   b.passThrough.Load(),
		MaxFusion:     b.maxFusion.Load(),
		Stacks:        b.stacks.Load(),
		StackedGEMMs:  b.stackedGEMMs.Load(),
	}
}
