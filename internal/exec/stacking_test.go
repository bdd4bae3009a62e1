package exec

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Fused GEMM stacking tests: when batched GEMMs share the rhs operand
// (one set of weights probed by concurrent queries), the launch stage
// concatenates their lhs rows into one physical product. The contract is
// the batcher's usual one — byte-identical outputs — plus the stacking
// counters in BatcherStats.

// TestStackedGEMMBitIdentical: submitters sharing one rhs must stack and
// still produce byte-for-byte the sequential unfused results, including
// non-zero initial C (GEMM accumulates; the stack copies C in and out).
func TestStackedGEMMBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{{1, 8, 16}, {3, 5, 7}, {40, 17, 65}, {100, 33, 24}}
	for _, dims := range shapes {
		m, n, k := dims[0], dims[1], dims[2]
		const submitters = 8
		shared := randMat(rng, k*n)
		as := make([][]float32, submitters)
		want := make([][]float32, submitters)
		got := make([][]float32, submitters)
		for i := 0; i < submitters; i++ {
			as[i] = randMat(rng, m*k)
			init := randMat(rng, m*n) // accumulate into non-zero C
			want[i] = append([]float32(nil), init...)
			got[i] = append([]float32(nil), init...)
			freeGPU().GEMM(m, n, k, as[i], shared, want[i])
		}
		bat := NewBatcher(freeGPU(), submitters, nil)
		bat.window = 50 * time.Millisecond
		var wg sync.WaitGroup
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				bat.GEMM(m, n, k, as[i], shared, got[i])
			}(i)
		}
		wg.Wait()
		for i := 0; i < submitters; i++ {
			for j := range want[i] {
				if math.Float32bits(want[i][j]) != math.Float32bits(got[i][j]) {
					t.Fatalf("GEMM(%v) submitter %d: stacked result differs at %d: %g vs %g",
						dims, i, j, got[i][j], want[i][j])
				}
			}
		}
		st := bat.BatcherStats()
		if st.Stacks < 1 {
			t.Fatalf("GEMM(%v): no stacked launch recorded: %+v", dims, st)
		}
		if st.StackedGEMMs != submitters {
			t.Fatalf("GEMM(%v): stacked %d of %d shared-rhs kernels: %+v",
				dims, st.StackedGEMMs, submitters, st)
		}
	}
}

// TestStackingRequiresSharedRHS: distinct weights must not stack (the
// fused launch still runs them, just as separate kernel bodies).
func TestStackingRequiresSharedRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const m, n, k = 6, 8, 10
	const submitters = 4
	bat := NewBatcher(freeGPU(), submitters, nil)
	bat.window = 50 * time.Millisecond
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		a, b, c := randMat(rng, m*k), randMat(rng, k*n), make([]float32, m*n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			bat.GEMM(m, n, k, a, b, c)
		}()
	}
	wg.Wait()
	if st := bat.BatcherStats(); st.Stacks != 0 || st.StackedGEMMs != 0 {
		t.Fatalf("distinct-rhs kernels stacked: %+v", st)
	}
}

// TestStackingSkipsSharedOutput: two kernels writing the same C buffer
// must not stack (the copy-in/copy-back protocol would drop one
// contribution). Exercised against buildLaunch directly to avoid racing
// real concurrent writes to one buffer.
func TestStackingSkipsSharedOutput(t *testing.T) {
	const m, n, k = 2, 3, 4
	shared := make([]float32, k*n)
	c := make([]float32, m*n)
	bat := NewBatcher(freeGPU(), 1, nil)
	reqs := []fusedReq{
		{run: func() {}, m: m, n: n, k: k, a: make([]float32, m*k), bm: shared, c: c},
		{run: func() {}, m: m, n: n, k: k, a: make([]float32, m*k), bm: shared, c: c},
	}
	fns, _, nstacks, nstacked := bat.buildLaunch(reqs)
	if nstacks != 0 || nstacked != 0 {
		t.Fatalf("same-output kernels stacked: stacks=%d stacked=%d", nstacks, nstacked)
	}
	if len(fns) != 2 {
		t.Fatalf("expected 2 unstacked bodies, got %d", len(fns))
	}
}

// TestStackingMixedBatch: a batch mixing shared-rhs and private-rhs
// kernels stacks exactly the sharing subset and lowers to one body per
// remaining kernel.
func TestStackingMixedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const m, n, k = 5, 6, 7
	shared := randMat(rng, k*n)
	mk := func() fusedReq {
		return fusedReq{run: func() {}, m: m, n: n, k: k,
			a: randMat(rng, m*k), bm: shared, c: make([]float32, m*n)}
	}
	reqs := []fusedReq{mk(), mk(), mk()}
	solo := fusedReq{run: func() {}, m: m, n: n, k: k,
		a: randMat(rng, m*k), bm: randMat(rng, k*n), c: make([]float32, m*n), bytes: 77}
	reqs = append(reqs, solo)
	bat := NewBatcher(freeGPU(), 1, nil)
	fns, total, nstacks, nstacked := bat.buildLaunch(reqs)
	if nstacks != 1 || nstacked != 3 {
		t.Fatalf("stacks=%d stacked=%d, want 1/3", nstacks, nstacked)
	}
	if len(fns) != 2 { // one stacked body + one solo body
		t.Fatalf("lowered to %d bodies, want 2", len(fns))
	}
	// The stacked group charges one combined transfer (rhs moves once).
	wantBytes := gemmBytes(3*m, n, k) + solo.bytes
	if total != wantBytes {
		t.Fatalf("transfer bytes %d, want %d", total, wantBytes)
	}
}

// TestStackingSavesTransferBytes: N stacked kernels charge the shared
// rhs once, so the fused launch's byte total must undercut N unshared
// kernels' total.
func TestStackingSavesTransferBytes(t *testing.T) {
	const m, n, k, submitters = 8, 64, 64, 6
	unshared := submitters * gemmBytes(m, n, k)
	shared := gemmBytes(submitters*m, n, k)
	if shared >= unshared {
		t.Fatalf("stacking saves nothing: %d vs %d", shared, unshared)
	}
}
