package core

import (
	"errors"
	"fmt"
	"testing"
)

func intPatches(n int) []*Patch {
	ps := make([]*Patch, n)
	for i := range ps {
		ps[i] = &Patch{ID: PatchID(i + 1), Meta: Metadata{"i": IntV(int64(i))}}
	}
	return ps
}

// failAfter streams ps, then yields err.
func failAfter(ps []*Patch, err error) Stream {
	return func(yield func(*Patch, error) bool) {
		for p := range FromPatches(ps) {
			if !yield(p, nil) {
				return
			}
		}
		yield(nil, err)
	}
}

func TestFromPatchesAndCollect(t *testing.T) {
	ps := intPatches(5)
	got, err := Collect(FromPatches(ps))
	if err != nil || len(got) != 5 {
		t.Fatalf("Collect: %d, %v", len(got), err)
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Fatalf("patch %d out of order", i)
		}
	}
	// A stream ranges afresh each time.
	if again, _ := Collect(FromPatches(ps)); len(again) != 5 {
		t.Fatalf("second range: %d patches", len(again))
	}
	boom := errors.New("boom")
	if got, err := Collect(failAfter(ps, boom)); !errors.Is(err, boom) || got != nil {
		t.Fatalf("Collect over a failing stream: %d patches, %v", len(got), err)
	}
}

func TestTransformFanOutAndDrop(t *testing.T) {
	in := FromPatches(intPatches(4))
	out := Transform(in, func(p *Patch) ([]*Patch, error) {
		i := metaVal(p, "i").Int()
		if i%2 == 0 {
			return nil, nil // drop evens
		}
		// Fan odd patches out three ways.
		return []*Patch{p, p, p}, nil
	})
	ps, err := Collect(out)
	if err != nil || len(ps) != 6 {
		t.Fatalf("fan-out collect: %d, %v", len(ps), err)
	}
}

func TestTransformPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	in := FromPatches(intPatches(3))
	out := Transform(in, func(*Patch) ([]*Patch, error) { return nil, boom })
	if _, err := Collect(out); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// An upstream error passes through without reaching fn.
	calls := 0
	out = Transform(failAfter(intPatches(2), boom), func(p *Patch) ([]*Patch, error) {
		calls++
		return []*Patch{p}, nil
	})
	if _, err := Collect(out); !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("err = %v after %d calls, want boom after 2", err, calls)
	}
}

// TestEarlyStopReachesUpstream: a consumer that stops ranging stops every
// stage above it; no stage pulls another patch.
func TestEarlyStopReachesUpstream(t *testing.T) {
	pulled := 0
	src := func(yield func(*Patch, error) bool) {
		for _, p := range intPatches(100) {
			pulled++
			if !yield(p, nil) {
				return
			}
		}
	}
	fan := Transform(src, func(p *Patch) ([]*Patch, error) { return []*Patch{p, p}, nil })
	batched := BatchTransform(fan, 4, func([]*Patch) error { return nil })
	n := 0
	for _, err := range batched {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 3 {
			break
		}
	}
	if pulled != 2 {
		t.Fatalf("source yielded %d patches for one batch of 4, want 2", pulled)
	}
}

func TestBatchTransformBatchesAndOrders(t *testing.T) {
	in := FromPatches(intPatches(10))
	var batchSizes []int
	out := BatchTransform(in, 4, func(batch []*Patch) error {
		batchSizes = append(batchSizes, len(batch))
		for _, p := range batch {
			p.Meta["seen"] = IntV(1)
		}
		return nil
	})
	ps, err := Collect(out)
	if err != nil || len(ps) != 10 {
		t.Fatalf("collect: %d, %v", len(ps), err)
	}
	if fmt.Sprint(batchSizes) != "[4 4 2]" {
		t.Fatalf("batch sizes %v", batchSizes)
	}
	for i, p := range ps {
		if metaVal(p, "i").Int() != int64(i) {
			t.Fatalf("order broken at %d", i)
		}
		if metaVal(p, "seen").Int() != 1 {
			t.Fatalf("patch %d not processed", i)
		}
	}
}

func TestBatchTransformError(t *testing.T) {
	boom := errors.New("boom")
	out := BatchTransform(FromPatches(intPatches(3)), 2, func([]*Patch) error { return boom })
	if _, err := Collect(out); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// An upstream error ends the stream; the partial batch is not mapped.
	var batchSizes []int
	out = BatchTransform(failAfter(intPatches(3), boom), 2, func(b []*Patch) error {
		batchSizes = append(batchSizes, len(b))
		return nil
	})
	if _, err := Collect(out); !errors.Is(err, boom) || fmt.Sprint(batchSizes) != "[2]" {
		t.Fatalf("err = %v, batches %v; want boom after [2]", err, batchSizes)
	}
}
