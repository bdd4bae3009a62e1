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

func TestSliceIteratorAndDrain(t *testing.T) {
	it := FromPatches(intPatches(5))
	ts, err := Drain(it)
	if err != nil || len(ts) != 5 {
		t.Fatalf("Drain: %d, %v", len(ts), err)
	}
	// Drained iterator yields nothing further.
	_, ok, _ := it.Next()
	if ok {
		t.Fatal("iterator alive after Drain")
	}
}

func TestFuncIteratorCloseIdempotent(t *testing.T) {
	closed := 0
	it := NewFuncIterator(func() (Tuple, bool, error) { return nil, false, nil },
		func() error { closed++; return nil })
	it.Close()
	it.Close()
	if closed != 1 {
		t.Fatalf("closer ran %d times", closed)
	}
	// After close, Next returns exhausted.
	if _, ok, _ := it.Next(); ok {
		t.Fatal("closed iterator yielded")
	}
}

func TestTransformFanOutAndDrop(t *testing.T) {
	in := FromPatches(intPatches(4))
	out := Transform(in, func(tp Tuple) ([]Tuple, error) {
		i := metaVal(tp[0], "i").Int()
		if i%2 == 0 {
			return nil, nil // drop evens
		}
		// Fan odd tuples out three ways.
		return []Tuple{tp, tp, tp}, nil
	})
	ts, err := Drain(out)
	if err != nil || len(ts) != 6 {
		t.Fatalf("fan-out drain: %d, %v", len(ts), err)
	}
}

func TestTransformPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	in := FromPatches(intPatches(3))
	out := Transform(in, func(Tuple) ([]Tuple, error) { return nil, boom })
	if _, err := Drain(out); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestBatchTransformBatchesAndOrders(t *testing.T) {
	in := FromPatches(intPatches(10))
	var batchSizes []int
	out := BatchTransform(in, 4, func(batch []Tuple) error {
		batchSizes = append(batchSizes, len(batch))
		for _, tp := range batch {
			tp[0].Meta["seen"] = IntV(1)
		}
		return nil
	})
	ts, err := Drain(out)
	if err != nil || len(ts) != 10 {
		t.Fatalf("drain: %d, %v", len(ts), err)
	}
	if fmt.Sprint(batchSizes) != "[4 4 2]" {
		t.Fatalf("batch sizes %v", batchSizes)
	}
	for i, tp := range ts {
		if metaVal(tp[0], "i").Int() != int64(i) {
			t.Fatalf("order broken at %d", i)
		}
		if metaVal(tp[0], "seen").Int() != 1 {
			t.Fatalf("tuple %d not processed", i)
		}
	}
}

func TestBatchTransformError(t *testing.T) {
	boom := errors.New("boom")
	out := BatchTransform(FromPatches(intPatches(3)), 2, func([]Tuple) error { return boom })
	if _, err := Drain(out); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestCountAndLimitCompose(t *testing.T) {
	n, err := Count(Limit(FromPatches(intPatches(100)), 7))
	if err != nil || n != 7 {
		t.Fatalf("count = %d, %v", n, err)
	}
	// Limit larger than stream.
	n, _ = Count(Limit(FromPatches(intPatches(3)), 10))
	if n != 3 {
		t.Fatalf("over-limit count = %d", n)
	}
}

func TestDrainPatchesSkipsEmptyTuples(t *testing.T) {
	ts := []Tuple{{intPatches(1)[0]}, {}, {intPatches(1)[0]}}
	ps, err := DrainPatches(NewSliceIterator(ts))
	if err != nil || len(ps) != 2 {
		t.Fatalf("%d, %v", len(ps), err)
	}
}
