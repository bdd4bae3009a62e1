package warmpool

import (
	"runtime"
	"testing"
)

type item struct{ buf []byte }

// TestGetReturnsLastPutAfterCollections: the item the last Put released
// survives any number of collections and is what the next Get returns.
func TestGetReturnsLastPutAfterCollections(t *testing.T) {
	var p Pool[item]
	x := p.Get()
	x.buf = make([]byte, 64)
	p.Put(x)
	for range 3 {
		runtime.GC()
	}
	if got := p.Get(); got != x {
		t.Fatal("Get after three collections did not return the released item")
	}
}

// TestGetNewWhenEmpty: an empty pool hands out distinct zero items.
func TestGetNewWhenEmpty(t *testing.T) {
	var p Pool[item]
	a, b := p.Get(), p.Get()
	if a == nil || b == nil || a == b || a.buf != nil || b.buf != nil {
		t.Fatalf("Get on an empty pool: %p, %p", a, b)
	}
}

// TestOverflowKeepsFirstReleased: a second Put while the slot is full
// leaves the slot's item in place.
func TestOverflowKeepsFirstReleased(t *testing.T) {
	var p Pool[item]
	a, b := p.Get(), p.Get()
	p.Put(a)
	p.Put(b)
	if got := p.Get(); got != a {
		t.Fatal("the slot did not keep the first released item")
	}
	if got := p.Get(); got == a {
		t.Fatal("the same item was handed out twice")
	}
}
