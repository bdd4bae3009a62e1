// Package warmpool is a sync.Pool with the last released item held in
// front of it.
//
// A sync.Pool keeps one item per P in a slot the other Ps cannot take,
// and drops what it holds every second garbage collection. Whether a Get
// finds a warm item then depends on which P the caller runs on and on
// when the collector last ran, and so does what the caller allocates to
// rebuild a cold one. A Pool keeps the item its last Put released in one
// slot every P can take and no collection clears, so a caller that takes
// and releases one item at a time gets the same item back every time.
// The sync.Pool behind the slot takes the overflow of concurrent callers.
package warmpool

import (
	"sync"
	"sync/atomic"
)

// Pool holds idle *T values. The zero value is ready to use.
type Pool[T any] struct {
	spare atomic.Pointer[T]
	pool  sync.Pool
}

// Get returns the last released item, another idle one, or a new T.
func (p *Pool[T]) Get() *T {
	if x := p.spare.Swap(nil); x != nil {
		return x
	}
	if x, ok := p.pool.Get().(*T); ok {
		return x
	}
	return new(T)
}

// Put releases x for a later Get.
func (p *Pool[T]) Put(x *T) {
	if !p.spare.CompareAndSwap(nil, x) {
		p.pool.Put(x)
	}
}
