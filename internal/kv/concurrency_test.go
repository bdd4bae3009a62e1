package kv

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentBucketAccess exercises the store's locking: concurrent
// writers on separate buckets plus readers on a shared bucket, while a
// flusher saves every bucket's root and writes back and drops the pages
// they touch. Run it under -race: Store.Flush reads a root a
// root-splitting Put is changing.
func TestConcurrentBucketAccess(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "c.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	shared, _ := s.Bucket("shared")
	for i := 0; i < 100; i++ {
		shared.Put(U64Key(uint64(i)), []byte("v"))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Writers: one bucket each.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b, err := s.Bucket(fmt.Sprintf("writer-%d", w))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 300; i++ {
				if err := b.Put(U64Key(uint64(i)), []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Readers on the shared bucket.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if v, err := shared.Get(U64Key(uint64(i % 100))); err != nil || string(v) != "v" {
					errs <- fmt.Errorf("shared Get(%d) = %q, %v", i%100, v, err)
					return
				}
			}
		}()
	}
	stop, flushed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Flush(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-flushed
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All writer data landed.
	for w := 0; w < 4; w++ {
		b, _ := s.Bucket(fmt.Sprintf("writer-%d", w))
		n, err := b.Len()
		if err != nil || n != 300 {
			t.Fatalf("writer-%d len = %d, %v", w, n, err)
		}
		for i := 0; i < 300; i++ {
			if v, err := b.Get(U64Key(uint64(i))); err != nil || string(v) != fmt.Sprintf("w%d-%d", w, i) {
				t.Fatalf("writer-%d Get(%d) = %q, %v", w, i, v, err)
			}
		}
	}
}

// TestConcurrentPagerAlloc checks the pager's allocation path under
// parallel load.
func TestConcurrentPagerAlloc(t *testing.T) {
	p, err := OpenPager(filepath.Join(t.TempDir(), "p.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, err := p.Alloc()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[id] {
					t.Errorf("page %d allocated twice", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 1600 {
		t.Fatalf("allocated %d unique pages, want 1600", len(seen))
	}
}
