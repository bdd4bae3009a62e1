package core

// Iterator is the Volcano-style tuple iterator every operator implements
// (§2.2: "operators in the system implement iterators over tuples of
// Patch objects").
type Iterator interface {
	// Next returns the next tuple; ok=false at end of stream.
	Next() (t Tuple, ok bool, err error)
	// Close releases resources; idempotent.
	Close() error
}

// sliceIter iterates an in-memory tuple slice.
type sliceIter struct {
	tuples []Tuple
	pos    int
}

// NewSliceIterator wraps tuples in an Iterator.
func NewSliceIterator(tuples []Tuple) Iterator { return &sliceIter{tuples: tuples} }

// FromPatches wraps single-patch tuples in an Iterator.
func FromPatches(patches []*Patch) Iterator {
	ts := make([]Tuple, len(patches))
	for i, p := range patches {
		ts[i] = Tuple{p}
	}
	return NewSliceIterator(ts)
}

func (s *sliceIter) Next() (Tuple, bool, error) {
	if s.pos >= len(s.tuples) {
		return nil, false, nil
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, true, nil
}

func (s *sliceIter) Close() error { return nil }

// funcIter adapts a pull function to an Iterator.
type funcIter struct {
	next   func() (Tuple, bool, error)
	closer func() error
	closed bool
}

// NewFuncIterator builds an Iterator from a pull function and optional
// closer.
func NewFuncIterator(next func() (Tuple, bool, error), closer func() error) Iterator {
	return &funcIter{next: next, closer: closer}
}

func (f *funcIter) Next() (Tuple, bool, error) {
	if f.closed {
		return nil, false, nil
	}
	return f.next()
}

func (f *funcIter) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	if f.closer != nil {
		return f.closer()
	}
	return nil
}

// Drain consumes an iterator into a slice and closes it.
func Drain(it Iterator) ([]Tuple, error) {
	defer it.Close()
	var out []Tuple
	for {
		t, ok, err := it.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t)
	}
}

// DrainPatches consumes a single-patch-tuple iterator into a patch slice.
func DrainPatches(it Iterator) ([]*Patch, error) {
	ts, err := Drain(it)
	if err != nil {
		return nil, err
	}
	out := make([]*Patch, 0, len(ts))
	for _, t := range ts {
		if len(t) > 0 {
			out = append(out, t[0])
		}
	}
	return out, nil
}
