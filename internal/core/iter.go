package core

import "iter"

// Stream is what every ETL stage takes and returns (§2.2: generators and
// transformers are iterators over patches, and Materialize drains one).
// A stage yields its patches in order; an error is yielded once, with a
// nil patch, and ends the stream. A consumer that stops ranging stops
// the stage and every stage upstream of it.
type Stream = iter.Seq2[*Patch, error]

// FromPatches streams patches in order.
func FromPatches(patches []*Patch) Stream {
	return func(yield func(*Patch, error) bool) {
		for _, p := range patches {
			if !yield(p, nil) {
				return
			}
		}
	}
}

// Collect drains s into a slice, or returns the error s yields.
func Collect(s Stream) ([]*Patch, error) {
	var out []*Patch
	for p, err := range s {
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
