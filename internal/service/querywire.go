package service

// The /query body decoder. handleQuery reads a body once into a pooled
// queryDecoder, which parses it with the /append reader (appendwire.go)
// straight into a Request the decoder owns: its filter, simjoin, knn
// and infer specs, their pointed-to constants and the knn query's
// vector all live in the decoder, and a string member that repeats
// what the decoder last held for it is not copied again. A warm decode
// of a body like the last one allocates nothing.
//
// The contract is parity with the decode /query ran before, a
// json.Decoder with DisallowUnknownFields into a Request: the decoder
// accepts exactly the bodies that accepted and builds a Request
// reflect.DeepEqual to what it built (FuzzQueryDecodeMatchesEncodingJSON
// checks both against the reference in querywire_ref_test.go):
//   - member names select fields byte for byte or under Unicode case
//     folding, and any other member is an error;
//   - a repeated member decodes again into what the earlier one left:
//     scalars are overwritten and a repeated spec object merges into
//     the spec the earlier one set;
//   - null leaves a string, number or bool as it was, and clears a
//     spec, a pointed-to filter constant and the knn query;
//   - integers must be integer literals within int64 (uint64 for
//     source_id), floats within float64, query elements within
//     float32;
//   - "query" decodes into the vector it holds as encoding/json decodes
//     into a slice: elements past a shorter array's end stay in the
//     backing array for a longer one to expose, a null element keeps
//     its value, and [] (an empty, non-nil vector) or null drops them;
//   - bytes after the top-level value are ignored.
//
// The Request must not be reachable once its handler returns, because
// the next request decodes into it: admit deep-clones it into every
// task it queues.

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/warmpool"
)

var queryDecoders warmpool.Pool[queryDecoder]

// queryDecoder holds one /query body and the Request decoded from it.
type queryDecoder struct {
	wireReader
	req Request

	// What req's pointers point at while they are set.
	filter     FilterSpec
	simjoin    SimJoinSpec
	knn        KNNSpec
	infer      InferSpec
	str        string
	num        int64
	flt        float64
	lo, hi     float64
	vec        []float32 // the knn query's backing array, up to the furthest element decoded into it
	lastString [numStringMembers]string
}

// The string members, each with the string it last decoded to.
const (
	lastCollection = iota
	lastOrderBy
	lastFilterField
	lastFilterStr
	lastSimJoinField
	lastKNNField
	lastKNNMetric
	lastInferSource
	lastInferUDF
	lastInferLabel
	lastInferText
	numStringMembers
)

// emptyVec is the empty, non-nil query a [] decodes to.
var emptyVec = []float32{}

// decode reads rd to its end and parses it as a /query body into q.req.
func (q *queryDecoder) decode(rd io.Reader) error {
	if err := q.load(rd); err != nil {
		return err
	}
	return q.parse()
}

// parse decodes q.body from its start into a zero Request.
func (q *queryDecoder) parse() error {
	q.req = Request{}
	q.dropVec()
	q.ws()
	switch {
	case q.pos == len(q.body):
		return errors.New("empty body")
	case q.body[q.pos] == '{':
		return q.request()
	case q.at("null"):
		// The zero Request: validate rejects it.
		return nil
	}
	return q.errorf("want a query request object")
}

// release returns q to the pool, unless a huge request grew one of its
// buffers past maxPooledBytes. The strings it last held stay, for the
// next body to reuse.
func (q *queryDecoder) release() {
	q.req = Request{}
	if max(cap(q.body), cap(q.name), capBytes(q.vec)) <= maxPooledBytes {
		queryDecoders.Put(q)
	}
}

// dropVec empties the knn query's backing array, as encoding/json
// starts a new slice.
func (q *queryDecoder) dropVec() {
	clear(q.vec)
	q.vec = q.vec[:0]
}

// point returns *dst, first pointing it at slot, zeroed, when it is
// nil: the value encoding/json allocates for a pointer it decodes into.
func point[T any](dst **T, slot *T) *T {
	if *dst == nil {
		var zero T
		*slot = zero
		*dst = slot
	}
	return *dst
}

// isNull consumes a null value and reports whether there was one.
func (q *queryDecoder) isNull() (bool, error) {
	if q.peek() != 'n' {
		return false, nil
	}
	return true, q.literal("null")
}

// object decodes the object at q.pos member by member: member decodes
// the value of the member q.name names.
func (q *queryDecoder) object(member func() error) error {
	if q.peek() != '{' {
		return q.errorf("want an object")
	}
	more, err := q.open('}')
	for more && err == nil {
		if q.name, err = q.member(q.name[:0]); err != nil {
			return err
		}
		if err = member(); err == nil {
			more, err = q.more('}')
		}
	}
	return err
}

func (q *queryDecoder) request() error {
	r := &q.req
	return q.object(func() error {
		switch {
		case fieldIs(q.name, "collection"):
			return q.stringValue(&r.Collection, &q.lastString[lastCollection])
		case fieldIs(q.name, "filter"):
			if null, err := q.isNull(); null || err != nil {
				r.Filter = nil
				return err
			}
			return q.filterSpec(point(&r.Filter, &q.filter))
		case fieldIs(q.name, "simjoin"):
			if null, err := q.isNull(); null || err != nil {
				r.SimJoin = nil
				return err
			}
			return q.simJoinSpec(point(&r.SimJoin, &q.simjoin))
		case fieldIs(q.name, "knn"):
			if null, err := q.isNull(); null || err != nil {
				r.KNN = nil
				return err
			}
			if r.KNN == nil {
				q.dropVec() // a new spec's query starts a new slice
			}
			return q.knnSpec(point(&r.KNN, &q.knn))
		case fieldIs(q.name, "distinct"):
			return q.boolValue(&r.Distinct)
		case fieldIs(q.name, "order_by"):
			return q.stringValue(&r.OrderBy, &q.lastString[lastOrderBy])
		case fieldIs(q.name, "desc"):
			return q.boolValue(&r.Desc)
		case fieldIs(q.name, "limit"):
			return q.intValue(&r.Limit)
		case fieldIs(q.name, "infer"):
			if null, err := q.isNull(); null || err != nil {
				r.Infer = nil
				return err
			}
			return q.inferSpec(point(&r.Infer, &q.infer))
		case fieldIs(q.name, "no_cache"):
			return q.boolValue(&r.NoCache)
		case fieldIs(q.name, "timeout_ms"):
			return q.intValue(&r.TimeoutMS)
		case fieldIs(q.name, "allow_partial"):
			return q.boolValue(&r.AllowPartial)
		case fieldIs(q.name, "trace"):
			return q.boolValue(&r.Trace)
		}
		return fmt.Errorf("unknown field %q", q.name)
	})
}

func (q *queryDecoder) filterSpec(f *FilterSpec) error {
	return q.object(func() error {
		switch {
		case fieldIs(q.name, "field"):
			return q.stringValue(&f.Field, &q.lastString[lastFilterField])
		case fieldIs(q.name, "str"):
			if null, err := q.isNull(); null || err != nil {
				f.Str = nil
				return err
			}
			return q.stringValue(point(&f.Str, &q.str), &q.lastString[lastFilterStr])
		case fieldIs(q.name, "int"):
			if null, err := q.isNull(); null || err != nil {
				f.Int = nil
				return err
			}
			return q.int64Value(point(&f.Int, &q.num))
		case fieldIs(q.name, "float"):
			return q.floatPtr(&f.Float, &q.flt)
		case fieldIs(q.name, "min"):
			return q.floatPtr(&f.Min, &q.lo)
		case fieldIs(q.name, "max"):
			return q.floatPtr(&f.Max, &q.hi)
		case fieldIs(q.name, "use_index"):
			return q.boolValue(&f.UseIndex)
		}
		return fmt.Errorf("unknown field %q", q.name)
	})
}

// floatPtr decodes a *float64 member: null clears it.
func (q *queryDecoder) floatPtr(dst **float64, slot *float64) error {
	if null, err := q.isNull(); null || err != nil {
		*dst = nil
		return err
	}
	return q.floatValue(point(dst, slot))
}

func (q *queryDecoder) simJoinSpec(j *SimJoinSpec) error {
	return q.object(func() error {
		switch {
		case fieldIs(q.name, "field"):
			return q.stringValue(&j.Field, &q.lastString[lastSimJoinField])
		case fieldIs(q.name, "eps"):
			return q.floatValue(&j.Eps)
		case fieldIs(q.name, "use_index"):
			return q.boolValue(&j.UseIndex)
		case fieldIs(q.name, "min_cluster"):
			return q.intValue(&j.MinCluster)
		}
		return fmt.Errorf("unknown field %q", q.name)
	})
}

func (q *queryDecoder) knnSpec(k *KNNSpec) error {
	return q.object(func() error {
		switch {
		case fieldIs(q.name, "field"):
			return q.stringValue(&k.Field, &q.lastString[lastKNNField])
		case fieldIs(q.name, "k"):
			return q.intValue(&k.K)
		case fieldIs(q.name, "query"):
			return q.vector(k)
		case fieldIs(q.name, "source_id"):
			return q.uintValue(&k.SourceID)
		case fieldIs(q.name, "metric"):
			return q.stringValue(&k.Metric, &q.lastString[lastKNNMetric])
		case fieldIs(q.name, "exact"):
			return q.boolValue(&k.Exact)
		case fieldIs(q.name, "recall_floor"):
			return q.floatValue(&k.RecallFloor)
		case fieldIs(q.name, "use_index"):
			return q.boolValue(&k.UseIndex)
		}
		return fmt.Errorf("unknown field %q", q.name)
	})
}

// vector decodes "query" into k.Query as encoding/json decodes an array
// into a []float32 (see the file comment).
func (q *queryDecoder) vector(k *KNNSpec) error {
	switch q.peek() {
	case 'n':
		k.Query = nil
		q.dropVec()
		return q.literal("null")
	case '[':
	default:
		return q.errorf("want a query array")
	}
	more, err := q.open(']')
	n := 0
	for ; more && err == nil; n++ {
		if n == len(q.vec) {
			q.vec = append(q.vec, 0)
		}
		if c := q.peek(); c == 'n' {
			err = q.literal("null")
		} else {
			err = q.float32Value(&q.vec[n])
		}
		if err == nil {
			more, err = q.more(']')
		}
	}
	if err != nil {
		return err
	}
	if n == 0 {
		q.dropVec()
		k.Query = emptyVec
		return nil
	}
	k.Query = q.vec[:n]
	return nil
}

func (q *queryDecoder) inferSpec(i *InferSpec) error {
	return q.object(func() error {
		switch {
		case fieldIs(q.name, "source"):
			return q.stringValue(&i.Source, &q.lastString[lastInferSource])
		case fieldIs(q.name, "from"):
			return q.intValue(&i.From)
		case fieldIs(q.name, "to"):
			return q.intValue(&i.To)
		case fieldIs(q.name, "udf"):
			return q.stringValue(&i.UDF, &q.lastString[lastInferUDF])
		case fieldIs(q.name, "label"):
			return q.stringValue(&i.Label, &q.lastString[lastInferLabel])
		case fieldIs(q.name, "text"):
			return q.stringValue(&i.Text, &q.lastString[lastInferText])
		}
		return fmt.Errorf("unknown field %q", q.name)
	})
}

// boolValue decodes a bool member's value into *dst; null leaves it as
// it was.
func (r *wireReader) boolValue(dst *bool) error {
	switch r.peek() {
	case 't':
		*dst = true
		return r.literal("true")
	case 'f':
		*dst = false
		return r.literal("false")
	case 'n':
		return r.literal("null")
	}
	return r.errorf("want a bool")
}

// int64Value decodes an integer member's value into *dst, as
// encoding/json decodes into an int64: an integer literal within its
// range; null leaves it as it was.
func (r *wireReader) int64Value(dst *int64) error {
	if r.peek() == 'n' {
		return r.literal("null")
	}
	lit, err := r.number()
	if err != nil {
		return err
	}
	x, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return r.errorf("number %s is not an int64", lit)
	}
	*dst = x
	return nil
}

// intValue is int64Value for an int field: an error past int's range.
func (r *wireReader) intValue(dst *int) error {
	x := int64(*dst)
	if err := r.int64Value(&x); err != nil {
		return err
	}
	if int64(int(x)) != x {
		return r.errorf("number %d is not an int", x)
	}
	*dst = int(x)
	return nil
}

// floatValue decodes a float64 member's value into *dst; null leaves it
// as it was.
func (r *wireReader) floatValue(dst *float64) error {
	if r.peek() == 'n' {
		return r.literal("null")
	}
	x, err := r.float()
	if err != nil {
		return err
	}
	*dst = x
	return nil
}

// float32Value decodes a number into *dst as encoding/json decodes one
// into a float32: rounded, and an error past its range.
func (r *wireReader) float32Value(dst *float32) error {
	lit, err := r.number()
	if err != nil {
		return err
	}
	x, err := strconv.ParseFloat(string(lit), 32)
	if err != nil {
		return r.errorf("number %s does not fit a float32", lit)
	}
	*dst = float32(x)
	return nil
}
