package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// dirtyQueryBody sets every member a /query body can, so a decoder that
// read it first shows whether the next decode starts from a zero
// Request and an empty query vector.
const dirtyQueryBody = `{"collection":"dirty","filter":{"field":"f","str":"s","int":1,"float":2,"min":3,"max":4,"use_index":true},` +
	`"simjoin":{"field":"e","eps":0.5,"use_index":true,"min_cluster":2},` +
	`"knn":{"field":"v","k":3,"query":[9,9,9,9,9,9],"source_id":5,"metric":"l2","exact":true,"recall_floor":0.5,"use_index":true},` +
	`"distinct":true,"order_by":"o","desc":true,"limit":7,` +
	`"infer":{"source":"src","from":1,"to":2,"udf":"detect","label":"l","text":"t"},` +
	`"no_cache":true,"timeout_ms":9,"allow_partial":true,"trace":true}`

// checkQueryParity decodes body with the /query decoder, fresh and after
// another body, and with the encoding/json reference, and fails unless
// all accept it or all reject it and, on acceptance, build
// reflect.DeepEqual Requests.
func checkQueryParity(t *testing.T, body []byte) {
	t.Helper()
	want, rerr := refDecodeQuery(body)
	for _, prev := range []string{"", dirtyQueryBody} {
		d := new(queryDecoder)
		if prev != "" {
			if err := d.decode(strings.NewReader(prev)); err != nil {
				t.Fatalf("dirty body: %v", err)
			}
		}
		derr := d.decode(bytes.NewReader(body))
		if (rerr != nil) != (derr != nil) {
			t.Fatalf("body %q (after %q): encoding/json error %v, decoder error %v", body, prev, rerr, derr)
		}
		if rerr == nil && !reflect.DeepEqual(d.req, want) {
			t.Fatalf("body %q (after %q): decoded\n  %s\nencoding/json:\n  %s", body, prev, dumpRequest(&d.req), dumpRequest(&want))
		}
	}
}

// dumpRequest spells out r with its pointers followed.
func dumpRequest(r *Request) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", *r)
	if f := r.Filter; f != nil {
		fmt.Fprintf(&b, " filter=%+v", *f)
		for name, p := range map[string]any{"str": f.Str, "int": f.Int, "float": f.Float, "min": f.Min, "max": f.Max} {
			if v := reflect.ValueOf(p); !v.IsNil() {
				fmt.Fprintf(&b, " %s=%v", name, v.Elem())
			}
		}
	}
	if r.SimJoin != nil {
		fmt.Fprintf(&b, " simjoin=%+v", *r.SimJoin)
	}
	if r.KNN != nil {
		fmt.Fprintf(&b, " knn=%+v (query nil %v)", *r.KNN, r.KNN.Query == nil)
	}
	if r.Infer != nil {
		fmt.Fprintf(&b, " infer=%+v", *r.Infer)
	}
	return b.String()
}

// FuzzQueryDecodeMatchesEncodingJSON: the /query decoder accepts exactly
// the bodies encoding/json decoded and builds the Request it built.
func FuzzQueryDecodeMatchesEncodingJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkQueryParity(t, body)
	})
}

// TestQueryDecodeDeepNesting: a value nested to encoding/json's depth
// limit, and one level past it, is rejected by both decoders: no
// Request member takes a nested array.
func TestQueryDecodeDeepNesting(t *testing.T) {
	for _, depth := range []int{maxNestingDepth - 1, maxNestingDepth} {
		// The request object is the first level.
		checkQueryParity(t, []byte(`{"filter":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`))
	}
}

// TestQueryDecoderPoolBound: a decoder a huge body grew is not pooled.
func TestQueryDecoderPoolBound(t *testing.T) {
	d := new(queryDecoder)
	huge := `{"collection":"` + strings.Repeat("x", 2*maxPooledBytes) + `"}`
	if err := d.decode(strings.NewReader(huge)); err != nil {
		t.Fatal(err)
	}
	d.release()
	if got := queryDecoders.Get(); got == d {
		t.Fatal("a decoder holding a 2 MiB body was pooled")
	}
}

// Warm cache hits through the handler allocate one object: the
// caller-private Response copy a hit returns (go1.24, linux/amd64).
// The body is decoded into a pooled Request, the key is hashed into a
// stack buffer and the cache is probed with its bytes, so decoding,
// fingerprinting and the probe allocate nothing.
const (
	maxPointHitAllocs = 1
	maxRangeHitAllocs = 1
)

// TestQueryCacheHitAllocs: a warm cached point query and a warm cached
// range top-k query, each served through Handler().ServeHTTP into a
// reused ResponseWriter, allocate no more than pinned above.
func TestQueryCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s := obsFixture(t, 1, 240, Config{Workers: 1})
	h := s.Handler()
	w := &sinkWriter{hdr: http.Header{}}
	for _, c := range []struct {
		name string
		body string
		max  float64
	}{
		{"point", `{"collection":"` + shardTestCol + `","filter":{"field":"rank","int":3},"limit":20}`, maxPointHitAllocs},
		{"range top-k", `{"collection":"` + shardTestCol + `","filter":{"field":"score","min":1,"max":3},"order_by":"score","desc":true,"limit":10}`, maxRangeHitAllocs},
	} {
		body := []byte(c.body)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/query", rd)
		serve := func() {
			rd.Reset(body)
			w.status, w.body = 0, w.body[:0]
			h.ServeHTTP(w, req)
		}
		serve() // miss
		serve() // first hit: builds the head
		if r := checkWire(t, c.name, w.status, w.body); !r.CacheHit {
			t.Fatalf("%s: want a cache hit", c.name)
		}
		allocs := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %.0f allocations per hit", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s hit: %.0f allocations per request, want <= %.0f", c.name, allocs, c.max)
		}
	}
}
