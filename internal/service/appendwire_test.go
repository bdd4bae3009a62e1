package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// fuzzSchemas are the schemas every body the differential fuzzer
// decodes is built against: an open one, where each value takes the
// kind its JSON shape gives, and two declaring every kind.
func fuzzSchemas() []core.Schema {
	return []core.Schema{
		{},
		{Fields: []core.Field{{Name: "n", Kind: core.KindInt}}},
		{Fields: []core.Field{
			{Name: "x", Kind: core.KindFloat},
			{Name: "r", Kind: core.KindRect},
			{Name: "s", Kind: core.KindStr, Domain: []string{"a", "b"}},
			{Name: "v", Kind: core.KindVec, VecDim: 2},
		}},
	}
}

// checkAppendParity decodes body with the /append decoder and with the
// encoding/json reference, and fails unless both accept it or both
// reject it, and on acceptance name the same collection and patch
// count and build byte-identical patches (or both fail) against every
// fuzz schema. The commit path answers from exactly these — decode
// error 400, then no collection or no patches 400, the gate's 429, an
// unknown collection 404, a build error 400 — so equal outcomes here
// mean equal statuses. The one intended difference: a frame past
// MaxInt64, which the reference stamped as a negative _frame, is now
// rejected.
func checkAppendParity(t *testing.T, body []byte) {
	t.Helper()
	req, rerr := refDecodeAppend(body)
	d := appendDecoders.Get()
	defer d.release()
	derr := d.decode(bytes.NewReader(body))
	if (rerr != nil) != (derr != nil) {
		t.Fatalf("body %q: encoding/json error %v, decoder error %v", body, rerr, derr)
	}
	if rerr != nil {
		return
	}
	specs := req.specs()
	if d.collection != req.Collection || d.count() != len(specs) {
		t.Fatalf("body %q: decoded collection %q with %d patches, encoding/json %q with %d",
			body, d.collection, d.count(), req.Collection, len(specs))
	}
	frameTooLarge := false
	for _, sp := range specs {
		frameTooLarge = frameTooLarge || sp.Frame > math.MaxInt64
	}
	for si, schema := range fuzzSchemas() {
		want, werr := refPatches(req, schema)
		if werr == nil && frameTooLarge {
			werr = errors.New("frame past MaxInt64")
		}
		got, gerr := d.patches(schema)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("body %q, schema %d: reference error %v, decoder error %v", body, si, werr, gerr)
		}
		for i := range got {
			if g, w := got[i].Marshal(), want[i].Marshal(); !bytes.Equal(g, w) {
				t.Fatalf("body %q, schema %d: patch %d decoded as\n  %+v\nencoding/json:\n  %+v", body, si, i, got[i], want[i])
			}
		}
	}
}

// FuzzAppendDecodeMatchesEncodingJSON: the /append decoder accepts
// exactly the bodies encoding/json decoded, and builds the patches the
// encoding/json path built.
func FuzzAppendDecodeMatchesEncodingJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAppendParity(t, body)
	})
}

// TestAppendDecodeDeepNesting: arrays nested to encoding/json's depth
// limit decode, one more level is rejected, by both.
func TestAppendDecodeDeepNesting(t *testing.T) {
	for _, depth := range []int{maxNestingDepth - 3, maxNestingDepth - 2} {
		// The request, patch and meta objects are three levels.
		body := `{"patch":{"meta":{"k":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}}}`
		checkAppendParity(t, []byte(body))
	}
}

// TestAppendDecoderPoolBound: a decoder a huge body grew is not pooled.
func TestAppendDecoderPoolBound(t *testing.T) {
	d := new(appendDecoder)
	small := []byte(`{"collection":"c","patch":{"meta":{"k":"v"}}}`)
	if err := d.decode(bytes.NewReader(small)); err != nil || !d.poolable() {
		t.Fatalf("small body: %v, poolable %v", err, d.poolable())
	}
	huge := `{"collection":"c","patch":{"meta":{"k":"` + strings.Repeat("x", 2*maxPooledBytes) + `"}}}`
	if err := d.decode(strings.NewReader(huge)); err != nil || d.poolable() {
		t.Fatalf("huge body: %v, poolable %v", err, d.poolable())
	}
}

// TestAppendDecoderReusedAfterCollections: the decoder a request
// released is the one the next request gets, however many collections
// ran between them, so an append's allocations do not hang on GC timing.
func TestAppendDecoderReusedAfterCollections(t *testing.T) {
	d := appendDecoders.Get()
	if err := d.decode(strings.NewReader(`{"collection":"c","patch":{"meta":{"k":[1,2,3]}}}`)); err != nil {
		t.Fatal(err)
	}
	d.release()
	runtime.GC()
	runtime.GC()
	got := appendDecoders.Get()
	defer got.release()
	if got != d {
		t.Fatal("a released decoder was not handed out again after two collections")
	}
	if cap(got.body) == 0 || cap(got.vals) == 0 {
		t.Fatalf("the reused decoder lost its buffers: body cap %d, vals cap %d", cap(got.body), cap(got.vals))
	}
}

// appendBatchBody is a 64-row /append body with dim-element vectors.
func appendBatchBody(dim int) []byte {
	var b strings.Builder
	b.WriteString(`{"collection":"c","patches":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"source":"cam","frame":%d,"meta":{"label":"car","score":0.%d5,"rank":%d,"emb":[`, i, i, i%6)
		for j := 0; j < dim; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "0.%d%d", j, i)
		}
		b.WriteString(`]}}`)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// TestAppendDecodeAllocsIndependentOfDim: decoding an /append batch and
// building its patches allocates per row, not per vector element, so
// 128-element vectors cost no more objects than 8-element ones.
func TestAppendDecodeAllocsIndependentOfDim(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	schema := core.Schema{Fields: []core.Field{
		{Name: "label", Kind: core.KindStr},
		{Name: "score", Kind: core.KindFloat},
		{Name: "rank", Kind: core.KindInt},
		{Name: "emb", Kind: core.KindVec},
	}}
	allocs := func(dim int) float64 {
		body := appendBatchBody(dim)
		rd := bytes.NewReader(body)
		return testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			d := appendDecoders.Get()
			defer d.release()
			if err := d.decode(rd); err != nil {
				t.Fatal(err)
			}
			ps, err := d.patches(schema)
			if err != nil || len(ps) != 64 || len(metaVal(ps[63], "emb").Vec()) != dim {
				t.Fatalf("dim %d: %d patches, %v", dim, len(ps), err)
			}
		})
	}
	if small, large := allocs(8), allocs(128); small != large {
		t.Fatalf("decoding 64 rows: %.0f allocations with 8-dim vectors, %.0f with 128-dim", small, large)
	}
}

// TestAppendRejectionOrder: /append rejects a body for the first of its
// faults in a fixed order — malformed 400, no patches 400, full gate
// 429, unknown collection 404, schema 400 — and "collection" may follow
// "patches".
func TestAppendRejectionOrder(t *testing.T) {
	_, svc := synthUnsharded(t, 10, Config{Workers: 1})
	h := svc.Handler()
	good := `{"source":"synth","frame":10,"meta":{"label":"car","score":1,"rank":2,"emb":[1,2,3,4,5,6,7,8]}}`
	bad := `{"source":"synth","meta":{"label":"car"}}`
	post := func(body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append", strings.NewReader(body)))
		return rec.Code
	}
	fullGate := func(body string) int {
		held := 0
		for svc.tryAppendSlot() {
			held++
		}
		defer func() {
			for ; held > 0; held-- {
				svc.releaseAppendSlot()
			}
		}()
		return post(body)
	}
	cases := []struct {
		name   string
		status func(string) int
		body   string
		want   int
	}{
		{"malformed past a full gate", fullGate, `{"collection":"nope","patch":` + bad, http.StatusBadRequest},
		{"no patches past a full gate", fullGate, `{"collection":"nope","patches":[]}`, http.StatusBadRequest},
		{"full gate before the unknown collection", fullGate, `{"collection":"nope","patch":` + bad + `}`, http.StatusTooManyRequests},
		{"unknown collection before the schema", post, `{"collection":"nope","patch":` + bad + `}`, http.StatusNotFound},
		{"schema", post, `{"collection":"` + shardTestCol + `","patch":` + bad + `}`, http.StatusBadRequest},
		{"collection after patches", post, `{"patches":[` + good + `],"collection":"` + shardTestCol + `"}`, http.StatusOK},
	}
	for _, tc := range cases {
		if got := tc.status(tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAppendRejectsFrameBeyondInt64: _frame is an int64, so a frame of
// 2^63 or more would be stored, and read back, negative. Both adapters
// reject it as a bad request; the largest int64 frame is accepted.
func TestAppendRejectsFrameBeyondInt64(t *testing.T) {
	_, svc := synthUnsharded(t, 10, Config{Workers: 1})
	spec := specFromPatch(synthPatch(10))
	spec.Frame = 1 << 63
	_, err := svc.Append(context.Background(), AppendRequest{Collection: shardTestCol, Patch: &spec})
	if err == nil || errors.Is(err, ErrAppendStorage) {
		t.Fatalf("Go API append of frame 2^63: %v, want a validation error", err)
	}
	h := svc.Handler()
	for _, tc := range []struct {
		frame uint64
		want  int
	}{{1 << 63, http.StatusBadRequest}, {math.MaxUint64, http.StatusBadRequest}, {math.MaxInt64, http.StatusOK}} {
		body := `{"collection":"` + shardTestCol + `","patch":{"source":"synth","frame":` + strconv.FormatUint(tc.frame, 10) +
			`,"meta":{"label":"car","score":1,"rank":2,"emb":[1,2,3,4,5,6,7,8]}}}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append", strings.NewReader(body)))
		if rec.Code != tc.want {
			t.Errorf("frame %d: status %d, want %d: %s", tc.frame, rec.Code, tc.want, rec.Body)
		}
	}
	if got := mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true}).Value; got != 11 {
		t.Fatalf("%d rows after the appends, want 11", got)
	}
}

// TestAppendedRowBytes: a fixture-shaped row (three declared fields)
// committed through /append costs at most 96 bytes of live heap once
// the rows are flushed: its row table entry and its copied label. The
// batch's array of Patches and its Sealer's slots do not outlive the
// append. Before /append sealed against the collection's layout, the
// batch's rows held their metadata as keyed pairs, at ~216 bytes a row,
// and while the collection kept the batch's Patches, 176 bounded it.
func TestAppendedRowBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const batches, limit = 200, 96
	db, err := core.Open(filepath.Join(t.TempDir(), "rows.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateCollection("c", core.Schema{Fields: []core.Field{
		{Name: "label", Kind: core.KindStr},
		{Name: "score", Kind: core.KindFloat},
		{Name: "rank", Kind: core.KindInt},
	}}); err != nil {
		t.Fatal(err)
	}
	svc, err := New(db, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	post := func(b int) {
		var body strings.Builder
		body.WriteString(`{"collection":"c","patches":[`)
		for i := 0; i < 64; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"source":"cam","frame":%d,"meta":{"label":"cls%02d","score":0.%d,"rank":%d}}`, b*64+i, (b+i)%16, i, b%1009)
		}
		body.WriteString(`]}`)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/append", strings.NewReader(body.String())))
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", b, rec.Code, rec.Body)
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	post(0) // loads the collection and warms the pools
	start := heap()
	for b := 1; b <= batches; b++ {
		post(b)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	perRow := float64(heap()-start) / (batches * 64)
	runtime.KeepAlive(svc)
	t.Logf("%.0f B of live heap per row committed through /append", perRow)
	if perRow > limit {
		t.Fatalf("%.0f B of live heap per row committed through /append, want at most %d", perRow, limit)
	}
}
