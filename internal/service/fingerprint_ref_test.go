package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/core"
)

// fingerprint is the request's result-cache key at version.
func (r *Request) fingerprint(version uint64, modelSeed int64) string {
	return string(r.appendKey(nil, version, modelSeed))
}

// fingerprintFor is the request's result-cache key against the live
// catalog, as a query would compute it now.
func (s *Service) fingerprintFor(req *Request) (string, error) {
	version, err := s.versionOf(req)
	if err != nil {
		return "", err
	}
	return req.fingerprint(version, s.cfg.ModelSeed), nil
}

// The reference result-cache keys are checked against: the fingerprint
// as it was computed before tokens were appended to one buffer and
// hashed once, a sha256.New stream with one Write per token header and
// one per token body, over the same tokens.

type refFingerprinter struct{ h hash.Hash }

func newRefFingerprinter(kind string) *refFingerprinter {
	f := &refFingerprinter{h: sha256.New()}
	f.token('K', []byte(kind))
	return f
}

func (f *refFingerprinter) token(tag byte, b []byte) {
	var hdr [9]byte
	hdr[0] = tag
	binary.BigEndian.PutUint64(hdr[1:], uint64(len(b)))
	f.h.Write(hdr[:])
	f.h.Write(b)
}

func (f *refFingerprinter) str(key, v string) *refFingerprinter {
	f.token('k', []byte(key))
	f.token('s', []byte(v))
	return f
}

func (f *refFingerprinter) int(key string, v int64) *refFingerprinter {
	f.token('k', []byte(key))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	f.token('i', b[:])
	return f
}

func (f *refFingerprinter) float(key string, v float64) *refFingerprinter {
	f.token('k', []byte(key))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	f.token('f', b[:])
	return f
}

func (f *refFingerprinter) u64(v uint64) *refFingerprinter {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	f.token('u', b[:])
	return f
}

func (f *refFingerprinter) value(key string, v core.Value) *refFingerprinter {
	f.token('k', []byte(key))
	f.token('t', []byte{byte(v.Kind)})
	switch v.Kind {
	case core.KindInt:
		f.int("", v.Int())
	case core.KindFloat:
		f.float("", v.Float())
	case core.KindStr:
		f.token('s', []byte(v.Str()))
	case core.KindVec, core.KindRect:
		vec := v.Vec()
		f.u64(uint64(len(vec)))
		for _, x := range vec {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], math.Float32bits(x))
			f.token('v', b[:])
		}
	}
	return f
}

func (f *refFingerprinter) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// refKey is the request's result-cache key computed the old way.
func refKey(r *Request, version uint64, modelSeed int64) string {
	if i := r.Infer; i != nil {
		fp := newRefFingerprinter("infer").str("source", i.Source).
			int("from", int64(i.From)).int("to", int64(i.To)).
			str("udf", i.UDF).str("label", i.Label).str("text", i.Text).
			int("seed", modelSeed).u64(version).sum()
		return "q:" + i.Source + ":" + fp
	}
	f := newRefFingerprinter("query")
	f.token('C', []byte(r.Collection))
	f.u64(version)
	if q := r.KNN; q != nil {
		metric := q.Metric
		if metric == "" {
			metric = "l2"
		}
		f.str("knn.field", q.Field).int("knn.k", int64(q.K)).str("knn.metric", metric)
		if len(q.Query) > 0 {
			f.value("knn.query", core.VecV(q.Query))
		} else {
			f.int("knn.source", int64(q.SourceID))
		}
		if r.AllowPartial {
			f.int("allow_partial", 1)
		}
		return "q:" + r.Collection + ":" + f.sum()
	}
	if r.Filter != nil {
		f.str("filter.field", r.Filter.Field)
		if r.Filter.isRange() {
			if r.Filter.Min != nil {
				f.float("filter.min", *r.Filter.Min)
			}
			if r.Filter.Max != nil {
				f.float("filter.max", *r.Filter.Max)
			}
		} else {
			v, _ := r.Filter.value()
			f.value("filter.eq", v)
		}
	}
	orderBy, desc, limit := r.OrderBy, r.Desc, r.Limit
	if r.SimJoin != nil {
		orderBy, desc, limit = "", false, 0
		f.str("sim.field", r.SimJoin.Field).float("sim.eps", r.SimJoin.Eps).
			int("sim.mincluster", int64(r.SimJoin.MinCluster))
	}
	if r.Distinct {
		f.int("distinct", 1)
	}
	if r.AllowPartial {
		f.int("allow_partial", 1)
	}
	if orderBy != "" {
		d := int64(0)
		if desc {
			d = 1
		}
		f.str("order", orderBy).int("desc", d)
	}
	if limit > 0 {
		f.int("limit", int64(limit))
	}
	return "q:" + r.Collection + ":" + f.sum()
}

// TestFingerprintMatchesStreamingReference: every queryMatrix request,
// the same requests allowing partial results, and infer and knn shapes
// the matrix lacks key exactly as the streaming hash keyed them, at
// several versions, so no cached result or recorded fingerprint moves.
func TestFingerprintMatchesStreamingReference(t *testing.T) {
	reqs := queryMatrix()
	for _, r := range queryMatrix() {
		r.AllowPartial = true
		reqs = append(reqs, r)
	}
	reqs = append(reqs,
		Request{Infer: &InferSpec{Source: "cam", From: 2, To: 9, UDF: "detect", Label: "car"}},
		Request{Infer: &InferSpec{Source: "cam", From: 0, To: 1, UDF: "ocr", Text: "stop"}},
		Request{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 3, SourceID: 17, Metric: "l2", RecallFloor: 0.9}},
		Request{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 2, Query: knnQ(2), Exact: true}, AllowPartial: true},
		Request{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Int: new(int64)}, OrderBy: "score", Desc: true, Limit: 3},
	)
	buf := make([]byte, 0, 8)
	for qi := range reqs {
		r := &reqs[qi]
		for _, version := range []uint64{0, 1, 1 << 40} {
			want := refKey(r, version, 42)
			if got := r.fingerprint(version, 42); got != want {
				t.Fatalf("request %d at version %d: key %s, streaming reference %s", qi, version, got, want)
			}
			// A buffer too small for the tokens grows; the key is the same.
			if got := string(r.appendKey(buf, version, 42)); got != want {
				t.Fatalf("request %d at version %d: key over a small buffer %s, want %s", qi, version, got, want)
			}
		}
	}
}
