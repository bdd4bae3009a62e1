package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/tensor"
)

// roundTripSchema draws a schema of an int, a float, a string and a
// fixed-dim vector field, each with probability 2/3, in a random order,
// over pixel payloads.
func roundTripSchema(rng *rand.Rand) Schema {
	var fs []Field
	for _, f := range []Field{{Name: "i", Kind: KindInt}, {Name: "f", Kind: KindFloat}, {Name: "s", Kind: KindStr},
		{Name: "v", Kind: KindVec, VecDim: 1 + rng.Intn(4)}} {
		if rng.Intn(3) > 0 {
			fs = append(fs, f)
		}
	}
	rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return Schema{Data: Pixels(0, 0), Fields: fs}
}

// roundTripValue draws an edge value of kind k: -0, NaN, ±Inf and ±2^53
// for floats, ±2^53, ±(2^53+1) and the extremes for ints, the empty
// string, and a vector of dim such elements (of a random length, nil and
// empty included, when dim is 0).
func roundTripValue(rng *rand.Rand, k ValueKind, dim int) Value {
	floats := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, -(1 << 53), 0.5}
	switch k {
	case KindInt:
		return IntV([]int64{0, -1, 1 << 53, -(1 << 53), 1<<53 + 1, -(1<<53 + 1), math.MinInt64, math.MaxInt64}[rng.Intn(8)])
	case KindFloat:
		return FloatV(floats[rng.Intn(len(floats))])
	case KindStr:
		return StrV([]string{"", "a", "cls07", "é\x00"}[rng.Intn(4)])
	case KindRect:
		return RectV(-0.0, 1, math.Inf(1), 2)
	}
	n := dim
	if n == 0 {
		n = rng.Intn(4) - 1
	}
	if n < 0 {
		return VecV(nil)
	}
	vec := make([]float32, n)
	for i := range vec {
		vec[i] = float32(floats[rng.Intn(len(floats))])
	}
	return VecV(vec)
}

// roundTripRow draws a builder of schema: every declared field, some
// undeclared keys of any kind, sometimes a pixel payload and sometimes a
// lineage parent.
func roundTripRow(rng *rand.Rand, schema Schema, frame int) *Patch {
	p := &Patch{Ref: Ref{Source: []string{"", "cam", "cam2"}[rng.Intn(3)], Frame: uint64(frame)}, Meta: Metadata{}}
	for _, f := range schema.Fields {
		p.Meta[f.Name] = roundTripValue(rng, f.Kind, f.VecDim)
	}
	for _, k := range []string{"!", "e", "u", "~"} {
		if rng.Intn(4) == 0 {
			p.Meta[k] = roundTripValue(rng, ValueKind(1+rng.Intn(5)), 0)
		}
	}
	if rng.Intn(4) == 0 {
		p.Data = tensor.FromU8([]uint8{1, 2, 3, 4, 5, byte(frame)}, 1, 2, 3)
	}
	if rng.Intn(3) == 0 {
		p.Ref.Parent = PatchID(1 + rng.Intn(1000))
	}
	return p
}

// FuzzCommittedRowsRoundTrip: rows of a random schema (int, float,
// string and fixed-dim vector fields at their edge values, undeclared
// keys, pixel payloads, lineage parents), appended one at a time and in
// batches to N = 1 and 3 shards of R = 1 and 2 replicas, with reopens at
// random points, read back as the rows they were. On every replica,
// each row read through Snapshot.Row, Get, Materialize, Patches and
// RowTable.View (what a service result row reads through) encodes to
// the bytes its row log holds, marshals as its builder does and answers
// Get of every key with its builder's value; so does each appended
// patch, which its commit pointed at its table row. The vector field,
// read from its slots wherever the schema puts it, gives ScanKNN and
// the vector index the points BruteKNN finds in the patches.
func FuzzCommittedRowsRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		schema := roundTripSchema(rng)
		for _, n := range []int{1, 3} {
			for _, r := range []int{1, 2} {
				runRoundTrip(t, rng, schema, n, r)
			}
		}
	})
}

func runRoundTrip(t *testing.T, rng *rand.Rand, schema Schema, n, r int) {
	dir := t.TempDir()
	open := func() (*Sharded, *ShardedCollection) {
		s, err := OpenShardedReplicas(dir, n, r, exec.New(exec.CPU))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := s.Collection("rt")
		if err != nil {
			if sc, err = s.CreateCollection("rt", schema); err != nil {
				t.Fatal(err)
			}
		}
		return s, sc
	}
	s, sc := open()
	want := map[PatchID]*Patch{}
	var appended []*Patch
	frame, reopenAt := 0, rng.Intn(6)
	for step := 0; step < 6; step++ {
		if step == reopenAt {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, sc = open()
		}
		batch := make([]*Patch, 1+rng.Intn(70))
		if rng.Intn(3) == 0 {
			batch = batch[:1]
		}
		builders := make([]*Patch, len(batch))
		for i := range batch {
			frame++
			batch[i] = roundTripRow(rng, schema, frame)
			b := *batch[i]
			b.Meta = maps.Clone(b.Meta)
			builders[i] = &b
		}
		var err error
		if len(batch) == 1 {
			err = sc.Append(batch[0])
		} else {
			_, err = sc.AppendBatch(batch)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range batch {
			builders[i].ID = p.ID
			want[p.ID] = builders[i]
		}
		appended = append(appended, batch...)
	}
	defer s.Close()
	for _, p := range appended {
		if err := sameAsBuilder(p, want[p.ID]); err != nil {
			t.Fatalf("N=%d R=%d: appended row %d: %v", n, r, p.ID, err)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < r; j++ {
			col := sc.Replica(i, j)
			snap, err := col.Current()
			if err != nil {
				t.Fatal(err)
			}
			stored := storedRows(t, col)
			if len(stored) != snap.Len() {
				t.Fatalf("N=%d R=%d shard %d replica %d: %d rows, its log %d", n, r, i, j, snap.Len(), len(stored))
			}
			all := snap.Patches()
			for at := 0; at < snap.Len(); at++ {
				id := snap.Table().ID(at)
				got, err := snap.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				var view Patch
				snap.Table().View(at, &view)
				for _, p := range []*Patch{snap.Row(at), got, snap.Materialize([]int32{int32(at)})[0], all[at], &view} {
					if raw, err := col.codec.encode(p); err != nil || !bytes.Equal(raw, stored[id]) {
						t.Fatalf("N=%d R=%d shard %d replica %d row %d encodes to %x (%v), its log holds %x",
							n, r, i, j, at, raw, err, stored[id])
					}
					if err := sameAsBuilder(p, want[id]); err != nil {
						t.Fatalf("N=%d R=%d shard %d replica %d row %d: %v", n, r, i, j, at, err)
					}
				}
				delete(stored, id)
			}
			if f := schema.FieldNamed("v"); f != nil {
				assertVectorReads(t, snap, all, f.VecDim, rng)
			}
		}
	}
	if sc.Len() != len(want) {
		t.Fatalf("N=%d R=%d: %d rows, %d appended", n, r, sc.Len(), len(want))
	}
}

// sameAsBuilder reports how committed row p differs from the builder it
// was appended as: its identity and payload, its Marshal bytes, Get of
// every key (the lineage keys from Ref, an absent key absent) and its
// entry count.
func sameAsBuilder(p, b *Patch) error {
	if err := samePatch(p, committedForm(b)); err != nil {
		return err
	}
	if !bytes.Equal(p.Marshal(), b.Marshal()) {
		return fmt.Errorf("Marshal %x, the builder's %x", p.Marshal(), b.Marshal())
	}
	for k, v := range b.Meta {
		if got, ok := p.Get(k); !ok || !sameValue(got, v) {
			return fmt.Errorf("Get(%q) = %+v, %v; the builder holds %+v", k, got, ok, v)
		}
	}
	if v, ok := p.Get(frameKey); !ok || v.Int() != int64(b.Ref.Frame) {
		return fmt.Errorf("Get(_frame) = %+v, %v, Ref.Frame %d", v, ok, b.Ref.Frame)
	}
	if v, ok := p.Get(sourceKey); !ok || v.Str() != b.Ref.Source {
		return fmt.Errorf("Get(_source) = %+v, %v, Ref.Source %q", v, ok, b.Ref.Source)
	}
	if _, ok := p.Get("absent"); ok {
		return fmt.Errorf("Get(absent) found a value")
	}
	if n := len(rangePairs(p)); n != len(b.Meta)+2 {
		return fmt.Errorf("Range yields %d entries, the builder %d and the lineage keys", n, len(b.Meta))
	}
	return nil
}

// assertVectorReads checks the reads of the declared vector field "v"
// of dim elements against the patches all of snap: ScanKNN of a random
// query answers what BruteKNN over the patches does, distance bits
// included, and a vector index holds every row's point.
func assertVectorReads(t *testing.T, snap Snapshot, all []*Patch, dim int, rng *rand.Rand) {
	t.Helper()
	q := make([]float32, dim)
	for i := range q {
		q[i] = rng.Float32()
	}
	want, got := BruteKNN(all, "v", q, 5), snap.ScanKNN("v", q, 5)
	if len(got) != len(want) {
		t.Fatalf("ScanKNN: %d neighbors, BruteKNN %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("ScanKNN neighbor %d: %+v, BruteKNN %+v", i, got[i], want[i])
		}
	}
	vi, err := NewVectorIndex(snap, "v")
	if err != nil {
		t.Fatal(err)
	}
	if vi.Len() != snap.Len() || (snap.Len() > 0 && vi.Dim() != dim) {
		t.Fatalf("a vector index over %d rows holds %d points of dimension %d, want %d", snap.Len(), vi.Len(), vi.Dim(), dim)
	}
}
