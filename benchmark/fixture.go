package main

// Fixture: the colscan generator's shape (label: 16 strings, score:
// float, rank: int), re-implemented here so every row derives from
// -seed, plus an optional 32-dim embedding for the ingest workload. The
// rows stay in bench memory after loading: the oracle evaluates every
// checked request by brute force over them.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/service"
)

const (
	collection = "bench.dets"
	source     = "bench"
	numLabels  = 16
	numRanks   = 1009
	embDim     = 32
)

// row is one generated record; frame is its position in generation
// order and doubles as the lineage frame number.
type row struct {
	frame uint64
	label string
	score float64
	rank  int64
	emb   []float32 // nil unless the workload declares the emb field
}

func labelName(i int) string { return fmt.Sprintf("cls%02d", i) }

// genRows draws n rows from rng, numbering them from first. Embeddings
// are unit-cube points: exact knn over them has no ties to speak of.
func genRows(rng *rand.Rand, first, n int, withEmb bool) []row {
	rows := make([]row, n)
	for i := range rows {
		r := row{
			frame: uint64(first + i),
			label: labelName(rng.Intn(numLabels)),
			score: rng.Float64(),
			rank:  int64(rng.Intn(numRanks)),
		}
		if withEmb {
			r.emb = make([]float32, embDim)
			for j := range r.emb {
				r.emb[j] = rng.Float32()
			}
		}
		rows[i] = r
	}
	return rows
}

func fixtureSchema(withEmb bool) core.Schema {
	s := core.Schema{
		Data: core.Pixels(0, 0),
		Fields: []core.Field{
			{Name: "label", Kind: core.KindStr},
			{Name: "score", Kind: core.KindFloat},
			{Name: "rank", Kind: core.KindInt},
		},
	}
	if withEmb {
		s.Fields = append(s.Fields, core.Field{Name: "emb", Kind: core.KindVec, VecDim: embDim})
	}
	return s
}

func (r row) patch() *core.Patch {
	p := &core.Patch{
		Ref: core.Ref{Source: source, Frame: r.frame},
		Meta: core.Metadata{
			"label": core.StrV(r.label),
			"score": core.FloatV(r.score),
			"rank":  core.IntV(r.rank),
		},
	}
	if r.emb != nil {
		p.Meta["emb"] = core.VecV(r.emb)
	}
	return p
}

// spec is the row's /append JSON shape.
func (r row) spec() service.PatchSpec {
	meta := map[string]any{"label": r.label, "score": r.score, "rank": r.rank}
	if r.emb != nil {
		meta["emb"] = r.emb
	}
	return service.PatchSpec{Source: source, Frame: r.frame, Meta: meta}
}

// backend is the storage under one service: an unsharded DB (what
// deeplens-serve opens with -shards 1) or an N-shard database.
type backend struct {
	dir    string
	db     *core.DB
	sdb    *core.Sharded
	shards int
}

func openBackend(dir string, shards int) (*backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &backend{dir: dir, shards: shards}
	var err error
	if shards > 1 {
		b.sdb, err = core.OpenSharded(dir, shards, exec.New(exec.CPU))
	} else {
		b.db, err = core.Open(filepath.Join(dir, "bench.db"), exec.New(exec.CPU))
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// load creates the collection and appends rows through core,
// returning each row's assigned id.
func (b *backend) load(rows []row, withEmb bool) ([]core.PatchID, error) {
	schema := fixtureSchema(withEmb)
	var appendFn func(*core.Patch) error
	if b.sdb != nil {
		sc, err := b.sdb.CreateCollection(collection, schema)
		if err != nil {
			return nil, err
		}
		appendFn = sc.Append
	} else {
		col, err := b.db.CreateCollection(collection, schema)
		if err != nil {
			return nil, err
		}
		appendFn = col.Append
	}
	ids := make([]core.PatchID, len(rows))
	for i, r := range rows {
		p := r.patch()
		if err := appendFn(p); err != nil {
			return nil, err
		}
		ids[i] = p.ID
	}
	return ids, nil
}

// shardFor is the row's home shard: the placement the unordered-rows
// contract (shard by shard, append order within) depends on.
func (b *backend) shardFor(id core.PatchID) int {
	if b.sdb != nil {
		return b.sdb.ShardFor(id)
	}
	return 0
}

func (b *backend) shardForID(id uint64) int { return b.shardFor(core.PatchID(id)) }

// dbs lists the per-shard databases (one for the unsharded backend).
func (b *backend) dbs() []*core.DB {
	if b.sdb == nil {
		return []*core.DB{b.db}
	}
	out := make([]*core.DB, b.shards)
	for i := range out {
		out[i] = b.sdb.Shard(i)
	}
	return out
}

// cols lists the per-shard collections in shard order.
func (b *backend) cols() ([]*core.Collection, error) {
	if b.sdb == nil {
		col, err := b.db.Collection(collection)
		if err != nil {
			return nil, err
		}
		return []*core.Collection{col}, nil
	}
	sc, err := b.sdb.Collection(collection)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Collection, b.shards)
	for i := range out {
		out[i] = sc.Shard(i)
	}
	return out, nil
}

func (b *backend) flush() error {
	if b.sdb != nil {
		return b.sdb.Flush()
	}
	return b.db.Flush()
}

// destroy closes the databases and removes their directory.
func (b *backend) destroy() error {
	var err error
	if b.sdb != nil {
		err = b.sdb.Close()
	} else {
		err = b.db.Close()
	}
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

func (b *backend) newService(cfg service.Config) (*service.Service, error) {
	if b.sdb != nil {
		return service.NewSharded(b.sdb, cfg)
	}
	return service.New(b.db, cfg)
}

// diskBytes sums the sizes of all files under the data directory.
func (b *backend) diskBytes() (int64, error) {
	var total int64
	err := filepath.Walk(b.dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
