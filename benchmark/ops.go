package main

// Workloads and their seed-derived op lists. A round is a fixed list of
// operations, not a duration: the same (workload, seed, seconds) always
// sends byte-identical requests in the same order, so every count the
// benchmark reports repeats exactly and only the clock varies.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/service"
)

type opKind uint8

const (
	opQuery opKind = iota
	opAppend
)

// op is one request: the bytes the handler receives, plus the decoded
// form the direct-call pass, the layer probes and the oracle use.
type op struct {
	kind  opKind
	shape string // request shape; names the op's spans
	body  []byte
	query service.Request       // opQuery
	app   service.AppendRequest // opAppend
	rows  []row                 // opAppend: the batch sent
}

func (o *op) path() string {
	if o.kind == opAppend {
		return "/append"
	}
	return "/query"
}

// workload is one fixture + service configuration + request mix.
type workload struct {
	name      string
	why       string
	rows      int
	shards    int
	withEmb   bool
	cached    bool  // the working set is meant to stay in the result cache
	memBudget int64 // service.Config.ColumnMemBudget
	// unitsPerSec calibrates the fixed work: timed units (ops, or
	// append+8-query cycles for ingest_live) per second of -seconds on
	// the reference 2-vCPU sandbox.
	unitsPerSec float64
	// round appends one round of n units to the generator's state.
	round func(g *opGen, n int) []*op
}

const appendBatch = 64

var workloads = []*workload{
	{
		name: "cached_point",
		why:  "Zipf repeats over 256 requests that fit the result cache: decode, fingerprint, cache and encode do the work, core and kv almost none",
		rows: 60000, shards: 1, cached: true, unitsPerSec: 9000,
		round: (*opGen).cachedPointRound,
	},
	{
		name: "scan_inmem",
		why:  "distinct no_cache scans over 3 shards, columns in memory: core column scan, top-k and service scatter-merge dominate, storage idle",
		rows: 200000, shards: 3, unitsPerSec: 750,
		round: (*opGen).scanRound,
	},
	{
		name: "scan_tiered",
		why:  "the scan_inmem requests under a segment budget a quarter of the column footprint: segment cache, kv pager and colseg decode dominate",
		rows: 200000, shards: 3, memBudget: 1_200_000, unitsPerSec: 260,
		round: (*opGen).scanRound,
	},
	{
		name: "ingest_live",
		why:  "64-row appends interleaved with column, use_index, knn and repeated reads: every cycle bumps the version and forces extend-or-rebuild of every index",
		rows: 12000, shards: 1, withEmb: true, unitsPerSec: 4,
		round: (*opGen).ingestRound,
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opGen derives op lists from the seed. One generator serves a whole
// run so appended rows keep numbering on from the fixture.
type opGen struct {
	rng       *rand.Rand
	nextFrame int
	withEmb   bool
	// cached_point's fixed request pools and their popularity draws.
	points, ranges       []*op
	pointZipf, rangeZipf *rand.Zipf
}

func newOpGen(seed int64, w *workload, rows int) *opGen {
	// Offset from the fixture's stream so rows and requests are
	// independent draws of the same seed.
	return &opGen{rng: rand.New(rand.NewSource(seed ^ 0x5eed0b5)), nextFrame: rows, withEmb: w.withEmb}
}

func ptr[T any](v T) *T { return &v }

func queryOp(shape string, req service.Request) *op {
	req.Collection = collection
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("benchmark: marshal %s request: %v", shape, err)) // plain structs: cannot fail
	}
	return &op{kind: opQuery, shape: shape, body: body, query: req}
}

func (g *opGen) rankEq(noCache bool) *op {
	return queryOp("rank_eq", service.Request{
		Filter:  &service.FilterSpec{Field: "rank", Int: ptr(int64(g.rng.Intn(numRanks)))},
		Limit:   20,
		NoCache: noCache,
	})
}

const scoreWidth = 0.02

func (g *opGen) scoreRangeTopK(noCache bool) *op {
	lo := g.rng.Float64() * (1 - scoreWidth)
	return queryOp("score_range_topk", service.Request{
		Filter:  &service.FilterSpec{Field: "score", Min: ptr(lo), Max: ptr(lo + scoreWidth)},
		OrderBy: "score",
		Limit:   10,
		NoCache: noCache,
	})
}

func (g *opGen) labelEq(limit int, noCache bool) *op {
	shape := "label_eq"
	if limit == 0 {
		shape = "label_eq_count"
	}
	return queryOp(shape, service.Request{
		Filter:  &service.FilterSpec{Field: "label", Str: ptr(labelName(g.rng.Intn(numLabels)))},
		Limit:   limit,
		NoCache: noCache,
	})
}

// rankRangeCount covers ~30% of rows and returns only the count.
func (g *opGen) rankRangeCount(noCache bool) *op {
	const width = numRanks * 3 / 10
	lo := float64(g.rng.Intn(numRanks - width))
	return queryOp("rank_range_count", service.Request{
		Filter:  &service.FilterSpec{Field: "rank", Min: ptr(lo), Max: ptr(lo + width)},
		NoCache: noCache,
	})
}

// cachedPointRound draws n ops from 256 fixed requests: 70% from the
// rank-equality pool, 30% from the score-range pool, Zipf(1.1) within
// each, so the whole working set stays in the result cache.
func (g *opGen) cachedPointRound(n int) []*op {
	if g.points == nil {
		const total, nRanges = 256, 77
		for _, rank := range g.rng.Perm(numRanks)[:total-nRanges] { // distinct ranks
			g.points = append(g.points, queryOp("rank_eq", service.Request{
				Filter: &service.FilterSpec{Field: "rank", Int: ptr(int64(rank))},
				Limit:  20,
			}))
		}
		for i := 0; i < nRanges; i++ {
			g.ranges = append(g.ranges, g.scoreRangeTopK(false))
		}
		g.pointZipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(g.points)-1))
		g.rangeZipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(g.ranges)-1))
	}
	ops := make([]*op, n)
	for i := range ops {
		if g.rng.Float64() < 0.7 {
			ops[i] = g.points[g.pointZipf.Uint64()]
		} else {
			ops[i] = g.ranges[g.rangeZipf.Uint64()]
		}
	}
	return ops
}

// scanRound draws n distinct uncached scans: 60% narrow score range +
// top-10, 25% label equality + first 20 rows, 15% wide rank range
// count. no_cache because the 16-value label shape would otherwise hit.
// The mix is dealt in shuffled blocks of 20 so every seed sends the same
// number of each shape and per-op counts do not vary with the draw.
func (g *opGen) scanRound(n int) []*op {
	ops := make([]*op, 0, n)
	for len(ops) < n {
		for _, slot := range g.rng.Perm(20) {
			if len(ops) == n {
				break
			}
			switch {
			case slot < 12:
				ops = append(ops, g.scoreRangeTopK(true))
			case slot < 17:
				ops = append(ops, g.labelEq(20, true))
			default:
				ops = append(ops, g.rankRangeCount(true))
			}
		}
	}
	return ops
}

// cycleQueries is the number of /query ops after each /append.
const cycleQueries = 8

// ingestRound emits n cycles of one 64-row /append followed by eight
// reads: three column filters (the first pays the column extend), two
// use_index filters (each rebuilds its index at the new version), two
// exact knn probes pinned to the vector index (the first pays its extend) and a
// repeat of the cycle's first filter (the cycle's only cache hit).
func (g *opGen) ingestRound(n int) []*op {
	ops := make([]*op, 0, n*(1+cycleQueries))
	for c := 0; c < n; c++ {
		ops = append(ops, g.appendOp())
		first := g.rankEq(false)
		hashEq := queryOp("hash_eq", service.Request{
			Filter: &service.FilterSpec{Field: "rank", Int: ptr(int64(g.rng.Intn(numRanks))), UseIndex: true},
		})
		lo := g.rng.Float64() * (1 - scoreWidth)
		btreeRange := queryOp("btree_range", service.Request{
			Filter: &service.FilterSpec{Field: "score", Min: ptr(lo), Max: ptr(lo + scoreWidth), UseIndex: true},
		})
		ops = append(ops, first, g.scoreRangeTopK(false), g.labelEq(0, false), hashEq, btreeRange, g.knn(), g.knn())
		ops = append(ops, &op{kind: opQuery, shape: "repeat", body: first.body, query: first.query})
	}
	return ops
}

func (g *opGen) knn() *op {
	q := make([]float32, embDim)
	for i := range q {
		q[i] = g.rng.Float32()
	}
	return queryOp("knn", service.Request{KNN: &service.KNNSpec{Field: "emb", K: 10, Query: q, Exact: true, UseIndex: true}})
}

func (g *opGen) appendOp() *op {
	rows := genRows(g.rng, g.nextFrame, appendBatch, g.withEmb)
	g.nextFrame += len(rows)
	wire := service.AppendRequest{Collection: collection, Patches: make([]service.PatchSpec, len(rows))}
	for i, r := range rows {
		wire.Patches[i] = r.spec()
	}
	body, err := json.Marshal(wire)
	o := &op{kind: opAppend, shape: "append", body: body, rows: rows}
	if err == nil {
		// The direct-call pass hands Service.Append what the handler
		// would have decoded, not the typed values marshalled above.
		err = json.Unmarshal(body, &o.app)
	}
	if err != nil {
		panic(fmt.Sprintf("benchmark: encode append request: %v", err)) // plain structs: cannot fail
	}
	return o
}
