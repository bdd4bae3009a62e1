package main

// Correctness oracle: a brute-force evaluation of the request shapes
// the workloads send (equality / half-open range filter, count, first-N
// rows, top-k by a numeric field, exact knn) over the generator's own
// rows. It shares no code with the engine beyond the request types and
// the placement function recorded at load time, so an access-path or
// merge bug shows up as a mismatch, which the runner counts as a failed
// operation.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/service"
)

// maxRows mirrors the service's documented cap on projected rows.
const maxRows = 100

type oracleRow struct {
	row
	id    uint64
	shard int
}

// oracle holds every stored row in append order.
type oracle struct {
	rows []oracleRow
	byID map[uint64]int
}

func newOracle(capacity int) *oracle {
	return &oracle{rows: make([]oracleRow, 0, capacity), byID: make(map[uint64]int, capacity)}
}

func (o *oracle) add(r row, id uint64, shard int) {
	o.byID[id] = len(o.rows)
	o.rows = append(o.rows, oracleRow{row: r, id: id, shard: shard})
}

// expected is the checked part of a response: the scalar answer and,
// when the request returns rows, their ids in order.
type expected struct {
	value   int
	hasRows bool
	ids     []uint64
	dists   []float64 // knn only
}

// numeric returns the row's value of a numeric field under the
// engine's widening rule (ints compare as floats).
func (r *oracleRow) numeric(field string) (float64, error) {
	switch field {
	case "score":
		return r.score, nil
	case "rank":
		return float64(r.rank), nil
	}
	return 0, fmt.Errorf("oracle: field %q is not numeric", field)
}

func (r *oracleRow) matches(f *service.FilterSpec) (bool, error) {
	if f.Min != nil || f.Max != nil {
		v, err := r.numeric(f.Field)
		if err != nil {
			return false, err
		}
		return (f.Min == nil || v >= *f.Min) && (f.Max == nil || v < *f.Max), nil
	}
	switch {
	case f.Field == "label" && f.Str != nil:
		return r.label == *f.Str, nil
	case f.Field == "rank" && f.Int != nil:
		return r.rank == *f.Int, nil
	case f.Field == "score" && f.Float != nil:
		return r.score == *f.Float, nil
	}
	return false, fmt.Errorf("oracle: unsupported equality filter on %q", f.Field)
}

// eval computes the expected answer to req against the current rows.
func (o *oracle) eval(req *service.Request) (expected, error) {
	if req.KNN != nil {
		return o.evalKNN(req.KNN)
	}
	var sel []int
	for i := range o.rows {
		ok := true
		if req.Filter != nil {
			var err error
			if ok, err = o.rows[i].matches(req.Filter); err != nil {
				return expected{}, err
			}
		}
		if ok {
			sel = append(sel, i)
		}
	}
	exp := expected{value: len(sel)}
	if req.OrderBy == "" && req.Limit <= 0 {
		return exp, nil
	}
	exp.hasRows = true
	limit := req.Limit
	if limit <= 0 || limit > maxRows {
		limit = maxRows
	}
	if req.OrderBy != "" {
		keys := make([]float64, len(o.rows))
		for _, i := range sel {
			k, err := o.rows[i].numeric(req.OrderBy)
			if err != nil {
				return expected{}, err
			}
			keys[i] = k
		}
		// Ties resolve in row order within a shard and by shard across
		// shards; generated scores are distinct, so the rule is inert.
		sort.SliceStable(sel, func(a, b int) bool {
			ka, kb := keys[sel[a]], keys[sel[b]]
			if ka != kb {
				return (ka < kb) != req.Desc
			}
			return o.rows[sel[a]].shard < o.rows[sel[b]].shard
		})
	} else {
		// Unordered rows come back shard by shard, each shard's in
		// append order.
		sort.SliceStable(sel, func(a, b int) bool { return o.rows[sel[a]].shard < o.rows[sel[b]].shard })
	}
	if len(sel) > limit {
		sel = sel[:limit]
	}
	for _, i := range sel {
		exp.ids = append(exp.ids, o.rows[i].id)
	}
	return exp, nil
}

func (o *oracle) evalKNN(q *service.KNNSpec) (expected, error) {
	if q.Field != "emb" || len(q.Query) != embDim {
		return expected{}, fmt.Errorf("oracle: unsupported knn on %q (dim %d)", q.Field, len(q.Query))
	}
	type cand struct {
		id   uint64
		dist float64
	}
	cands := make([]cand, 0, len(o.rows))
	for i := range o.rows {
		r := &o.rows[i]
		if r.emb == nil {
			continue
		}
		var s float64
		for j, x := range r.emb {
			d := float64(x) - float64(q.Query[j])
			s += d * d
		}
		cands = append(cands, cand{r.id, math.Sqrt(s)})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].id < cands[b].id
	})
	if len(cands) > q.K {
		cands = cands[:q.K]
	}
	exp := expected{value: len(cands), hasRows: true}
	for _, c := range cands {
		exp.ids = append(exp.ids, c.id)
		exp.dists = append(exp.dists, c.dist)
	}
	return exp, nil
}

// wireResponse is the part of a /query response body the oracle checks.
type wireResponse struct {
	Value    int       `json:"value"`
	Rows     []wireRow `json:"rows"`
	CacheHit bool      `json:"cache_hit"`
}

type wireRow struct {
	ID    uint64   `json:"_id"`
	Frame uint64   `json:"_frame"`
	Label string   `json:"label"`
	Score float64  `json:"score"`
	Rank  int64    `json:"rank"`
	Dist  *float64 `json:"_dist"`
}

// check compares a /query response body against the oracle's answer
// for req. A nil error means the response is right.
func (o *oracle) check(req *service.Request, body []byte) error {
	exp, err := o.eval(req)
	if err != nil {
		return err
	}
	var got wireResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	if got.Value != exp.value {
		return fmt.Errorf("value %d, oracle says %d", got.Value, exp.value)
	}
	if !exp.hasRows {
		if len(got.Rows) != 0 {
			return fmt.Errorf("%d rows on a count-only request", len(got.Rows))
		}
		return nil
	}
	if len(got.Rows) != len(exp.ids) {
		return fmt.Errorf("%d rows, oracle says %d", len(got.Rows), len(exp.ids))
	}
	for i, wr := range got.Rows {
		if wr.ID != exp.ids[i] {
			return fmt.Errorf("row %d is id %d, oracle says %d", i, wr.ID, exp.ids[i])
		}
		r := &o.rows[o.byID[wr.ID]]
		if wr.Frame != r.frame || wr.Label != r.label || wr.Score != r.score || wr.Rank != r.rank {
			return fmt.Errorf("row %d (id %d) carries the wrong fields", i, wr.ID)
		}
		if exp.dists != nil {
			if wr.Dist == nil || math.Abs(*wr.Dist-exp.dists[i]) > 1e-9 {
				return fmt.Errorf("row %d (id %d) has the wrong distance", i, wr.ID)
			}
		}
	}
	return nil
}

// wireAppend is the checked part of an /append response body.
type wireAppend struct {
	Appended int      `json:"appended"`
	IDs      []uint64 `json:"ids"`
}

// applyAppend checks an /append response against the batch that was
// sent and, when it is right, adds the rows under their assigned ids.
func (o *oracle) applyAppend(rows []row, body []byte, shardFor func(uint64) int) error {
	var got wireAppend
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable append response: %w", err)
	}
	if got.Appended != len(rows) || len(got.IDs) != len(rows) {
		return fmt.Errorf("appended %d (%d ids), sent %d", got.Appended, len(got.IDs), len(rows))
	}
	for i, r := range rows {
		if _, dup := o.byID[got.IDs[i]]; dup {
			return fmt.Errorf("append reused id %d", got.IDs[i])
		}
		o.add(r, got.IDs[i], shardFor(got.IDs[i]))
	}
	return nil
}
