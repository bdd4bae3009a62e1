package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// meta is p's value under name, the zero Value when p lacks it.
func meta(p *core.Patch, name string) core.Value {
	v, _ := p.Get(name)
	return v
}

// QueryResult is one benchmark-query execution.
type QueryResult struct {
	Query    string
	Plan     string
	Duration time.Duration
	// Value is the query's answer (count, pair count, trajectory length,
	// frame index — query dependent).
	Value int
	// DistEvals counts the vector distances q1 and q4 evaluate: n(n−1)/2
	// for the nested loop, the index probes' RangeSearch counts tuned.
	DistEvals int
	// Columns is what the column store q3 and q5 scan took on the clock:
	// RefreshHit when it was built before the query started.
	Columns core.Refresh
	// RowsScanned counts the rows q5's column scan swept.
	RowsScanned int
	// RowsExamined counts the detection rows q3 examines: one GetPatch
	// per hit on the lineage arm, the rows compared up to each match on
	// the rescan arm.
	RowsExamined int
}

// Matching thresholds, tuned once against the generators and shared by
// baseline and optimized plans so both compute the same logical query.
const (
	// q1: near-duplicate threshold on whole-image embeddings.
	epsNearDup = 0.066
	// q4: same-pedestrian threshold on detection embeddings.
	epsSameIdentity = 0.15
	// q6: required depth separation for "behind".
	depthGap = 1.0
)

// --------------------------------------------------------------- q1 ----

// Q1 finds all near-duplicate pairs in the PC dataset. The baseline
// compares all image pairs; the tuned plan probes a prebuilt ball tree
// (the collection's exact-mode vector index) over the embeddings.
func (e *Env) Q1(useIndex bool) (QueryResult, error) {
	col, err := e.DB.Collection(ColPCImages)
	if err != nil {
		return QueryResult{}, err
	}
	snap, err := col.Current()
	if err != nil {
		return QueryResult{}, err
	}
	ps := snap.Patches()
	opts := core.SimilarityJoinOpts{LeftField: "ghist", RightField: "ghist",
		Eps: epsNearDup, DedupUnordered: true}
	// Index construction is physical design, amortized across queries
	// (§7.2 separates it from query time; Figure 5 adds it back).
	var vi *core.VectorIndex
	if useIndex {
		if vi, err = snap.VectorIndex("ghist", core.VecExact); err != nil {
			return QueryResult{}, err
		}
	}
	start := time.Now()
	var pairs []core.Tuple
	plan := "nested-loop all-pairs"
	evals := len(ps) * (len(ps) - 1) / 2
	if useIndex {
		pairs, evals, err = core.SimilarityJoinVecIndexed(ps, vi, opts)
		if err != nil {
			return QueryResult{}, err
		}
		plan = "prebuilt ball tree probe"
	} else {
		pairs, err = core.SimilarityJoinNested(ps, ps, opts)
		if err != nil {
			return QueryResult{}, err
		}
	}
	return QueryResult{Query: "q1", Plan: plan, Duration: time.Since(start), Value: len(pairs),
		DistEvals: evals}, nil
}

// Q1Accuracy evaluates q1's pairs against the generator's planted
// near-duplicates.
func (e *Env) Q1Accuracy() (recall, precision float64, err error) {
	col, err := e.DB.Collection(ColPCImages)
	if err != nil {
		return 0, 0, err
	}
	ps, err := col.Patches()
	if err != nil {
		return 0, 0, err
	}
	pairs, err := core.SimilarityJoinNested(ps, ps, core.SimilarityJoinOpts{
		LeftField: "ghist", RightField: "ghist", Eps: epsNearDup, DedupUnordered: true})
	if err != nil {
		return 0, 0, err
	}
	truth := map[[2]int]bool{}
	for _, p := range e.PC.NearDupPairs {
		truth[[2]int{p[0], p[1]}] = true
	}
	tp := 0
	for _, pr := range pairs {
		a := int(meta(pr[0], "frameno").Int())
		b := int(meta(pr[1], "frameno").Int())
		if a > b {
			a, b = b, a
		}
		if truth[[2]int{a, b}] {
			tp++
		}
	}
	if len(truth) == 0 {
		return 1, 1, nil
	}
	recall = float64(tp) / float64(len(truth))
	precision = 1
	if len(pairs) > 0 {
		precision = float64(tp) / float64(len(pairs))
	}
	return recall, precision, nil
}

// --------------------------------------------------------------- q2 ----

// Q2 counts frames with at least one vehicle. The tuned plan uses a hash
// index on the label; the baseline scans.
func (e *Env) Q2(useIndex bool) (QueryResult, error) {
	col, err := e.DB.Collection(ColTrafficDets)
	if err != nil {
		return QueryResult{}, err
	}
	method := core.FilterScan
	plan := "scan filter label=car + distinct frameno"
	if useIndex {
		method = core.FilterHashIndex
		if !e.DB.HasIndex(col, "label", core.IdxHash) {
			if _, err := e.DB.BuildIndex(col, "label", core.IdxHash); err != nil {
				return QueryResult{}, err
			}
		}
		plan = "hash-index label=car + distinct frameno"
	}
	start := time.Now()
	cars, err := e.DB.ExecuteFilter(col, "label", core.StrV("car"), method)
	if err != nil {
		return QueryResult{}, err
	}
	frames := map[int64]bool{}
	for _, p := range cars {
		frames[meta(p, "frameno").Int()] = true
	}
	return QueryResult{Query: "q2", Plan: plan, Duration: time.Since(start), Value: len(frames)}, nil
}

// Q2Accuracy compares the detected vehicle-frame set to ground truth.
func (e *Env) Q2Accuracy() (accuracy float64, err error) {
	res, err := e.Q2(false)
	if err != nil {
		return 0, err
	}
	_ = res
	col, err := e.DB.Collection(ColTrafficDets)
	if err != nil {
		return 0, err
	}
	cars, err := e.DB.ExecuteFilter(col, "label", core.StrV("car"), core.FilterScan)
	if err != nil {
		return 0, err
	}
	pred := map[int]bool{}
	for _, p := range cars {
		pred[int(meta(p, "frameno").Int())] = true
	}
	agree := 0
	for t := 0; t < e.Traffic.Frames; t++ {
		if pred[t] == e.Traffic.VehiclePresent(t) {
			agree++
		}
	}
	return float64(agree) / float64(e.Traffic.Frames), nil
}

// --------------------------------------------------------------- q3 ----

// Q3 tracks the target player's trajectory: jersey-number words matching
// the target are related back to their generating detection patch. The
// baseline re-scans the detection collection per word, matching by frame
// and bbox containment in pixel coordinates (the "rescan the base data"
// plan); the tuned plan follows the indexed lineage pointer.
func (e *Env) Q3(useLineage bool) (QueryResult, error) {
	words, err := e.DB.Collection(ColFBWords)
	if err != nil {
		return QueryResult{}, err
	}
	dets, err := e.DB.Collection(ColFBDets)
	if err != nil {
		return QueryResult{}, err
	}
	target := core.StrV(e.Football.TargetJersey)
	start := time.Now()
	_, cols, err := words.ColumnsWithInfo()
	if err != nil {
		return QueryResult{}, err
	}
	hits, err := e.DB.ExecuteFilter(words, "text", target, core.FilterColumnScan)
	if err != nil {
		return QueryResult{}, err
	}
	trajectory, examined := 0, 0
	if useLineage {
		// Tuned: lineage pointer resolves the generating detection in O(1).
		for _, w := range hits {
			if w.Ref.Parent == 0 {
				continue
			}
			examined++
			if _, err := e.DB.GetPatch(w.Ref.Parent); err == nil {
				trajectory++
			}
		}
		dur := time.Since(start)
		return QueryResult{Query: "q3", Plan: "lineage-pointer join", Duration: dur, Value: trajectory,
			Columns: cols.Refresh, RowsExamined: examined}, nil
	}
	// Baseline: nested-loop rematch on (clip, frame, containment).
	detPs, err := dets.Patches()
	if err != nil {
		return QueryResult{}, err
	}
	for _, w := range hits {
		wb := meta(w, "bbox").Vec()
		for _, d := range detPs {
			examined++
			if meta(d, "clip").Int() != meta(w, "clip").Int() ||
				meta(d, "frameno").Int() != meta(w, "frameno").Int() {
				continue
			}
			db := meta(d, "bbox").Vec()
			if wb[0] >= db[0]-1 && wb[1] >= db[1]-1 && wb[2] <= db[2]+1 && wb[3] <= db[3]+1 {
				trajectory++
				break
			}
		}
	}
	return QueryResult{Query: "q3", Plan: "rescan base detections", Duration: time.Since(start), Value: trajectory,
		Columns: cols.Refresh, RowsExamined: examined}, nil
}

// Q3Accuracy measures how much of the target's ground-truth trajectory
// the tracked boxes recover (fraction of visible-target frames with a
// matching tracked detection).
func (e *Env) Q3Accuracy() (float64, error) {
	words, err := e.DB.Collection(ColFBWords)
	if err != nil {
		return 0, err
	}
	hits, err := e.DB.ExecuteFilter(words, "text", core.StrV(e.Football.TargetJersey), core.FilterColumnScan)
	if err != nil {
		return 0, err
	}
	got := map[[2]int]bool{} // (clip, frame) tracked
	for _, w := range hits {
		got[[2]int{int(meta(w, "clip").Int()), int(meta(w, "frameno").Int())}] = true
	}
	total, covered := 0, 0
	for c := range e.Football.Clips {
		traj := e.Football.TargetTrajectory(c)
		for t := range traj {
			total++
			if got[[2]int{c, t}] {
				covered++
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("bench: empty ground-truth trajectory")
	}
	return float64(covered) / float64(total), nil
}

// --------------------------------------------------------------- q4 ----

// Q4 counts distinct pedestrians. Plans (Table 1 and Figure 4):
//   - baseline: scan filter, then nested-loop all-pairs matching;
//   - tuned: materialized pedestrian view, then prebuilt-ball-tree matching.
func (e *Env) Q4(useIndex bool) (QueryResult, error) {
	col, err := e.DB.Collection(ColTrafficDets)
	if err != nil {
		return QueryResult{}, err
	}
	opts := core.SimilarityJoinOpts{LeftField: "emb", RightField: "emb",
		Eps: epsSameIdentity, DedupUnordered: true}
	if useIndex {
		// Tuned physical design (amortized, as in Figure 4): materialize
		// the pedestrian view and build a ball tree (its exact-mode vector
		// index) over its embeddings — the hand-selected design the paper
		// compares against the index-free baseline.
		view, err := e.pedestrianView(col)
		if err != nil {
			return QueryResult{}, err
		}
		snap, err := view.Current()
		if err != nil {
			return QueryResult{}, err
		}
		vi, err := snap.VectorIndex("emb", core.VecExact)
		if err != nil {
			return QueryResult{}, err
		}
		start := time.Now()
		peds := snap.Patches()
		pairs, evals, err := core.SimilarityJoinVecIndexed(peds, vi, opts)
		if err != nil {
			return QueryResult{}, err
		}
		distinct := dropSmall(core.Clusters(peds, pairs), minClusterSize)
		return QueryResult{Query: "q4", Plan: "materialized view + prebuilt ball-tree match",
			Duration: time.Since(start), Value: len(distinct), DistEvals: evals}, nil
	}
	start := time.Now()
	peds, err := e.DB.ExecuteFilter(col, "label", core.StrV("pedestrian"), core.FilterScan)
	if err != nil {
		return QueryResult{}, err
	}
	pairs, err := core.SimilarityJoinNested(peds, peds, opts)
	if err != nil {
		return QueryResult{}, err
	}
	// Singleton clusters are one-off detection noise, not identities; q4
	// drops them exactly as Table 1's plans do.
	distinct := dropSmall(core.Clusters(peds, pairs), minClusterSize)
	return QueryResult{Query: "q4", Plan: "scan filter + nested-loop match",
		Duration: time.Since(start), Value: len(distinct), DistEvals: len(peds) * (len(peds) - 1) / 2}, nil
}

// pedestrianView returns (materializing on first use) the filtered view
// of pedestrian detections — q4's tuned physical design.
func (e *Env) pedestrianView(col *core.Collection) (*core.Collection, error) {
	const name = "traffic.peds"
	if v, err := e.DB.Collection(name); err == nil {
		return v, nil
	}
	peds, err := e.DB.ExecuteFilter(col, "label", core.StrV("pedestrian"), core.FilterColumnScan)
	if err != nil {
		return nil, err
	}
	// Clone patches so ids stay unique across collections.
	it := core.Transform(core.FromPatches(peds), func(p *core.Patch) ([]*core.Patch, error) {
		q := p.Clone()
		q.ID = 0 // reassign in the view
		return []*core.Patch{q}, nil
	})
	return e.DB.Materialize(name, col.Schema(), it)
}

// --------------------------------------------------------------- q5 ----

// Q5 looks up the first PC image containing a target string. No available
// index helps this predicate in the paper's tuned design, so it has one
// plan, which both Figure 4 arms run: a column scan of the OCR words.
func (e *Env) Q5(target string) (QueryResult, error) {
	words, err := e.DB.Collection(ColPCWords)
	if err != nil {
		return QueryResult{}, err
	}
	start := time.Now()
	_, cols, err := words.ColumnsWithInfo()
	if err != nil {
		return QueryResult{}, err
	}
	snap, err := words.Current()
	if err != nil {
		return QueryResult{}, err
	}
	pred := core.Pred{Field: "text", V: core.StrV(target)}
	first := core.Keep{Kind: core.KeepTop, N: 1, Field: "frameno"}
	s, err := snap.Select(context.Background(), pred, core.FilterColumnScan, first)
	if err != nil {
		return QueryResult{}, err
	}
	frame := -1
	if len(s.Sel) > 0 {
		frame = int(meta(snap.Row(int(s.Sel[0])), "frameno").Int())
	}
	plan := "scan filter text + min frameno"
	return QueryResult{Query: "q5", Plan: plan, Duration: time.Since(start), Value: frame, Columns: cols.Refresh, RowsScanned: s.Scan.RowsScanned}, nil
}

// Q5Truth returns the ground-truth first image index containing target.
func (e *Env) Q5Truth(target string) int {
	for i, im := range e.PC.Images {
		for _, w := range im.Words {
			if w == target {
				return i
			}
		}
	}
	return -1
}

// --------------------------------------------------------------- q6 ----

// Q6 finds pedestrian pairs (p1 behind p2) within each frame. The
// baseline runs a per-frame nested-loop θ-join; the tuned plan sorts each
// frame's pedestrians by depth and range-scans (plus the indexed filter).
func (e *Env) Q6(useIndex bool) (QueryResult, error) {
	col, err := e.DB.Collection(ColTrafficDets)
	if err != nil {
		return QueryResult{}, err
	}
	if useIndex && !e.DB.HasIndex(col, "label", core.IdxHash) {
		if _, err := e.DB.BuildIndex(col, "label", core.IdxHash); err != nil {
			return QueryResult{}, err
		}
	}
	start := time.Now()
	var peds []*core.Patch
	if useIndex {
		peds, err = e.DB.ExecuteFilter(col, "label", core.StrV("pedestrian"), core.FilterHashIndex)
	} else {
		peds, err = e.DB.ExecuteFilter(col, "label", core.StrV("pedestrian"), core.FilterScan)
	}
	if err != nil {
		return QueryResult{}, err
	}
	byFrame := map[int64][]*core.Patch{}
	for _, p := range peds {
		f := meta(p, "frameno").Int()
		byFrame[f] = append(byFrame[f], p)
	}
	pairs := 0
	if useIndex {
		for _, group := range byFrame {
			out, err := core.RangeThetaJoinSorted(group, group, "depth", depthGap)
			if err != nil {
				return QueryResult{}, err
			}
			pairs += len(out)
		}
		return QueryResult{Query: "q6", Plan: "hash filter + per-frame sorted range join",
			Duration: time.Since(start), Value: pairs}, nil
	}
	for _, group := range byFrame {
		for _, a := range group {
			for _, b := range group {
				if a.ID != b.ID && meta(a, "depth").Float() > meta(b, "depth").Float()+depthGap {
					pairs++
				}
			}
		}
	}
	return QueryResult{Query: "q6", Plan: "scan filter + nested θ-join",
		Duration: time.Since(start), Value: pairs}, nil
}

// RunAll executes every query in both physical designs, returning
// (baseline, tuned) pairs keyed by query name. Each arm is timed once,
// so the column stores the queries scan are built first: otherwise the
// first arm to scan a collection pays its projection on the clock.
func (e *Env) RunAll() (map[string][2]QueryResult, error) {
	if err := e.buildColumns(); err != nil {
		return nil, err
	}
	out := map[string][2]QueryResult{}
	target := e.PC.Vocabulary[0]
	type runner struct {
		name string
		fn   func(bool) (QueryResult, error)
	}
	runners := []runner{
		{"q1", e.Q1},
		{"q2", e.Q2},
		{"q3", e.Q3},
		{"q4", e.Q4},
		{"q5", func(bool) (QueryResult, error) { return e.Q5(target) }},
		{"q6", e.Q6},
	}
	for _, r := range runners {
		base, err := r.fn(false)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", r.name, err)
		}
		tuned, err := r.fn(true)
		if err != nil {
			return nil, fmt.Errorf("%s tuned: %w", r.name, err)
		}
		out[r.name] = [2]QueryResult{base, tuned}
	}
	return out, nil
}

// buildColumns projects every declared field of every collection into
// its column store: a field no column holds (a vector) costs one look.
func (e *Env) buildColumns() error {
	for _, name := range e.DB.Collections() {
		col, err := e.DB.Collection(name)
		if err != nil {
			return err
		}
		cs, err := col.Columns()
		if err != nil {
			return err
		}
		for _, f := range col.Schema().Fields {
			cs.Column(f.Name)
		}
	}
	return nil
}
