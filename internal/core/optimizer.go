package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/exec"
)

// This file is the visual query optimizer (§5.1 future work, §7.4): a
// cost-based physical planner over the engine's alternative operator
// implementations. The paper's central observations are encoded here:
// non-linear index-join costs (Figure 7), device placement with
// launch/transfer overheads (Figure 8), and the accuracy implications of
// plan order (Table 1), which the planner surfaces rather than hides.

// SimMethod is a physical implementation of the similarity join.
type SimMethod int

// Similarity-join physical operators.
const (
	SimNested     SimMethod = iota + 1 // all pairs, scalar
	SimBatched                         // all pairs, device-batched distance matrix
	SimOnTheFly                        // build ball tree on smaller side, probe
	SimIndexed                         // probe a prebuilt ball tree
	SimVecIndexed                      // probe the maintained per-collection vector index
)

func (m SimMethod) String() string {
	switch m {
	case SimNested:
		return "nested-loop"
	case SimBatched:
		return "batched-all-pairs"
	case SimOnTheFly:
		return "on-the-fly-balltree"
	case SimIndexed:
		return "prebuilt-balltree"
	case SimVecIndexed:
		return "join-index"
	default:
		return fmt.Sprintf("sim(%d)", int(m))
	}
}

// CostModel holds calibrated per-operation constants (seconds). The
// defaults are measured on the reference container; Calibrate refines the
// scalar-distance constant at runtime.
type CostModel struct {
	// CDist is the cost of one scalar distance component (per dimension).
	CDist float64
	// CDevFlop is the per-FLOP cost on each device for batched kernels.
	CDevFlop map[exec.Kind]float64
	// DevOverhead is the per-kernel fixed cost on each device.
	DevOverhead map[exec.Kind]time.Duration
	// CBuild scales ball-tree construction (per element per dim per log n).
	CBuild float64
	// ProbeAlpha captures the super-logarithmic growth of ball-tree probes
	// as the indexed relation grows (Figure 7's non-linearity): probe cost
	// multiplies by (n/1000)^ProbeAlpha beyond 1000 elements.
	ProbeAlpha float64
	// DimPenalty inflates ball-tree probe cost per dimension beyond 8
	// (pruning weakens in high dimensions).
	DimPenalty float64
	// CFetch is the cost of fetching one patch by id during index joins.
	CFetch float64

	// Observed per-unit costs (seconds) of executed access paths, fed
	// back by ObserveFilter and ObserveKNN. When a path has enough
	// samples, ObservedFilterCost, PlanFilter and PlanKNN price from these
	// instead of the shipped constants — the planner and the serving
	// layer's admission gate then quote the same observed-latency source.
	obsMu sync.Mutex
	obs   map[obsKey]*unitObs
}

// obsKey identifies one access path for observation feedback: the
// operator ('f' filter, 'k' kNN), its physical method and, for the kNN
// index, the access mode (zero everywhere else).
type obsKey struct {
	op     byte
	method int
	mode   VecIndexMode
}

func knnObsKey(method KNNMethod, mode VecIndexMode) obsKey {
	if method == KNNScan {
		mode = 0
	}
	return obsKey{'k', int(method), mode}
}

// unitObs is one access path's measured per-unit cost.
type unitObs struct {
	perUnit float64 // EWMA, seconds per work unit
	samples int64
}

// observe folds one execution's latency into key's per-unit EWMA.
// Zero-unit or zero-duration observations are ignored.
func (cm *CostModel) observe(key obsKey, units float64, dur time.Duration) {
	if units <= 0 || dur <= 0 {
		return
	}
	per := dur.Seconds() / units
	cm.obsMu.Lock()
	defer cm.obsMu.Unlock()
	if cm.obs == nil {
		cm.obs = make(map[obsKey]*unitObs)
	}
	ob := cm.obs[key]
	if ob == nil {
		cm.obs[key] = &unitObs{perUnit: per, samples: 1}
		return
	}
	ob.perUnit += filterObsAlpha * (per - ob.perUnit)
	ob.samples++
}

// observed reports key's measured per-unit cost and whether enough
// samples back it to be trusted in planning.
func (cm *CostModel) observed(key obsKey) (float64, bool) {
	cm.obsMu.Lock()
	defer cm.obsMu.Unlock()
	ob := cm.obs[key]
	if ob == nil || ob.samples < minFilterObs {
		return 0, false
	}
	return ob.perUnit, true
}

const (
	// filterObsAlpha is the EWMA weight of each new observation.
	filterObsAlpha = 0.2
	// minFilterObs is how many observations an access path needs before
	// its measured cost overrides the static constants in planning.
	minFilterObs = 8
	// estFilterSelectivity is the planner's matched-rows guess for an
	// equality probe when no statistics exist: 1/16 of the relation,
	// floored at one row.
	estFilterSelectivity = 16
)

// DefaultCostModel returns constants calibrated against the reference
// environment.
func DefaultCostModel() *CostModel {
	return &CostModel{
		CDist: 1.2e-9,
		CDevFlop: map[exec.Kind]float64{
			exec.CPU: 6e-10,
			exec.AVX: 1.5e-10,
			exec.GPU: 4e-11,
		},
		DevOverhead: map[exec.Kind]time.Duration{
			exec.CPU: 0,
			exec.AVX: 2 * time.Microsecond,
			exec.GPU: 200 * time.Microsecond,
		},
		CBuild:     2.5e-9,
		ProbeAlpha: 0.35,
		DimPenalty: 0.02,
		CFetch:     4e-6,
	}
}

// Calibrate measures the scalar distance constant with a short microbench
// and rescales the model's CPU-relative constants accordingly.
func (cm *CostModel) Calibrate() {
	const n, dim = 2000, 64
	a := make([]float32, n*dim)
	for i := range a {
		a[i] = float32(i%97) * 0.01
	}
	start := time.Now()
	var sink float32
	for i := 0; i < n; i++ {
		base := (i * dim) % (len(a) - dim)
		var s float32
		for d := 0; d < dim; d++ {
			diff := a[base+d] - a[d]
			s += diff * diff
		}
		sink += s
	}
	_ = sink
	perComponent := time.Since(start).Seconds() / float64(n*dim)
	if perComponent > 0 {
		ratio := perComponent / cm.CDist
		cm.CDist = perComponent
		cm.CBuild *= ratio
		cm.CDevFlop[exec.CPU] *= ratio
	}
}

// simCost estimates the wall time of one similarity-join method.
// nL/nR are the relation sizes, dim the vector dimensionality.
func (cm *CostModel) simCost(m SimMethod, dev exec.Kind, nL, nR, dim int) float64 {
	nf := float64(nL)
	mf := float64(nR)
	df := float64(dim)
	switch m {
	case SimNested:
		return nf * mf * df * cm.CDist
	case SimBatched:
		flops := 3 * nf * mf * df
		kernels := math.Ceil(nf / 256)
		bytesMoved := 4 * (nf*df + mf*df + nf*mf)
		transfer := 0.0
		if dev == exec.GPU {
			transfer = bytesMoved / 6e9
		}
		return flops*cm.CDevFlop[dev] + kernels*cm.DevOverhead[dev].Seconds() + transfer
	case SimOnTheFly, SimIndexed, SimVecIndexed:
		build, probe := mf, nf
		if m == SimOnTheFly && nf < mf {
			build, probe = nf, mf
		}
		buildCost := 0.0
		if m == SimOnTheFly {
			buildCost = cm.CBuild * build * df * math.Log2(build+2)
		}
		// Probe: log(build) balls visited, inflated non-linearly with size
		// and dimension (Figure 7).
		inflate := 1.0
		if build > 1000 {
			inflate = math.Pow(build/1000, cm.ProbeAlpha)
		}
		dimInflate := 1 + cm.DimPenalty*math.Max(0, df-8)
		perProbe := cm.CDist * df * 32 * math.Log2(build+2) * inflate * dimInflate
		return buildCost + probe*perProbe + probe*cm.CFetch
	}
	return math.Inf(1)
}

// SimJoinPlan is the optimizer's physical choice for a similarity join.
type SimJoinPlan struct {
	Method  SimMethod
	Device  exec.Kind
	EstCost float64
	// Explain records the costs of every alternative considered.
	Explain string
}

// PlanSimilarityJoin picks the cheapest physical operator for a
// similarity join of the given shape. hasIndex reports a prebuilt ball
// tree on the right side.
func (cm *CostModel) PlanSimilarityJoin(nL, nR, dim int, hasIndex bool) SimJoinPlan {
	type cand struct {
		m   SimMethod
		dev exec.Kind
	}
	cands := []cand{
		{SimNested, exec.CPU},
		{SimBatched, exec.CPU},
		{SimBatched, exec.AVX},
		{SimBatched, exec.GPU},
		{SimOnTheFly, exec.CPU},
	}
	if hasIndex {
		cands = append(cands, cand{SimIndexed, exec.CPU})
	}
	best := SimJoinPlan{EstCost: math.Inf(1)}
	explain := ""
	for _, c := range cands {
		cost := cm.simCost(c.m, c.dev, nL, nR, dim)
		explain += fmt.Sprintf("%s@%s=%.4fs ", c.m, c.dev, cost)
		if cost < best.EstCost {
			best = SimJoinPlan{Method: c.m, Device: c.dev, EstCost: cost}
		}
	}
	best.Explain = explain
	return best
}

// PlanSimilarityJoinVec is PlanSimilarityJoin extended with the
// maintained vector-index alternative: hasVecIndex reports a
// per-collection VectorIndex (exact mode) covering the right side's
// join field. It probes like a prebuilt ball tree — the same Figure 7
// non-linearity — but is maintained incrementally across appends
// instead of rebuilt per version, so its build cost never lands on the
// query being planned.
func (cm *CostModel) PlanSimilarityJoinVec(nL, nR, dim int, hasVecIndex bool) SimJoinPlan {
	best := cm.PlanSimilarityJoin(nL, nR, dim, false)
	if !hasVecIndex {
		return best
	}
	cost := cm.simCost(SimVecIndexed, exec.CPU, nL, nR, dim)
	explain := best.Explain + fmt.Sprintf("%s@%s=%.4fs ", SimVecIndexed, exec.CPU, cost)
	if cost < best.EstCost {
		best = SimJoinPlan{Method: SimVecIndexed, Device: exec.CPU, EstCost: cost}
	}
	best.Explain = explain
	return best
}

// KNNMethod is a physical implementation of a k-nearest-neighbor query.
type KNNMethod int

// KNN physical operators.
const (
	KNNScan  KNNMethod = iota + 1 // brute-force exact scan over the snapshot
	KNNIndex                      // probe the maintained vector index
)

func (m KNNMethod) String() string {
	switch m {
	case KNNScan:
		return "knn-scan"
	case KNNIndex:
		return "knn-index"
	default:
		return fmt.Sprintf("knn(%d)", int(m))
	}
}

// ANNDefaultRecall is the recall the approximate index shape
// (vecLSHTables x vecLSHBits) is tuned to deliver on clustered
// embedding workloads; a request with a recall floor above it forces
// the exact path.
const ANNDefaultRecall = 0.95

// knnCandFrac estimates the fraction of the relation an LSH probe
// verifies exactly (expected candidate-union size / n).
const knnCandFrac = 0.05

// KNNPlan is the optimizer's physical choice for a kNN query.
type KNNPlan struct {
	Method KNNMethod
	// Mode is the index access mode when Method == KNNIndex: exact
	// (balltree, brute-force-identical results) or approx (LSH,
	// recall-bounded).
	Mode    VecIndexMode
	EstCost float64
	// Explain records the costs of every alternative considered.
	Explain string
}

// PlanKNN picks the physical path for a k-nearest-neighbor query over n
// indexed vectors of dimensionality dim. exact forces results identical
// to the brute-force scan; recallFloor sets the minimum acceptable
// recall (0 = no floor) — above what the LSH shape promises, the
// planner stays exact. forceIndex pins the index path regardless of
// cost (the physical knob mirroring FilterSpec.UseIndex).
func (cm *CostModel) PlanKNN(n, dim, k int, exact bool, recallFloor float64, forceIndex bool) KNNPlan {
	nf, df, kf := float64(n), float64(dim), float64(k)
	// Wider result sets keep more balls live during the descent.
	frontier := 1 + math.Log2(kf+1)
	inflate := 1.0
	if n > 1000 {
		inflate = math.Pow(nf/1000, cm.ProbeAlpha)
	}
	dimInflate := 1 + cm.DimPenalty*math.Max(0, df-8)
	scanCost := nf*df*cm.CDist + kf*cm.CFetch
	exactCost := cm.CDist*df*32*math.Log2(nf+2)*inflate*dimInflate*frontier + kf*cm.CFetch
	hashCost := float64(vecLSHTables*vecLSHBits) * df * cm.CDist
	approxCost := hashCost + knnCandFrac*nf*df*cm.CDist + kf*cm.CFetch

	allowApprox := !exact && recallFloor <= ANNDefaultRecall
	best := KNNPlan{Method: KNNScan, EstCost: scanCost}
	if forceIndex {
		best = KNNPlan{Method: KNNIndex, Mode: VecExact, EstCost: exactCost}
	}
	explain := fmt.Sprintf("knn-scan=%.6fs knn-index[exact]=%.6fs ", scanCost, exactCost)
	if exactCost < best.EstCost {
		best = KNNPlan{Method: KNNIndex, Mode: VecExact, EstCost: exactCost}
	}
	if allowApprox {
		explain += fmt.Sprintf("knn-index[approx]=%.6fs ", approxCost)
		if approxCost < best.EstCost {
			best = KNNPlan{Method: KNNIndex, Mode: VecApprox, EstCost: approxCost}
		}
	}
	best.Explain = explain

	// Observed-latency override, the PlanFilter rule applied to kNN: the
	// static choice stands until both it and a challenger have enough
	// ObserveKNN samples, and only a strictly cheaper admissible path
	// (never a semantic change — forceIndex and the approx gate still
	// bound the candidate set) replaces it. EstCost stays the static
	// formula of whatever wins: replicas must quote deterministic costs.
	type knnCand struct {
		method KNNMethod
		mode   VecIndexMode
		est    float64
	}
	var cands []knnCand
	if !forceIndex {
		cands = append(cands, knnCand{KNNScan, 0, scanCost})
	}
	cands = append(cands, knnCand{KNNIndex, VecExact, exactCost})
	if allowApprox {
		cands = append(cands, knnCand{KNNIndex, VecApprox, approxCost})
	}
	if per, ok := cm.ObservedKNNUnit(best.Method, best.Mode); ok {
		bestObs := per * cm.knnUnits(best.Method, best.Mode, n, dim, k)
		for _, c := range cands {
			if c.method == best.Method && c.mode == best.Mode {
				continue
			}
			cper, cok := cm.ObservedKNNUnit(c.method, c.mode)
			if !cok {
				continue
			}
			if obs := cper * cm.knnUnits(c.method, c.mode, n, dim, k); obs < bestObs {
				best = KNNPlan{Method: c.method, Mode: c.mode, EstCost: c.est, Explain: explain}
				bestObs = obs
			}
		}
	}
	return best
}

// knnUnits is the work-unit count a kNN access path's per-unit cost
// multiplies — the static cost formulas stripped of their calibrated
// constants, so an EWMA over (latency / units) transfers across
// relation sizes, dimensionalities and k.
func (cm *CostModel) knnUnits(method KNNMethod, mode VecIndexMode, n, dim, k int) float64 {
	nf, df, kf := float64(n), float64(dim), float64(k)
	var u float64
	switch {
	case method == KNNScan:
		u = nf * df
	case mode == VecApprox:
		u = float64(vecLSHTables*vecLSHBits)*df + knnCandFrac*nf*df
	default:
		frontier := 1 + math.Log2(kf+1)
		inflate := 1.0
		if n > 1000 {
			inflate = math.Pow(nf/1000, cm.ProbeAlpha)
		}
		dimInflate := 1 + cm.DimPenalty*math.Max(0, df-8)
		u = df * 32 * math.Log2(nf+2) * inflate * dimInflate * frontier
	}
	return math.Max(u, 1)
}

// ObserveKNN folds one executed kNN query's measured latency back into
// the model as a per-unit EWMA for its access path, exactly as
// ObserveFilter does for selections. Safe for concurrent use.
func (cm *CostModel) ObserveKNN(method KNNMethod, mode VecIndexMode, n, dim, k int, dur time.Duration) {
	key := knnObsKey(method, mode)
	cm.observe(key, cm.knnUnits(method, key.mode, n, dim, k), dur)
}

// ObservedKNNUnit reports a kNN access path's measured per-unit cost
// and whether enough samples back it to be trusted in planning.
func (cm *CostModel) ObservedKNNUnit(method KNNMethod, mode VecIndexMode) (float64, bool) {
	return cm.observed(knnObsKey(method, mode))
}

// CacheAwareCost folds a result cache in front of a plan into its
// expected cost: every request pays the cache lookup, and only the miss
// fraction pays the plan itself. The serving layer feeds the observed
// hit rate in, so reported plan costs reflect cross-query reuse — a plan
// that looks expensive cold can be effectively free behind a warm cache,
// which is the paper's materialization argument restated as a cost.
func (cm *CostModel) CacheAwareCost(est, hitRate, lookup float64) float64 {
	if hitRate < 0 {
		hitRate = 0
	}
	if hitRate > 1 {
		hitRate = 1
	}
	return lookup + (1-hitRate)*est
}

// PlaceDevice picks the device for a batched kernel of the given FLOP and
// byte volume — the CPU/GPU balancing the paper calls the significant
// challenge (§7.4.2).
func (cm *CostModel) PlaceDevice(flops float64, bytesMoved float64, kernels int) exec.Kind {
	best := exec.CPU
	bestCost := math.Inf(1)
	for _, dev := range []exec.Kind{exec.CPU, exec.AVX, exec.GPU} {
		cost := flops*cm.CDevFlop[dev] + float64(kernels)*cm.DevOverhead[dev].Seconds()
		if dev == exec.GPU {
			cost += bytesMoved / 6e9
		}
		if cost < bestCost {
			best, bestCost = dev, cost
		}
	}
	return best
}

// FilterMethod is a physical implementation of a selection.
type FilterMethod int

// Selection physical operators.
const (
	FilterScan FilterMethod = iota + 1
	FilterHashIndex
	FilterBTreeIndex
	// FilterColumnScan evaluates the predicate block-at-a-time over the
	// collection's columnar projection (zone-map pruning + vectorized
	// compare), falling back to the row scan when the field has no
	// column. Purely physical: results are identical to FilterScan.
	FilterColumnScan
)

func (m FilterMethod) String() string {
	switch m {
	case FilterScan:
		return "scan-filter"
	case FilterHashIndex:
		return "hash-index"
	case FilterBTreeIndex:
		return "btree-index"
	case FilterColumnScan:
		return "column-scan"
	default:
		return fmt.Sprintf("filter(%d)", int(m))
	}
}

// Per-row scan cost constants (seconds), measured on the reference
// container: the iterator path pays an interface call, a metadata map
// lookup and a predicate closure per patch; the columnar path pays one
// typed array compare, with zone maps skipping whole blocks.
const (
	CRowScanSec = 2e-8
	CColScanSec = 2e-9
)

// filterUnits is the work-unit count an access path's per-unit cost
// multiplies: rows fetched for index probes, rows scanned otherwise.
func filterUnits(method FilterMethod, n, matched int) int {
	if method == FilterHashIndex || method == FilterBTreeIndex {
		return matched
	}
	return n
}

// ObserveFilter folds one executed selection's measured latency back
// into the model as a per-unit EWMA for its access path (units = rows
// fetched for index probes, rows scanned otherwise). Safe for
// concurrent use; zero-unit or zero-duration observations are ignored.
func (cm *CostModel) ObserveFilter(method FilterMethod, units int, dur time.Duration) {
	cm.observe(obsKey{'f', int(method), 0}, float64(units), dur)
}

// ObservedFilterUnit reports an access path's measured per-unit cost
// and whether enough samples back it to be trusted in planning.
func (cm *CostModel) ObservedFilterUnit(method FilterMethod) (float64, bool) {
	return cm.observed(obsKey{'f', int(method), 0})
}

// FilterCost estimates a selection's cost over n rows with the given
// access path (matched is the expected output size for index fetches).
// Deliberately static: response cost estimates must be deterministic
// functions of the plan and snapshot (replicas answering the same query
// return byte-identical responses). Observed-latency pricing lives in
// ObservedFilterCost.
func (cm *CostModel) FilterCost(method FilterMethod, n, matched int) float64 {
	switch method {
	case FilterHashIndex, FilterBTreeIndex:
		return float64(matched) * cm.CFetch
	case FilterColumnScan:
		return float64(n) * CColScanSec
	default:
		return float64(n) * CRowScanSec
	}
}

// ObservedFilterCost prices a selection from measured behavior: paths
// with enough ObserveFilter samples quote their per-unit EWMA, cold
// paths fall back to the static FilterCost constants. This is the
// estimate admission control and plan choice consume — unlike
// FilterCost it drifts with the live system, so it must never feed
// anything that has to be deterministic across replicas.
func (cm *CostModel) ObservedFilterCost(method FilterMethod, n, matched int) float64 {
	if per, ok := cm.ObservedFilterUnit(method); ok {
		return float64(filterUnits(method, n, matched)) * per
	}
	return cm.FilterCost(method, n, matched)
}

// PlanFilter chooses the access path for an equality selection, after
// validating the predicate against the schema (plan-time type checking,
// §4.2). The static preference order — hash index, then btree index,
// then columnar scan for scalar fields (declared fields are
// kind-uniform by schema validation, so the projection always succeeds
// and strictly dominates the row scan), then row scan — is the
// cold-start default. Once the DB's cost model has observed enough
// executions (ObserveFilter), a measurably cheaper available path
// overrides it: the default wins ties and all partially-observed
// comparisons, so plans never flip on noise or thin evidence.
func (db *DB) PlanFilter(col *Collection, field string, v Value) (FilterMethod, error) {
	if err := col.Schema().ValidateFilterValue(field, v); err != nil {
		return 0, err
	}
	var cands []FilterMethod
	if db.HasIndex(col, field, IdxHash) {
		cands = append(cands, FilterHashIndex)
	}
	if db.HasIndex(col, field, IdxBTree) {
		cands = append(cands, FilterBTreeIndex)
	}
	switch v.Kind {
	case KindInt, KindFloat, KindStr:
		cands = append(cands, FilterColumnScan)
	}
	cands = append(cands, FilterScan)

	best := cands[0]
	cm := db.Cost()
	if cm == nil {
		return best, nil
	}
	per, ok := cm.ObservedFilterUnit(best)
	if !ok {
		return best, nil
	}
	n := col.Len()
	matched := n / estFilterSelectivity
	if matched < 1 {
		matched = 1
	}
	bestCost := float64(filterUnits(best, n, matched)) * per
	for _, m := range cands[1:] {
		per, ok := cm.ObservedFilterUnit(m)
		if !ok {
			continue
		}
		if c := float64(filterUnits(m, n, matched)) * per; c < bestCost {
			best, bestCost = m, c
		}
	}
	return best, nil
}

// ExecuteFilter runs an equality selection with the chosen access path.
func (db *DB) ExecuteFilter(col *Collection, field string, v Value, method FilterMethod) ([]*Patch, error) {
	switch method {
	case FilterHashIndex, FilterBTreeIndex:
		kind := IdxHash
		if method == FilterBTreeIndex {
			kind = IdxBTree
		}
		idx, err := db.Index(col, field, kind)
		if err != nil {
			return nil, err
		}
		snap, ver, err := col.Snapshot()
		if err != nil {
			return nil, err
		}
		ids, err := idx.LookupEq(snap, ver, v)
		if err != nil {
			return nil, err
		}
		out := make([]*Patch, 0, len(ids))
		for _, id := range ids {
			p, err := col.Get(id)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		return out, nil
	case FilterColumnScan:
		cs, err := col.Columns()
		if err != nil {
			return nil, err
		}
		if sel, ok := cs.FilterEq(field, v); ok {
			return cs.Materialize(sel), nil
		}
		// Field not columnizable (mixed kinds, vectors, all-null): the
		// row path answers every query the column can't.
		return DrainPatches(Select(col.Scan(), FieldEq(field, v)))
	default:
		return DrainPatches(Select(col.Scan(), FieldEq(field, v)))
	}
}

// PlanMode selects the optimizer's objective for plans whose order affects
// result accuracy (§7.4.3, Table 1).
type PlanMode int

// Optimizer objectives.
const (
	// PerformanceFirst applies classical rewrites (filter pushdown) for
	// the fastest plan.
	PerformanceFirst PlanMode = iota
	// AccuracyFirst suppresses rewrites that change the result's accuracy
	// profile: match on all candidates, filter afterwards.
	AccuracyFirst
)

func (m PlanMode) String() string {
	if m == AccuracyFirst {
		return "accuracy-first"
	}
	return "performance-first"
}
