package core

import (
	"fmt"
	"math"
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
	case SimVecIndexed:
		return "join-index"
	default:
		return fmt.Sprintf("sim(%d)", int(m))
	}
}

// CostModel holds per-operation constants (seconds), measured once on
// the reference container and static at runtime.
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
}

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
	case SimOnTheFly, SimVecIndexed:
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
// similarity join of the given shape. hasIndex reports an exact-mode
// VectorIndex over the right side's join field: it probes like the
// on-the-fly ball tree — the same Figure 7 non-linearity — but is
// maintained across appends, so its build cost never lands on the query
// being planned.
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
		cands = append(cands, cand{SimVecIndexed, exec.CPU})
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
	return best
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

// FilterCost estimates a selection's cost over n rows with the given
// access path (matched is the expected output size for index fetches).
// Deliberately static: response cost estimates must be deterministic
// functions of the plan and snapshot (replicas answering the same query
// return byte-identical responses).
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

// PlanFilter chooses the access path for an equality selection, after
// validating the predicate against the schema (plan-time type checking,
// §4.2), by a fixed preference order: hash index, then B-tree index,
// then the columnar scan for scalar constants (declared fields are
// kind-uniform by schema validation, so the projection always succeeds
// and strictly dominates the row scan), then the row scan.
func (db *DB) PlanFilter(col *Collection, field string, v Value) (FilterMethod, error) {
	if err := col.Schema().ValidateFilterValue(field, v); err != nil {
		return 0, err
	}
	switch {
	case db.HasIndex(col, field, IdxHash):
		return FilterHashIndex, nil
	case db.HasIndex(col, field, IdxBTree):
		return FilterBTreeIndex, nil
	case v.Kind == KindInt, v.Kind == KindFloat, v.Kind == KindStr:
		return FilterColumnScan, nil
	}
	return FilterScan, nil
}
