package core

import (
	"fmt"
	"math"

	"repro/internal/exec"
)

// This file is the visual query optimizer (§5.1 future work, §7.4). A
// plan is priced in the work it counts — distance evaluations (each dim
// components wide), patches fetched and kernel launches — on the device
// that runs it; the exact ball tree from evaluations measured on the
// shard's own data (treeStat), since its pruning depends on how the
// points cluster (Figure 7). Replicas quote byte-identical costs.

// SimMethod is a physical implementation of the similarity join.
type SimMethod int

// Similarity-join physical operators, in the order the planner breaks
// cost ties.
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

// The weights that turn counted work into est_cost_sec compare units
// across devices, never two paths that count the same unit on the same
// device: their counts decide, a tie going to the first method.
// distDimSec is one distance component on each device (scalar paths run
// on the host, at the CPU rate); a GPU kernel also pays the launch and
// transfer exec.New(exec.GPU) charges.
var distDimSec = [...]float64{exec.CPU: 1.2e-9, exec.AVX: 4.5e-10, exec.GPU: 1.2e-10}

// fetchSec is one patch fetched by id.
const fetchSec = 4e-6

// simCost prices joining nL left rows against nR right rows of
// dimensionality dim with method m, batched kernels running on dev and
// tree probes priced by st.
func simCost(m SimMethod, nL, nR, dim int, st treeStat, dev exec.Kind) float64 {
	nf, mf, df := float64(nL), float64(nR), float64(dim)
	host := df * distDimSec[exec.CPU]
	switch m {
	case SimNested:
		return nf * mf * host
	case SimBatched:
		cost := nf * mf * df * distDimSec[dev]
		if dev == exec.GPU {
			// One launch per left block, each moving the block, the right
			// side and its distance tile.
			gpu := exec.DefaultGPUProfile()
			kernels := math.Ceil(nf / joinBlock)
			bytes := 4 * (nf*df + kernels*mf*df + nf*mf)
			cost += kernels*gpu.LaunchLatency.Seconds() + bytes/gpu.BytesPerSecond
		}
		return cost
	case SimOnTheFly:
		build, probe := min(nf, mf), max(nf, mf)
		return (build*st.build + probe*st.probe*build) * host
	case SimVecIndexed:
		return nf * st.probe * mf * host
	}
	return math.Inf(1)
}

// SimJoinPlan is the optimizer's physical choice for a similarity join.
type SimJoinPlan struct {
	Method  SimMethod
	EstCost float64
}

// PlanSimilarityJoin picks the cheapest method for joining nL left rows
// against the right rows on their vectors under field, with batched
// kernels on dev. The receiver is the right rows' snapshot: its k=1 tree
// statistic prices the tree probes. hasIndex allows the snapshot's
// maintained exact index, whose build is not charged to the query.
func (s Snapshot) PlanSimilarityJoin(field string, nL int, right []*Patch, hasIndex bool, dev exec.Kind) SimJoinPlan {
	dim := 0
	for _, p := range right {
		if vec, ok := vecOf(p, field); ok {
			dim = len(vec)
			break
		}
	}
	return planSimilarityJoin(nL, len(right), dim, s.treeStat(field, 1), hasIndex, dev)
}

// planSimilarityJoin picks the cheapest method under simCost.
func planSimilarityJoin(nL, nR, dim int, st treeStat, hasIndex bool, dev exec.Kind) SimJoinPlan {
	last := SimOnTheFly
	if hasIndex {
		last = SimVecIndexed
	}
	best := SimJoinPlan{EstCost: math.Inf(1)}
	for m := SimNested; m <= last; m++ {
		if cost := simCost(m, nL, nR, dim, st, dev); cost < best.EstCost {
			best = SimJoinPlan{Method: m, EstCost: cost}
		}
	}
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

// KNNPlan is the optimizer's physical choice for a kNN query. Both
// methods return the brute-force answer.
type KNNPlan struct {
	Method  KNNMethod
	EstCost float64
}

// PlanKNN picks the physical path for a k-nearest-neighbor query over
// the snapshot's vectors under field, of dimensionality dim: the scan or
// the exact tree, whichever evaluates fewer distances, the tree priced
// from the shard's tree statistic at k. forceIndex pins the index path
// regardless of cost (the physical knob mirroring FilterSpec.UseIndex).
func (s Snapshot) PlanKNN(field string, dim, k int, forceIndex bool) KNNPlan {
	return planKNN(s.Len(), dim, k, forceIndex, s.treeStat(field, k).probe)
}

// CostModel is the kNN planner with no data statistic: it prices the
// exact tree as a scan. The benchmark harness times it as core.plan.
type CostModel struct{}

// PlanKNN is Snapshot.PlanKNN over n vectors, with the tree priced as a
// scan. Every plan is exact, so exact and recallFloor are ignored.
func (*CostModel) PlanKNN(n, dim, k int, exact bool, recallFloor float64, forceIndex bool) KNNPlan {
	return planKNN(n, dim, k, forceIndex, scanStat.probe)
}

// planKNN prices the scan and an exact tree probe evaluating treeFrac·n
// distances over n rows, and picks the cheaper (the scan on a tie).
func planKNN(n, dim, k int, forceIndex bool, treeFrac float64) KNNPlan {
	nf, df, kf := float64(n), float64(dim), float64(k)
	c := distDimSec[exec.CPU]
	scanCost := nf*df*c + kf*fetchSec
	exactCost := treeFrac*nf*df*c + kf*fetchSec
	if forceIndex || exactCost < scanCost {
		return KNNPlan{Method: KNNIndex, EstCost: exactCost}
	}
	return KNNPlan{Method: KNNScan, EstCost: scanCost}
}

// CacheAwareCost folds a result cache in front of a plan into its
// expected cost: every request pays the cache lookup, and only the miss
// fraction pays the plan itself. The serving layer feeds the observed
// hit rate in, so reported plan costs reflect cross-query reuse — a plan
// that looks expensive cold can be effectively free behind a warm cache,
// which is the paper's materialization argument restated as a cost.
func CacheAwareCost(est, hitRate, lookup float64) float64 {
	return lookup + (1-min(max(hitRate, 0), 1))*est
}

// FilterMethod is a physical implementation of a selection.
type FilterMethod int

// Selection physical operators.
const (
	FilterScan FilterMethod = iota + 1
	// FilterIndex probes the sorted index: the column scan with each
	// surviving sealed segment binary-searched through its sort order.
	FilterIndex
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
	case FilterIndex:
		return "sorted-segments"
	case FilterColumnScan:
		return "column-scan"
	default:
		return fmt.Sprintf("filter(%d)", int(m))
	}
}

// Per-row scan cost constants (seconds), measured on the reference
// container: the row scan (FilterScan) pays a metadata lookup and a
// Pred.Match per patch; the columnar path pays one typed array compare,
// with zone maps skipping whole blocks.
const (
	CRowScanSec = 2e-8
	CColScanSec = 2e-9
)

// FilterCost estimates a selection's cost over n rows with the given
// access path (matched is the expected output size for index fetches).
func FilterCost(method FilterMethod, n, matched int) float64 {
	switch method {
	case FilterIndex:
		return float64(matched) * fetchSec
	case FilterColumnScan:
		return float64(n) * CColScanSec
	default:
		return float64(n) * CRowScanSec
	}
}

// PlanFilter chooses the access path for an equality selection, after
// validating the predicate against the schema (plan-time type checking,
// §4.2), by a fixed preference order: a declared index, then the
// columnar scan for scalar constants (declared fields are
// kind-uniform by schema validation, so the projection always succeeds
// and strictly dominates the row scan), then the row scan.
func (db *DB) PlanFilter(col *Collection, field string, v Value) (FilterMethod, error) {
	if err := col.Schema().ValidateFilterValue(field, v); err != nil {
		return 0, err
	}
	switch {
	case db.HasIndex(col, field):
		return FilterIndex, nil
	case v.Kind == KindInt, v.Kind == KindFloat, v.Kind == KindStr:
		return FilterColumnScan, nil
	}
	return FilterScan, nil
}
