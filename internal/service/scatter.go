package service

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Scatter-gather execution: the one executor behind both constructors
// (New wraps its DB as a single shard). The plan is made once; its
// fragment runs on every shard in parallel, each join task pinned to a
// batcher-fronted device (so concurrent fragments' kernels fuse exactly
// like concurrent requests'); the partial results merge at the service
// layer:
//
//   - filters/projections: per-shard counts sum, row sets concatenate in
//     shard order;
//   - ordered top-k: each shard sorts and trims its own rows, the
//     service merges the sorted lists, taking the best head each step;
//   - similarity joins: one local self-join task per shard plus one
//     cross task per shard pair (left rows from shard i probe shard j),
//     pair lists concatenate;
//   - cluster/distinct queries: pairs from every task re-cluster at the
//     gather stage (union-find over the concatenated fragments);
//   - kNN probes: each shard answers its local top-k, the candidates
//     sort by (distance, id) and trim to the global k (see knn.go).
//
// With one shard the fragment is the whole plan, the merge is the
// identity and nothing is spawned: testdata/golden_matrix.json pins that
// case's responses.

// fragmentPlan is the part of a query's plan every fragment shares,
// made once before the scatter.
type fragmentPlan struct {
	req   *Request
	scol  *core.ShardedCollection
	pred  *core.Pred // resolved filter; nil = unfiltered
	knnQ  []float32  // resolved kNN query vector; nil = not a kNN query
	limit int        // effective row cap
	keep  core.Keep  // what each fragment keeps of its matches
}

// shardFragment is one shard's partial result: the rows core's Select
// kept of its matches, whichever access path ran. The gather stage reads
// them from snap through Sel: every match for joins and clustering, the
// sorted/trimmed top-limit for order/limit, none for counts. A kNN
// fragment leaves its local top-k in ns instead.
type shardFragment struct {
	snap core.Snapshot // the answering replica's snapshot

	// The filter stage's result; Method 0 = unfiltered, every row matches.
	core.Selection
	op   string // a kNN probe's plan operator (a filter's is label's)
	cost float64

	// rows are a similarity join's kept rows as patches, which the join
	// tasks and the re-clustering read: views of the rows in block, both
	// kept by the request's pooled scatterState for the next request.
	rows  []*core.Patch
	block []core.Patch
	ns    []core.VecNeighbor
}

// materialize fills rows with the kept rows, in Sel's order.
func (f *shardFragment) materialize() {
	n := len(f.Sel)
	f.block = slices.Grow(f.block[:0], n)[:n]
	f.snap.ViewRows(f.Sel, f.block)
	f.rows = slices.Grow(f.rows[:0], n)
	for i := range f.block {
		f.rows = append(f.rows, &f.block[i])
	}
}

// label is the fragment's plan operator: its kNN probe's, its filter's
// access path over the filtered field, or "" for an unfiltered
// fragment.
func (f *shardFragment) label(plan *fragmentPlan) string {
	if f.op != "" || plan.pred == nil {
		return f.op
	}
	return f.Method.String() + "(" + plan.pred.Field + ")"
}

// annotate attaches the fragment's work record to its trace span:
// which shard ran, how many rows it held and matched (for kNN: how many
// candidates it passes to the gather stage), the access path, and —
// when the filter ran columnar, as a column scan or an index probe —
// the zone-map pruning and column-extension outcome. No-op on untraced
// queries (nil handle).
func (f *shardFragment) annotate(sp *obs.SpanHandle, plan *fragmentPlan, shard int) {
	if sp == nil {
		return
	}
	sp.AttrInt("shard", int64(shard))
	sp.AttrInt("rows", int64(f.snap.Len()))
	if plan.knnQ != nil {
		sp.AttrInt("candidates", int64(len(f.ns)))
	} else {
		sp.AttrInt("matched", int64(f.N))
	}
	path := "full-scan"
	if op := f.label(plan); op != "" {
		path = op
	}
	sp.Attr("path", path)
	if f.Method == core.FilterColumnScan || f.Indexed() {
		sp.AttrInt("blocks", int64(f.Scan.Blocks))
		sp.AttrInt("blocks_pruned", int64(f.Scan.Pruned))
		sp.AttrInt("rows_scanned", int64(f.Scan.RowsScanned))
		sp.AttrInt("seg_loads", int64(f.Scan.SegLoads))
		sp.AttrInt("seg_transient", int64(f.Scan.SegTransient))
		sp.Attr("columns", f.ColInfo.Refresh.String())
	}
}

// placeDev is the device worker w's scatter task t is pinned to: the
// worker's own device for task 0 (all of a one-shard query),
// round-robin from there, so a query's tasks spread over the devices
// while concurrent workers' single tasks never pile onto one.
func placeDev(w, t, devices int) int { return (w + t) % devices }

// taskDev returns the batcher-fronted device placeDev pins worker w's
// scatter task t to.
func (s *Service) taskDev(w *worker, t int) *exec.Batcher {
	return s.batchers[placeDev(w.id, t, len(s.batchers))]
}

// scatterWave runs n independent scatter tasks concurrently and returns
// the lowest-numbered failing task's error, however the tasks' timing
// falls. Task 0 runs on the caller, the others on one goroutine each,
// so a single task adds no goroutine.
func (s *Service) scatterWave(n int, fn func(t int) error) error {
	s.tel.scatterTasks.Add(int64(n))
	if n == 1 {
		return fn(0)
	}
	// One allocation for the wait group and the error slots of a small
	// wave.
	w := new(struct {
		wg   sync.WaitGroup
		errs []error
		slot [4]error
	})
	w.errs = w.slot[:]
	if n > len(w.slot) {
		w.errs = make([]error, n)
	}
	w.wg.Add(n - 1)
	for t := 1; t < n; t++ {
		go func() {
			defer w.wg.Done()
			w.errs[t] = fn(t)
		}()
	}
	w.errs[0] = fn(0)
	w.wg.Wait()
	for _, err := range w.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// missingShards judges a scatter wave's per-shard outcomes: which shards
// failed, and whether that fails the query. It does unless the request
// allows partial results and at least one shard answered (all shards
// missing is never "partial"); the error is the first failing shard's.
func (s *Service) missingShards(req *Request, errs []error) ([]int, error) {
	var missing []int
	var shardErr error
	for i, e := range errs {
		if e != nil {
			missing = append(missing, i)
			if shardErr == nil {
				shardErr = fmt.Errorf("shard %d: %w", i, e)
			}
		}
	}
	if len(missing) == 0 {
		return nil, nil
	}
	if !req.AllowPartial || len(missing) == len(errs) {
		return nil, shardErr
	}
	s.tel.degradedQueries.Inc()
	return missing, nil
}

// executeScatter runs the filter -> simjoin -> distinct -> order/limit
// pipeline, or a kNN probe, as plan-once, scatter-everywhere,
// merge-at-the-top. Each shard's fragment runs as a hedged,
// deadline-aware read over the shard's in-sync replicas (see hedge.go);
// when every replica of a shard fails and the request allows partial
// results, the gather stage degrades instead of erroring.
func (s *Service) executeScatter(ctx context.Context, w *worker, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scol, err := s.shards.Collection(req.Collection)
	if err != nil {
		return nil, err
	}
	nsh := scol.Shards()
	s.tel.scatterQueries.Inc()
	s.tel.fanout.Observe(float64(nsh))

	// Plan once: resolve and type-check the filter (or the kNN query
	// vector) against the schema before fanning anything out. Requests
	// cap at maxRows. A fragment keeps only what the gather stage
	// reads: every row for a join, the top limit for order_by, the first
	// limit for a bare limit, and none for a count.
	plan := &fragmentPlan{req: req, scol: scol, limit: req.Limit}
	if plan.limit <= 0 || plan.limit > maxRows {
		plan.limit = maxRows
	}
	switch {
	case req.SimJoin != nil:
		plan.keep = core.Keep{Kind: core.KeepAll}
	case req.OrderBy != "":
		plan.keep = core.Keep{Kind: core.KeepTop, N: plan.limit, Field: req.OrderBy, Desc: req.Desc}
	case req.Limit > 0:
		plan.keep = core.Keep{Kind: core.KeepFirst, N: plan.limit}
	default:
		plan.keep = core.Keep{Kind: core.KeepCount}
	}
	if req.Filter != nil {
		if plan.pred, err = req.Filter.resolve(scol.Schema()); err != nil {
			return nil, err
		}
	}
	if req.KNN != nil {
		s.tel.knnQueries.Inc()
		if plan.knnQ, err = knnQueryVec(req.KNN, scol); err != nil {
			return nil, err
		}
		if err := knnCheckDim(scol.Schema(), req.KNN.Field, plan.knnQ); err != nil {
			return nil, err
		}
	}

	// Partial-tolerant queries under a deadline cut their fragments
	// slightly early, so the gather stage still has time to assemble and
	// return the surviving shards' answer before the 504 would fire.
	fctx := ctx
	if req.AllowPartial {
		if dl, ok := ctx.Deadline(); ok {
			margin := time.Until(dl) / 10
			if margin < time.Millisecond {
				margin = time.Millisecond
			}
			if margin > 100*time.Millisecond {
				margin = 100 * time.Millisecond
			}
			var fcancel context.CancelFunc
			fctx, fcancel = context.WithDeadline(ctx, dl.Add(-margin))
			defer fcancel()
		}
	}

	// ---- scatter: per-shard hedged filter (+ local sort/trim) fragments ----
	st := getScatterState(nsh)
	defer st.release()
	frags := st.frags
	s.scatterWave(nsh, func(i int) error {
		frags[i], st.errs[i] = s.hedgedFragment(fctx, plan, i, &st.slab[i])
		return nil // per-shard outcomes are judged below, not first-error
	})
	if err := ctx.Err(); err != nil {
		return nil, err // timeout/cancel dominates any per-shard outcome
	}
	missing, err := s.missingShards(req, st.errs)
	if err != nil {
		return nil, err
	}

	// The fragments' shared pipeline prefix and summed cost (nil frags =
	// missing shards).
	resp := &Response{Degraded: len(missing) > 0, MissingShards: missing}
	planOps := make([]string, 0, 4)
	for _, frag := range frags {
		if frag == nil {
			continue
		}
		if len(planOps) == 0 {
			if op := frag.label(plan); op != "" {
				planOps = append(planOps, op)
			}
		}
		resp.EstCostSec += frag.cost
	}

	if req.SimJoin != nil {
		return s.simJoinScatter(ctx, w, plan, frags, resp, planOps)
	}

	// ---- gather: sum counts, merge rows or kNN candidates ----
	mergeStart := time.Now()
	mg := req.tr.Begin("merge")
	if req.KNN != nil {
		if resp.Rows, err = s.knnRows(frags, req.KNN.K); err != nil {
			mg.End()
			return nil, err
		}
		resp.Value = len(resp.Rows)
	} else {
		for _, frag := range frags {
			if frag != nil {
				resp.Value += frag.N
			}
		}
	}
	if plan.keep.Kind != core.KeepCount {
		if req.OrderBy != "" {
			resp.Rows, err = mergeSortedRows(ctx, frags, req.OrderBy, req.Desc, plan.limit)
			if err != nil {
				mg.End()
				return nil, err
			}
			planOps = append(planOps, "order-by("+req.OrderBy+")")
		} else {
			resp.Rows = concatRows(frags, plan.limit)
		}
		if req.Limit > 0 {
			planOps = append(planOps, "limit("+strconv.Itoa(req.Limit)+")")
		}
	}
	if len(planOps) == 0 {
		planOps = append(planOps, "scan-count")
	}
	resp.Plan = s.scatterPlan(nsh, 0, planOps, gatherLabel(req))
	mg.Attr("gather", gatherLabel(req)).AttrInt("rows", int64(len(resp.Rows))).End()
	s.mergeNS.Add(time.Since(mergeStart).Nanoseconds())
	return resp, nil
}

// gatherLabel names the merge strategy for plain (non-join) queries.
func gatherLabel(req *Request) string {
	switch {
	case req.KNN != nil:
		return "gather-knn"
	case req.OrderBy != "":
		return "gather-merge"
	case req.Limit > 0:
		return "gather-concat"
	default:
		return "gather-count"
	}
}

// scatterPlan renders the physical plan string. One shard's plan is its
// fragment pipeline, undecorated; more shards wrap the pipeline in a
// scatter[N(+C)] -> gather decoration, C being the cross-shard join
// task count.
func (s *Service) scatterPlan(nsh, cross int, fragOps []string, gather string) string {
	pipeline := strings.Join(fragOps, " -> ")
	if nsh == 1 {
		return pipeline
	}
	fan := strconv.Itoa(nsh)
	if cross > 0 {
		fan += "+" + strconv.Itoa(cross)
	}
	return "scatter[" + fan + "](" + pipeline + ") -> " + gather
}

// filterFragment runs the plan's filter stage on the fragment's snapshot
// through core's one selection path, keeping what the plan keeps. It
// only picks the method: use_index asks for the sorted index, which core
// answers from the sort orders of the replica's sealed column segments,
// sorting each on first use; anything else runs the columnar scan. Both
// fall back to the row scan for fields the store cannot columnize. The
// path that ran fixes the plan operator (see label) and the static
// cost. An unfiltered query selects every row.
func (s *Service) filterFragment(ctx context.Context, plan *fragmentPlan, frag *shardFragment) error {
	var pred core.Pred
	var method core.FilterMethod
	if plan.pred != nil {
		pred, method = *plan.pred, core.FilterColumnScan
		if plan.req.Filter.UseIndex {
			method = core.FilterIndex
		}
	}
	var err error
	if frag.Selection, err = frag.snap.Select(ctx, pred, method, plan.keep); err != nil {
		return err
	}
	if plan.pred != nil {
		frag.cost = core.FilterCost(frag.Method, frag.snap.Len(), frag.N)
	}
	return nil
}

// joinTask is one unit of the similarity-join scatter wave: a shard's
// local self-join, or the cross join between a pair of shards.
type joinTask struct {
	left, right int // shard indexes; left == right is a local self-join
	pairs       []core.Tuple
	cost        float64
	method      core.SimMethod
	dev         exec.Kind
}

// label is the task's plan operator.
func (t *joinTask) label(sj *SimJoinSpec) string {
	return fmt.Sprintf("simjoin[%s@%s](%s, eps=%g)", t.method, t.dev, sj.Field, sj.Eps)
}

// simJoinScatter executes the similarity-join stage: every shard
// self-joins its own fragment and every shard pair cross-joins (left
// fragment against right fragment), all tasks in parallel on their
// pinned devices; pair lists concatenate at the gather stage, and
// distinct queries re-cluster over the union. Missing shards have nil
// fragments (every replica failed under allow_partial): they contribute
// no tasks, and the degraded pair set covers only the surviving shards.
// resp and planOps arrive carrying the fragments' cost and filter stage.
func (s *Service) simJoinScatter(ctx context.Context, w *worker, plan *fragmentPlan, frags []*shardFragment, resp *Response, planOps []string) (*Response, error) {
	req, sj := plan.req, plan.req.SimJoin
	nsh := len(frags)

	// A shard-local vector index can only serve an unfiltered join.
	hasIndex := sj.UseIndex && req.Filter == nil

	// Task list: one local self-join per surviving shard, then one cross
	// task per non-empty surviving shard pair.
	tasks := make([]*joinTask, 0, nsh+nsh*(nsh-1)/2)
	for i := 0; i < nsh; i++ {
		if frags[i] == nil {
			continue
		}
		tasks = append(tasks, &joinTask{left: i, right: i})
	}
	cross := 0
	for i := 0; i < nsh; i++ {
		for j := i + 1; j < nsh; j++ {
			if frags[i] == nil || frags[j] == nil {
				continue
			}
			if len(frags[i].rows) == 0 || len(frags[j].rows) == 0 {
				continue // an empty side can contribute no cross pairs
			}
			tasks = append(tasks, &joinTask{left: i, right: j})
			cross++
		}
	}

	err := s.scatterWave(len(tasks), func(t int) error {
		task := tasks[t]
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.inj.Stall(ctx, fault.DeviceStall, task.left, 0); err != nil {
			return err
		}
		dev := s.taskDev(w, t)
		// Join tasks submit kernels: register with the device's batcher so
		// its idle flush knows a submitter is mid-query.
		dev.BeginSubmitter()
		defer dev.EndSubmitter()
		sp := req.tr.Begin("join-task")
		odev := s.observedDev(dev, req.tr)
		err := s.runJoin(task, sj, frags[task.left].rows, frags[task.right], hasIndex, dev, odev)
		sp.End()
		if err == nil {
			sp.AttrInt("left", int64(task.left)).
				AttrInt("right", int64(task.right)).
				AttrInt("pairs", int64(len(task.pairs)))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// ---- gather: concatenate pairs, re-cluster for distinct ----
	mergeStart := time.Now()
	mg := req.tr.Begin("merge")
	var pairs []core.Tuple
	for _, task := range tasks {
		pairs = append(pairs, task.pairs...)
		resp.EstCostSec += task.cost
	}

	// Local self-joins lead the task list: the plan shows the first
	// surviving shard's.
	planOps = append(planOps, tasks[0].label(sj))
	gather := "gather-pairs"
	if req.Distinct {
		var all []*core.Patch
		for _, frag := range frags {
			if frag == nil {
				continue
			}
			all = append(all, frag.rows...)
		}
		distinct := 0
		for _, cl := range core.Clusters(all, pairs) {
			if len(cl) >= sj.MinCluster {
				distinct++
			}
		}
		resp.Value = distinct
		planOps = append(planOps, fmt.Sprintf("distinct(min=%d)", sj.MinCluster))
		gather = fmt.Sprintf("gather-cluster(min=%d)", sj.MinCluster)
	} else {
		resp.Value = len(pairs)
	}
	resp.Plan = s.scatterPlan(nsh, cross, planOps, gather)
	mg.Attr("gather", gather).AttrInt("pairs", int64(len(pairs))).End()
	s.mergeNS.Add(time.Since(mergeStart).Nanoseconds())
	return resp, nil
}

// runJoin executes one join task: shard left's rows against shard
// right's fragment, probing the vector index of the replica that
// answered it when the plan allows. A local task (left == right) dedups
// unordered pairs; a cross task needs no dedup — the two row sets are
// disjoint (every patch has one home shard), so each qualifying
// cross-shard pair materializes exactly once, which together with the
// deduped local self-joins reproduces a single partition's
// DedupUnordered pair set.
func (s *Service) runJoin(task *joinTask, sj *SimJoinSpec, left []*core.Patch, rf *shardFragment, hasIndex bool, dev *exec.Batcher, odev exec.Device) error {
	// Priced for the task's device, which runs the batched kernels; the
	// other methods run on the host.
	sp := rf.snap.PlanSimilarityJoin(sj.Field, len(left), rf.rows, hasIndex, dev.Kind())
	task.cost, task.method, task.dev = sp.EstCost, sp.Method, dev.Kind()
	// The join index is the replica's maintained one at the fragment's
	// own snapshot: rows appended since the fragment ran must not join.
	var err error
	task.pairs, err = rf.snap.SimilarityJoin(sp.Method, left, rf.rows, core.SimilarityJoinOpts{
		LeftField: sj.Field, RightField: sj.Field,
		Eps: sj.Eps, DedupUnordered: task.left == task.right, Device: odev,
	})
	return err
}

// scatterState is a request's scatter bookkeeping: one fragment slot per
// shard, which the inline path fills, the fragments the gather reads
// (nil = missing shard) and each shard's error. It comes from
// scatterStates and goes back, cleared, when executeScatter returns;
// states for more than maxPooledShards shards are dropped, so the pool
// holds only small objects. A slot keeps the arrays its join rows were
// materialized into, up to maxPooledJoinRows rows.
type scatterState struct {
	slab  []shardFragment
	frags []*shardFragment
	errs  []error
}

var scatterStates = sync.Pool{New: func() any { return new(scatterState) }}

// maxPooledShards is the largest fan-out whose scatterState is reused.
const maxPooledShards = 16

// maxPooledJoinRows is the most join rows a pooled fragment slot keeps
// room for.
const maxPooledJoinRows = 4096

func getScatterState(nsh int) *scatterState {
	st := scatterStates.Get().(*scatterState)
	if cap(st.slab) < nsh {
		st.slab = make([]shardFragment, nsh)
		st.frags = make([]*shardFragment, nsh)
		st.errs = make([]error, nsh)
	}
	st.slab, st.frags, st.errs = st.slab[:nsh], st.frags[:nsh], st.errs[:nsh]
	return st
}

// release clears st, dropping its snapshots and rows, and returns it to
// the pool. Every fragment attempt that writes to the slab has returned
// by then: hedged attempts write their own fragments.
func (st *scatterState) release() {
	if cap(st.slab) > maxPooledShards {
		return
	}
	for i := range st.slab {
		f := &st.slab[i]
		rows, block := f.rows[:0], f.block[:0]
		if cap(block) > maxPooledJoinRows {
			rows, block = nil, nil
		}
		clear(rows[:cap(rows)])
		clear(block[:cap(block)])
		*f = shardFragment{rows: rows, block: block}
	}
	clear(st.frags)
	clear(st.errs)
	scatterStates.Put(st)
}

// concatRows concatenates the fragments' kept rows in shard order, up to
// limit, read straight from each fragment's snapshot into the response.
// Nil fragments (missing shards) contribute nothing.
func concatRows(frags []*shardFragment, limit int) []Row {
	n := 0
	for _, frag := range frags {
		if frag != nil {
			n += len(frag.Sel)
		}
	}
	rows := make([]Row, 0, min(n, limit))
	for _, frag := range frags {
		if frag == nil {
			continue
		}
		tab := frag.snap.Table()
		for _, r := range frag.Sel[:min(len(frag.Sel), limit-len(rows))] {
			rows = append(rows, Row{tab: tab, pos: r})
		}
	}
	return rows
}

// rowCursor is one shard's sorted, trimmed kept rows being consumed by
// the merge, and a view of its head row.
type rowCursor struct {
	frag *shardFragment
	pos  int
	head core.Patch
}

// next moves the cursor to its pos'th row and reports whether it has
// one.
func (c *rowCursor) next() bool {
	if c.pos == len(c.frag.Sel) {
		return false
	}
	c.frag.snap.Table().View(int(c.frag.Sel[c.pos]), &c.head)
	return true
}

// row is the handle on the cursor's head.
func (c *rowCursor) row() Row { return Row{tab: c.frag.snap.Table(), pos: c.frag.Sel[c.pos]} }

// mergeCursors is the fan-out up to which the merge's cursors live on
// the stack.
const mergeCursors = 16

// mergeSortedRows merges the shards' sorted row fragments into the
// global top-limit rows: each step takes the best head of at most nsh
// cursors, ties to the lowest shard, which is a stable
// concatenate-then-sort of the shards' rows. Each shard trimmed its
// fragment to the limit already, so the merge touches at most nsh*limit
// rows no matter how large the collection is. Nil fragments (missing
// shards on a degraded query) contribute no cursor; the merge checks ctx
// periodically so a query that times out mid-gather stops there.
func mergeSortedRows(ctx context.Context, frags []*shardFragment, field string, desc bool, limit int) ([]Row, error) {
	var buf [mergeCursors]rowCursor
	curs, n := buf[:0], 0
	for _, frag := range frags {
		if frag != nil && len(frag.Sel) > 0 {
			curs = append(curs, rowCursor{frag: frag})
			curs[len(curs)-1].next()
			n += len(frag.Sel)
		}
	}
	out := make([]Row, 0, min(n, limit))
	for len(curs) > 0 && len(out) < limit {
		if len(out)%mergeCtxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		best := 0
		for c := 1; c < len(curs); c++ {
			if core.CompareBy(&curs[c].head, &curs[best].head, field, desc) < 0 {
				best = c
			}
		}
		cur := &curs[best]
		out = append(out, cur.row())
		if cur.pos++; !cur.next() {
			curs = append(curs[:best], curs[best+1:]...)
		}
	}
	return out, nil
}

// mergeCtxCheckRows is the output-row stride between cancellation
// checks in the merge (a step compares every head, so the stride is
// tighter than core's scan-loop stride).
const mergeCtxCheckRows = 32
