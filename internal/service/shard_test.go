package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
)

// Scatter-gather tests: the sharded execution path against synthetic
// collections built directly through the storage layer (no ETL), so the
// matrix runs in milliseconds and the N=1 golden comparison can pin
// byte-identical behavior against the unsharded path.

const shardTestCol = "synth.dets"

func synthSchema() core.Schema {
	return core.Schema{
		Data: core.Pixels(0, 0),
		Fields: []core.Field{
			{Name: "label", Kind: core.KindStr},
			{Name: "score", Kind: core.KindFloat},
			{Name: "rank", Kind: core.KindInt},
			{Name: "emb", Kind: core.KindVec, VecDim: 8},
		},
	}
}

// synthPatch generates row i deterministically: clustered embeddings
// (i%7 picks the cluster center; members sit within 0.1 of it) so
// similarity joins produce pairs, and low-cardinality score/rank fields
// so order-by queries tie heavily across shards.
func synthPatch(i int) *core.Patch {
	emb := make([]float32, 8)
	cluster := i % 7
	for d := range emb {
		emb[d] = float32(cluster*10) + float32((i/7)%3)*0.03
	}
	return &core.Patch{
		Ref: core.Ref{Source: "synth", Frame: uint64(i)},
		Meta: core.Metadata{
			"label": core.StrV([]string{"car", "pedestrian", "bus"}[i%3]),
			"score": core.FloatV(float64(i % 4)),
			"rank":  core.IntV(int64(i % 6)),
			"emb":   core.VecV(emb),
		},
	}
}

func fillSynth(t *testing.T, appendFn func(*core.Patch) error, rows int) {
	t.Helper()
	for i := 0; i < rows; i++ {
		if err := appendFn(synthPatch(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// synthUnsharded builds a plain DB + service over `rows` synthetic rows.
func synthUnsharded(t *testing.T, rows int, cfg Config) (*core.DB, *Service) {
	t.Helper()
	db, err := core.Open(filepath.Join(t.TempDir(), "plain.db"), exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	col, err := db.CreateCollection(shardTestCol, synthSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillSynth(t, col.Append, rows)
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return db, s
}

// synthSharded builds an n-shard Sharded + service over the same rows.
func synthSharded(t *testing.T, n, rows int, cfg Config) (*core.Sharded, *Service) {
	t.Helper()
	sdb, err := core.OpenSharded(filepath.Join(t.TempDir(), "sharded"), n, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	sc, err := sdb.CreateCollection(shardTestCol, synthSchema())
	if err != nil {
		t.Fatal(err)
	}
	fillSynth(t, sc.Append, rows)
	s, err := NewSharded(sdb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return sdb, s
}

// queryMatrix is the full shape matrix the golden comparison runs:
// counts, indexed and scan filters, ordered and unordered projections
// with ties, empty results, similarity joins (scan, indexed, filtered)
// and distinct clustering.
func queryMatrix() []Request {
	str := func(s string) *string { return &s }
	return []Request{
		{Collection: shardTestCol},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("car")}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("pedestrian"), UseIndex: true}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("tricycle")}}, // empty result
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "score", Float: fp(2)}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "score", Min: fp(1), Max: fp(3)}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Min: fp(2)}, OrderBy: "score", Limit: 6},
		{Collection: shardTestCol, Limit: 7},
		{Collection: shardTestCol, OrderBy: "score", Limit: 5},
		{Collection: shardTestCol, OrderBy: "rank", Desc: true, Limit: 9},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("bus")}, OrderBy: "rank", Limit: 4},
		{Collection: shardTestCol, OrderBy: "score"}, // order without explicit limit (maxRows cap)
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}},
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2, UseIndex: true}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("car")},
			SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}},
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2, MinCluster: 2}, Distinct: true},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("pedestrian"), UseIndex: true},
			SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.25, MinCluster: 1}, Distinct: true},
		// B-tree range probes (float, int, fractional bounds over ints).
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "score", Min: fp(1), Max: fp(3), UseIndex: true}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Min: fp(1.5), Max: fp(4.5), UseIndex: true}},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Min: fp(2), UseIndex: true}},
		// kNN: planned, pinned-exact, and forced-index forms.
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 5, Query: knnQ(3)}},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 8, Query: knnQ(1), Exact: true}},
		{Collection: shardTestCol, KNN: &KNNSpec{Field: "emb", K: 4, Query: knnQ(5), UseIndex: true}},
	}
}

func fp(f float64) *float64 { return &f }

// goldenKey reduces a response to the bytes the frozen matrix pins:
// answer, rows, plan, fingerprint and cost estimate (serving metadata
// like durations naturally differs).
func goldenKey(t *testing.T, r *Response) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"value": r.Value,
		"rows":  r.Rows,
		"plan":  r.Plan,
		"fp":    r.Fingerprint,
		"cost":  r.EstCostSec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// updateGolden regenerates the frozen matrix from New(db)'s responses
// (go test ./internal/service -run Golden -update). A test flag, not a
// runtime option.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_matrix.json from New(db)'s responses")

const goldenMatrixFile = "testdata/golden_matrix.json"

// checkGoldenMatrix asserts that both constructors, each over a fresh
// 240-row database, reproduce the named section of the frozen matrix
// byte for byte. The file was recorded from the unsharded executor
// before it was deleted, so it pins fan-out-1 behaviour (values, rows,
// plan strings, fingerprints, cost estimates) to that path's.
func checkGoldenMatrix(t *testing.T, section string, reqs []Request) {
	t.Helper()
	const rows = 240
	cfg := Config{Workers: 2}
	_, plain := synthUnsharded(t, rows, cfg)
	_, sharded := synthSharded(t, 1, rows, cfg)
	ctx := context.Background()

	golden := map[string][]json.RawMessage{}
	raw, err := os.ReadFile(goldenMatrixFile)
	if err == nil {
		err = json.Unmarshal(raw, &golden)
	}
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	if *updateGolden {
		golden[section] = nil
		for qi, req := range reqs {
			r, err := plain.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s %d New: %v", section, qi, err)
			}
			golden[section] = append(golden[section], json.RawMessage(goldenKey(t, r)))
		}
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMatrixFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := golden[section]
	if len(want) != len(reqs) {
		t.Fatalf("%s holds %d %s entries, the matrix has %d (rerun with -update)",
			goldenMatrixFile, len(want), section, len(reqs))
	}
	for qi, req := range reqs {
		var frozen bytes.Buffer
		if err := json.Compact(&frozen, want[qi]); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			svc  *Service
		}{{"New", plain}, {"NewSharded(1)", sharded}} {
			r, err := c.svc.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s %d %s: %v", section, qi, c.name, err)
			}
			if got := goldenKey(t, r); got != frozen.String() {
				t.Errorf("%s %d diverges from %s:\n  %s: %s\n  frozen: %s",
					section, qi, goldenMatrixFile, c.name, got, frozen.String())
			}
		}
	}
}

// TestShardedN1GoldenEquivalence: at fan-out 1 both constructors
// reproduce the frozen query matrix.
func TestShardedN1GoldenEquivalence(t *testing.T) {
	checkGoldenMatrix(t, "query", queryMatrix())
}

// TestScatterGatherValueEquivalence: counts, pair counts and cluster
// counts are shard-count invariant (row order may differ, answers may
// not) — checked at N=2..5 against the unsharded reference.
func TestScatterGatherValueEquivalence(t *testing.T) {
	const rows = 240
	cfg := Config{Workers: 2}
	_, plain := synthUnsharded(t, rows, cfg)
	ctx := context.Background()
	want := make([]int, 0, len(queryMatrix()))
	for qi, req := range queryMatrix() {
		r, err := plain.Query(ctx, req)
		if err != nil {
			t.Fatalf("query %d unsharded: %v", qi, err)
		}
		want = append(want, r.Value)
	}
	for _, n := range []int{2, 3, 5} {
		_, sharded := synthSharded(t, n, rows, cfg)
		for qi, req := range queryMatrix() {
			r, err := sharded.Query(ctx, req)
			if err != nil {
				t.Fatalf("query %d sharded N=%d: %v", qi, n, err)
			}
			if r.Value != want[qi] {
				t.Errorf("query %d: sharded N=%d value %d, unsharded %d (plan %s)",
					qi, n, r.Value, want[qi], r.Plan)
			}
		}
	}
}

// TestScatterTopKTiesAcrossShards: the k-way heap merge must produce
// globally sorted rows under heavy cross-shard ties, deterministically.
func TestScatterTopKTiesAcrossShards(t *testing.T) {
	const rows = 200
	_, svc := synthSharded(t, 4, rows, Config{Workers: 2})
	ctx := context.Background()
	req := Request{Collection: shardTestCol, OrderBy: "score", Limit: 20, NoCache: true}
	first, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 20 {
		t.Fatalf("top-k returned %d rows, want 20", len(first.Rows))
	}
	// Globally sorted: the merged scores are the 20 smallest, ascending.
	var all []float64
	for i := 0; i < rows; i++ {
		all = append(all, float64(i%4))
	}
	sort.Float64s(all)
	for i, row := range first.Rows {
		got := rowField(row, "score").(float64)
		if got != all[i] {
			t.Fatalf("row %d score %g, want %g (merge not globally sorted)", i, got, all[i])
		}
	}
	// Deterministic under ties: reruns yield the identical row sequence.
	for run := 0; run < 3; run++ {
		again, err := svc.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Fatalf("tie-broken merge order not deterministic (run %d)", run)
		}
	}
}

// TestScatterEmptyShard: shard counts far above the row count leave
// shards empty; every merge (count, rows, pairs, clusters) must cope.
func TestScatterEmptyShard(t *testing.T) {
	_, svc := synthSharded(t, 6, 5, Config{Workers: 2})
	ctx := context.Background()
	str := func(s string) *string { return &s }
	for qi, req := range []Request{
		{Collection: shardTestCol},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("car")}},
		{Collection: shardTestCol, OrderBy: "score", Limit: 10},
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}},
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2, MinCluster: 1}, Distinct: true},
	} {
		if _, err := svc.Query(ctx, req); err != nil {
			t.Fatalf("query %d over sparse shards: %v", qi, err)
		}
	}
	// Fully empty collection: zero rows everywhere.
	sdb2, svc2 := synthSharded(t, 4, 0, Config{Workers: 1})
	if got := mustQuery(t, svc2, Request{Collection: shardTestCol}).Value; got != 0 {
		t.Fatalf("empty sharded collection count = %d", got)
	}
	if got := mustQuery(t, svc2, Request{Collection: shardTestCol,
		SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.5}}).Value; got != 0 {
		t.Fatalf("empty sharded simjoin pairs = %d", got)
	}
	_ = sdb2
}

func mustQuery(t *testing.T, s *Service, req Request) *Response {
	t.Helper()
	r, err := s.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestScatterPlanDecoration: multi-shard plans surface the fan-out and
// gather stages; single-shard plans stay bare (the N=1 contract).
func TestScatterPlanDecoration(t *testing.T) {
	_, svc := synthSharded(t, 4, 120, Config{Workers: 2})
	r := mustQuery(t, svc, Request{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}})
	if want := "scatter[4+"; len(r.Plan) < len(want) || r.Plan[:len(want)] != want {
		t.Fatalf("sharded simjoin plan %q does not surface cross-shard fan-out", r.Plan)
	}
	st := svc.Stats()
	if st.Shards != 4 || len(st.ShardInfo) != 4 {
		t.Fatalf("stats shards = %d / %d infos", st.Shards, len(st.ShardInfo))
	}
	rowsTotal := 0
	for _, si := range st.ShardInfo {
		rowsTotal += si.Rows
	}
	if rowsTotal != 120 {
		t.Fatalf("per-shard row counts sum to %d, want 120", rowsTotal)
	}
	if st.ScatterQueries < 1 || st.ScatterTasks < 4 {
		t.Fatalf("scatter counters not recorded: %+v", st)
	}
}

// TestScatterAppendInvalidatesComposite: an append that lands on a
// single shard must invalidate version-keyed cached results exactly
// like an unsharded append.
func TestScatterAppendInvalidatesComposite(t *testing.T) {
	sdb, svc := synthSharded(t, 3, 90, Config{Workers: 1})
	ctx := context.Background()
	req := Request{Collection: shardTestCol}
	r1, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || r2.Value != 90 {
		t.Fatalf("second query not served from cache: hit=%v value=%d", r2.CacheHit, r2.Value)
	}
	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Append(synthPatch(90)); err != nil {
		t.Fatal(err)
	}
	r3, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Fatal("stale cache hit after single-shard append (composite version did not move)")
	}
	if r3.Value != 91 {
		t.Fatalf("post-append count = %d, want 91", r3.Value)
	}
	if r3.Fingerprint == r1.Fingerprint {
		t.Fatal("fingerprint unchanged after append")
	}
}

// TestScatterConcurrentAppendsHammer: scattered queries race appends
// across every shard; run under -race this doubles as the memory-model
// check for per-shard snapshots feeding parallel fragments.
func TestScatterConcurrentAppendsHammer(t *testing.T) {
	sdb, svc := synthSharded(t, 3, 60, Config{Workers: 4})
	sc, err := sdb.Collection(shardTestCol)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const appends = 120
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := sc.Append(synthPatch(60 + i)); err != nil {
				panic(fmt.Sprintf("append during scatter: %v", err))
			}
		}
	}()
	str := func(s string) *string { return &s }
	reqs := []Request{
		{Collection: shardTestCol, NoCache: true},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "label", Str: str("car")}, NoCache: true},
		{Collection: shardTestCol, OrderBy: "score", Limit: 8, NoCache: true},
		{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}, NoCache: true},
		{Collection: shardTestCol, Filter: &FilterSpec{Field: "rank", Int: ip(2)}, OrderBy: "rank", Limit: 3, NoCache: true},
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := reqs[(c+i)%len(reqs)]
				if _, err := svc.Query(ctx, req); err != nil {
					panic(fmt.Sprintf("scattered query during appends: %v", err))
				}
			}
		}(c)
	}
	wg.Wait()
	// Quiesced: the final count reflects every append.
	r := mustQuery(t, svc, Request{Collection: shardTestCol, NoCache: true})
	if r.Value != 60+appends {
		t.Fatalf("post-hammer count = %d, want %d", r.Value, 60+appends)
	}
}

func ip(i int64) *int64 { return &i }

// TestShardedServiceRejectsNil guards the constructor contract.
func TestShardedServiceRejectsNil(t *testing.T) {
	if _, err := NewSharded(nil, Config{}); err == nil {
		t.Fatal("NewSharded(nil) succeeded")
	}
}

// TestJoinTaskKeepsWorkerDeviceAtFanOutOne: a one-shard query's single
// join task runs on its worker's own batcher, so two workers joining
// concurrently use both devices instead of serializing on device 0. A
// device-stall fault holds the first join on its worker long enough
// that the second query must be claimed by the other worker. The
// devices are AVX, whose batched kernel the planner prices below the
// host's nested loop, so each join runs on its device.
func TestJoinTaskKeepsWorkerDeviceAtFanOutOne(t *testing.T) {
	cfg := Config{Workers: 2, Devices: 2, Device: exec.AVX, Faults: fault.Config{Seed: 1, Rules: []fault.Rule{
		{Point: fault.DeviceStall, Shard: fault.Any, Replica: fault.Any, Prob: 1, Stall: 300 * time.Millisecond}}}}
	_, plain := synthUnsharded(t, 120, cfg)
	_, sharded := synthSharded(t, 1, 120, cfg)
	for name, svc := range map[string]*Service{"New": plain, "NewSharded(1)": sharded} {
		join := Request{Collection: shardTestCol, SimJoin: &SimJoinSpec{Field: "emb", Eps: 0.2}, NoCache: true}
		var wg sync.WaitGroup
		for q := 0; q < 2; q++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := svc.Query(context.Background(), join); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}()
			// Launch the next join only once a worker holds this one.
			for st := svc.Stats(); st.InFlight != int64(q+1) || st.QueueDepth != 0; st = svc.Stats() {
				time.Sleep(time.Millisecond)
			}
		}
		wg.Wait()
		for i, b := range svc.batchers {
			if b.Stats().Kernels == 0 {
				t.Errorf("%s: device %d ran no kernels across two concurrent one-shard joins", name, i)
			}
		}
	}
}

// TestDeviceBoundsMatchTaskPlacement: at one shard each device's batch
// bound is the number of workers taskDev places on it, every submitter
// that can block there. Over 3 shards it is 3 per worker spread over the
// devices, capped at 16 (internal/exec's TestBatchBoundSweep kept it),
// which never exceeds the submitters a join's tasks, one per shard pair,
// place on the device, so a size flush can always fire.
func TestDeviceBoundsMatchTaskPlacement(t *testing.T) {
	for _, n := range []int{1, 3} {
		sdb, err := core.OpenSharded(filepath.Join(t.TempDir(), "sharded"), n, exec.New(exec.CPU))
		if err != nil {
			t.Fatal(err)
		}
		joinTasks := 0
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				joinTasks++
			}
		}
		for _, workers := range []int{1, 2, 4, 5} {
			for _, devices := range []int{1, 2, 3} {
				s, err := NewSharded(sdb, Config{Workers: workers, Devices: devices})
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
				d := s.cfg.Devices
				placed := make(map[*exec.Batcher]int)
				for w := 0; w < workers; w++ {
					for task := 0; task < joinTasks; task++ {
						placed[s.taskDev(&worker{id: w}, task)]++
					}
				}
				bounds := deviceBounds(workers, d, n)
				for i, b := range s.batchers {
					want := placed[b]
					if n > 1 {
						want = min((workers*n+d-1)/d, 16)
						if want > placed[b] {
							t.Errorf("W=%d D=%d N=%d: device %d bound %d exceeds the %d submitters placed on it",
								workers, d, n, i, want, placed[b])
						}
					} else {
						perDevice := workers / d
						if i < workers%d {
							perDevice++
						}
						if want != perDevice {
							t.Errorf("W=%d D=%d: taskDev places %d workers on device %d, round-robin %d", workers, d, want, i, perDevice)
						}
					}
					if bounds[i] != want {
						t.Errorf("W=%d D=%d N=%d: device %d bound %d, want %d", workers, d, n, i, bounds[i], want)
					}
				}
			}
		}
		sdb.Close()
	}
}

// TestDevicesReachedByPlacement: the service builds no device its
// scatter never places a task on. Over W workers and N shards, worker
// w's task t (t below N(N+1)/2, the most tasks a join has) runs on
// device placeDev(w, t, D), and every device built is one of those; at
// W = 4, N = 2, D = 8 that is six. No device's batch bound exceeds the
// tasks placed on it.
func TestDevicesReachedByPlacement(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		for _, n := range []int{1, 2, 3} {
			for d := 1; d <= 12; d++ {
				cfg := Config{Workers: w, Devices: d}.withDefaults(n)
				placed := make([]int, cfg.Devices)
				for wk := 0; wk < w; wk++ {
					for task := 0; task < n*(n+1)/2; task++ {
						placed[placeDev(wk, task, cfg.Devices)]++
					}
				}
				for i, b := range deviceBounds(w, cfg.Devices, n) {
					if placed[i] == 0 {
						t.Errorf("W=%d N=%d D=%d: device %d of %d is built but no task is placed on it", w, n, d, i, cfg.Devices)
					}
					if b > placed[i] {
						t.Errorf("W=%d N=%d D=%d: device %d bound %d exceeds the %d tasks placed on it", w, n, d, i, b, placed[i])
					}
				}
			}
		}
	}
	if got := (Config{Workers: 4, Devices: 8}).withDefaults(2).Devices; got != 6 {
		t.Fatalf("W=4 N=2 D=8 builds %d devices, want 6", got)
	}
}
