package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/video"
)

func TestFig2EncodingShape(t *testing.T) {
	cfg := tinyCfg()
	cfg.TrafficFrames = 90
	rows, err := Fig2Encoding(cfg, 6, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	raw, high, low := rows[0], rows[1], rows[3]
	if raw.Format != "RAW" || raw.Ratio != 1 {
		t.Fatalf("first row %+v", raw)
	}
	// Paper shape: encoded is dramatically smaller; high quality keeps
	// accuracy within a whisker of RAW; low quality degrades.
	if high.Ratio < 10 {
		t.Fatalf("high-quality compression ratio %.1f below 10x", high.Ratio)
	}
	if low.Bytes >= high.Bytes {
		t.Fatalf("low (%d B) not smaller than high (%d B)", low.Bytes, high.Bytes)
	}
	if high.Accuracy < raw.Accuracy-0.05 {
		t.Fatalf("high-quality accuracy %.3f dropped more than 0.05 from RAW %.3f", high.Accuracy, raw.Accuracy)
	}
	if low.Accuracy > high.Accuracy+1e-9 {
		t.Fatalf("low quality accuracy %.3f not <= high %.3f", low.Accuracy, high.Accuracy)
	}
}

func TestFig3FormatsShape(t *testing.T) {
	cfg := tinyCfg()
	cfg.TrafficFrames = 150
	rows, err := Fig3Formats(cfg, 20, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	byFmt := map[string]Fig3Row{}
	for _, r := range rows {
		byFmt[r.Format] = r
	}
	// Pushdown formats decode only the window; the sequential stream
	// decodes its whole prefix.
	if byFmt[video.FormatRaw.String()].Frames != 20 {
		t.Fatalf("raw decoded %d frames", byFmt[video.FormatRaw.String()].Frames)
	}
	if byFmt[video.FormatDLV.String()].Frames <= 20 {
		t.Fatalf("sequential DLV decoded only %d frames (pushdown impossible)",
			byFmt[video.FormatDLV.String()].Frames)
	}
	seg := byFmt[video.FormatSegmented.String()].Frames
	if seg < 20 || seg > 80 {
		t.Fatalf("segmented decoded %d frames, want coarse window", seg)
	}
	// The figure's latency gap is this decode count: DLV decodes more
	// frames than the segmented format for the same window.
	if dlv := byFmt[video.FormatDLV.String()].Frames; dlv <= seg {
		t.Fatalf("sequential DLV decoded %d frames, not more than segmented's %d", dlv, seg)
	}
}

func TestFig4And5Shapes(t *testing.T) {
	e := newTestEnv(t)
	rows, err := Fig4Indexes(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("fig4 rows = %d", len(rows))
	}
	// q3 and q5 scan a column store: each arm is timed once, so both
	// must find it built, or the first pays the projection on the clock.
	for _, r := range rows {
		if (r.Query == "q3" || r.Query == "q5") && r.Columns != [2]core.Refresh{core.RefreshHit, core.RefreshHit} {
			t.Fatalf("%s arms' column stores %v on the clock, want both hits", r.Query, r.Columns)
		}
		// q5 has one plan (the paper's ~1x): its arms must do the same
		// work, counted in rows, not timed.
		if r.Query == "q5" && (r.RowsScanned[0] == 0 || r.RowsScanned[0] != r.RowsScanned[1]) {
			t.Fatalf("q5 arms scanned %v rows, want one nonzero count", r.RowsScanned)
		}
	}
	// The image-matching and lineage queries must benefit. (Factors grow
	// with scale — the paper reports 612x at full scale; this guards the
	// direction at test scale.) Each benefit is counted work, so it holds
	// on any host load: the distances the matching queries' tuned plans
	// skip, and the detection rows q3's lineage pointers skip. Wall-clock
	// speedups are only logged.
	evals := func(fn func(bool) (QueryResult, error)) (nested, tuned int) {
		t.Helper()
		base, err := fn(false)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := fn(true)
		if err != nil {
			t.Fatal(err)
		}
		if base.Value != fast.Value {
			t.Fatalf("%s: tuned answer %d, nested %d", base.Query, fast.Value, base.Value)
		}
		return base.DistEvals, fast.DistEvals
	}
	for _, c := range []struct {
		name  string
		fn    func(bool) (QueryResult, error)
		ratio float64
	}{{"q1", e.Q1, 0.75}, {"q4", e.Q4, 0.5}} {
		nested, tuned := evals(c.fn)
		t.Logf("%s distance evaluations: nested %d, tuned %d", c.name, nested, tuned)
		if nested == 0 || float64(tuned) > c.ratio*float64(nested) {
			t.Fatalf("%s tuned plan evaluated %d distances, above %.2fx the nested loop's %d",
				c.name, tuned, c.ratio, nested)
		}
	}
	// Single runs are microsecond-scale on a warm env, so take min-of-N
	// to de-noise.
	minSpeedup := func(fn func(bool) (QueryResult, error)) float64 {
		t.Helper()
		best := func(tuned bool) float64 {
			m := 1e18
			for i := 0; i < 5; i++ {
				r, err := fn(tuned)
				if err != nil {
					t.Fatal(err)
				}
				if d := float64(r.Duration); d < m {
					m = d
				}
			}
			return m
		}
		return best(false) / best(true)
	}
	// q3's lineage arm examines one detection per hit; the rescan
	// compares detections until each hit's match. Both find the same
	// trajectory.
	rescan, err := e.Q3(false)
	if err != nil {
		t.Fatal(err)
	}
	lineage, err := e.Q3(true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("q3 detection rows examined: rescan %d in %v, lineage %d in %v",
		rescan.RowsExamined, rescan.Duration, lineage.RowsExamined, lineage.Duration)
	if lineage.Value != rescan.Value || lineage.Value == 0 {
		t.Fatalf("q3: lineage answer %d, rescan %d", lineage.Value, rescan.Value)
	}
	if lineage.RowsExamined >= rescan.RowsExamined {
		t.Fatalf("q3: lineage examined %d detection rows, the rescan %d", lineage.RowsExamined, rescan.RowsExamined)
	}
	if !raceEnabled {
		t.Logf("wall-clock speedups: q4 %.1fx, q1 %.1fx, q3 %.1fx", minSpeedup(e.Q4), minSpeedup(e.Q1), minSpeedup(e.Q3))
	}

	rows5, err := Fig5Pipeline(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows5) != 6 {
		t.Fatalf("fig5 rows = %d", len(rows5))
	}
	for _, r := range rows5 {
		if r.BL <= 0 || r.DL <= 0 {
			t.Fatalf("fig5 %s nonpositive times %+v", r.Query, r)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6IndexBuild([]int{1000, 4000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]map[int]float64{}
	for _, r := range rows {
		if times[r.Index] == nil {
			times[r.Index] = map[int]float64{}
		}
		times[r.Index][r.N] = r.Build.Seconds()
	}
	for _, name := range []string{"hash", "btree", "sortedfile", "rtree", "balltree"} {
		if times[name][1000] <= 0 || times[name][4000] <= 0 {
			t.Fatalf("%s missing measurements: %v", name, times[name])
		}
		if times[name][4000] <= times[name][1000]/2 {
			t.Fatalf("%s build time did not grow with n: %v", name, times[name])
		}
	}
	// Paper shape: R-tree construction is far slower than the B+ tree
	// (ratio grows with n; 1.5x is the conservative floor at this size
	// that holds under parallel-suite load). The race detector distorts
	// the two structures' costs non-uniformly, so skip the ratio there.
	if !raceEnabled && times["rtree"][4000] < 1.5*times["btree"][4000] {
		t.Fatalf("rtree (%.4fs) not clearly slower than btree (%.4fs)",
			times["rtree"][4000], times["btree"][4000])
	}
}

// TestFig7Shape: the ball-tree join's counted distance evaluations grow
// with the indexed relation's size, and are higher in high dimension.
func TestFig7Shape(t *testing.T) {
	rows, err := Fig7BallTreeJoin([]int{500, 4000}, []int{4, 64}, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	get := func(n, dim int) int {
		for _, r := range rows {
			if r.BuildSize == n && r.Dim == dim {
				t.Logf("n=%d dim=%d: %d evaluations in %v", n, dim, r.Evals, r.Join)
				return r.Evals
			}
		}
		t.Fatalf("missing row n=%d dim=%d", n, dim)
		return 0
	}
	if get(4000, 64) <= get(500, 64) {
		t.Fatal("high-dim join evaluations did not grow with build size")
	}
	if get(4000, 64) <= get(4000, 4) {
		t.Fatal("high-dim join evaluations not above low-dim")
	}
}

func TestTable1Shape(t *testing.T) {
	e := newTestEnv(t)
	rows, err := Table1Plans(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	a, b := rows[0], rows[1]
	// Paper shape: match-before-filter is slower but at least as accurate
	// in recall.
	if b.Runtime < a.Runtime {
		t.Fatalf("match-first (%v) faster than filter-first (%v)", b.Runtime, a.Runtime)
	}
	if b.Recall < a.Recall-1e-9 {
		t.Fatalf("match-first recall %.3f below filter-first %.3f", b.Recall, a.Recall)
	}
	if a.Recall <= 0 || a.Precision <= 0 {
		t.Fatalf("degenerate accuracy %+v", a)
	}
}

func TestAblations(t *testing.T) {
	e := newTestEnv(t)
	lshRows, err := AblationLSH(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(lshRows) != 2 || lshRows[1].Recall < 0.3 {
		t.Fatalf("lsh ablation %+v", lshRows)
	}
	segRows, err := AblationSegment(tinyCfg(), []uint64{8, 64}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(segRows) != 2 {
		t.Fatalf("segment ablation rows = %d", len(segRows))
	}
	// Longer clips compress better (fewer I-frames).
	if segRows[1].Bytes >= segRows[0].Bytes {
		t.Fatalf("clip 64 (%d B) not smaller than clip 8 (%d B)", segRows[1].Bytes, segRows[0].Bytes)
	}
	bsRows, err := AblationBuildSide(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(bsRows) != 2 || bsRows[0].Pairs != bsRows[1].Pairs {
		t.Fatalf("build-side ablation %+v", bsRows)
	}
}

func TestAblationKDTreeShape(t *testing.T) {
	rows, err := AblationKDTree([]int{4, 64}, 3000, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// High dimension must favor the ball tree (the paper's §3.2 finding).
	high := rows[1]
	if high.Dim != 64 {
		t.Fatalf("row order: %+v", rows)
	}
	if high.BallTree >= high.KDTree {
		t.Fatalf("dim 64: ball tree (%v) not faster than kd-tree (%v)", high.BallTree, high.KDTree)
	}
}

func TestSynthesizedQ6Pipeline(t *testing.T) {
	e := newTestEnv(t)
	sp, err := e.SynthesizeQ6Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Generator.Name != "ssd-sim" {
		t.Fatalf("generator %s", sp.Generator.Name)
	}
	found := false
	for _, tr := range sp.Transformers {
		if tr.Name == "depth" {
			found = true
		}
	}
	if !found {
		t.Fatalf("depth transformer missing: %s", sp.Explain)
	}
	// The synthesized pipeline must actually run: one frame in, detection
	// patches with depth out.
	img, _ := e.Traffic.Render(30)
	frame := framePatch("synth", 30, img)
	ps, err := core.Collect(sp.Build(core.FromPatches([]*core.Patch{frame})))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("synthesized pipeline produced no patches")
	}
	for _, p := range ps {
		if _, ok := p.Get("depth"); !ok {
			t.Fatalf("patch %d lacks depth", p.ID)
		}
	}
}

func TestEnvReuseSkipsETL(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyCfg()
	cfg.TrafficFrames = 60
	cfg.PCImages = 20
	cfg.FootballClips = 1
	cfg.FootballClipLen = 10
	e1, err := NewEnv(dir, cfg, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	col, _ := e1.DB.Collection(ColTrafficDets)
	want := col.Len()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	e2, err := NewEnv(dir, cfg, exec.New(exec.CPU))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if time.Since(start) > 2*time.Second {
		t.Fatal("reopen appears to have re-run ETL")
	}
	col2, err := e2.DB.Collection(ColTrafficDets)
	if err != nil {
		t.Fatal(err)
	}
	if col2.Len() != want {
		t.Fatalf("reused collection has %d patches, want %d", col2.Len(), want)
	}
	// Queries work against the reused database.
	res, err := e2.Q2(false)
	if err != nil || res.Value == 0 {
		t.Fatalf("q2 on reused env: %+v, %v", res, err)
	}
}
