package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/vision"
)

// tinyCfg keeps the test-time ETL under a couple of seconds.
func tinyCfg() dataset.Config {
	c := dataset.Default()
	c.TrafficFrames = 240
	c.PCImages = 150
	c.FootballClips = 2
	c.FootballClipLen = 25
	return c
}

var (
	sharedEnv     *Env
	sharedEnvDir  string
	sharedEnvErr  error
	sharedEnvOnce sync.Once
)

// TestMain runs the tests under a private TMPDIR and fails the run if an
// experiment leaves a dl-bench-* directory there; the shared
// environment's directory is removed first.
func TestMain(m *testing.M) { os.Exit(runTests(m)) }

func runTests(m *testing.M) int {
	tmp, err := os.MkdirTemp("", "bench-tests-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(tmp)
	os.Setenv("TMPDIR", tmp)
	code := m.Run()
	if sharedEnv != nil {
		sharedEnv.Close()
	}
	if sharedEnvDir != "" {
		os.RemoveAll(sharedEnvDir)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "dl-bench-*")); len(left) > 0 {
		fmt.Fprintf(os.Stderr, "tests left temporary directories behind: %v\n", left)
		return max(code, 1)
	}
	return code
}

// newTestEnv returns a process-shared environment: the ETL phase is
// expensive, and every query here is read-only (or idempotently
// materializes views/indexes), so tests can share it safely.
func newTestEnv(t *testing.T) *Env {
	t.Helper()
	sharedEnvOnce.Do(func() {
		sharedEnvDir, sharedEnvErr = os.MkdirTemp("", "dl-bench-test")
		if sharedEnvErr != nil {
			return
		}
		sharedEnv, sharedEnvErr = NewEnv(sharedEnvDir, tinyCfg(), exec.New(exec.CPU))
	})
	if sharedEnvErr != nil {
		t.Fatal(sharedEnvErr)
	}
	return sharedEnv
}

func TestETLMaterializesAllCollections(t *testing.T) {
	e := newTestEnv(t)
	for _, name := range []string{ColTrafficDets, ColPCImages, ColPCWords, ColFBDets, ColFBWords} {
		col, err := e.DB.Collection(name)
		if err != nil {
			t.Fatalf("collection %s: %v", name, err)
		}
		if col.Len() == 0 {
			t.Fatalf("collection %s is empty", name)
		}
	}
}

func TestQ1BaselineAndTunedAgree(t *testing.T) {
	e := newTestEnv(t)
	base, err := e.Q1(false)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := e.Q1(true)
	if err != nil {
		t.Fatal(err)
	}
	if base.Value != tuned.Value {
		t.Fatalf("q1 baseline=%d tuned=%d", base.Value, tuned.Value)
	}
	if base.Value == 0 {
		t.Fatal("q1 found no near-duplicate pairs")
	}
	r, p, err := e.Q1Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.7 {
		t.Fatalf("q1 recall %.2f below 0.7 (precision %.2f)", r, p)
	}
	if p < 0.5 {
		t.Fatalf("q1 precision %.2f below 0.5 (recall %.2f)", p, r)
	}
}

func TestQ2CountsAndAccuracy(t *testing.T) {
	e := newTestEnv(t)
	base, err := e.Q2(false)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := e.Q2(true)
	if err != nil {
		t.Fatal(err)
	}
	if base.Value != tuned.Value {
		t.Fatalf("q2 baseline=%d tuned=%d", base.Value, tuned.Value)
	}
	if base.Value == 0 || base.Value > e.Traffic.Frames {
		t.Fatalf("q2 value %d implausible", base.Value)
	}
	acc, err := e.Q2Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("q2 frame accuracy %.2f below 0.8", acc)
	}
}

func TestQ3LineageVsRescan(t *testing.T) {
	e := newTestEnv(t)
	base, err := e.Q3(false)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := e.Q3(true)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Value == 0 {
		t.Fatal("q3 tracked nothing")
	}
	if base.Value != tuned.Value {
		t.Fatalf("q3 baseline=%d tuned=%d (plans disagree)", base.Value, tuned.Value)
	}
	cov, err := e.Q3Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if cov < 0.3 {
		t.Fatalf("q3 trajectory coverage %.2f below 0.3", cov)
	}
}

func TestQ4DistinctPlausible(t *testing.T) {
	e := newTestEnv(t)
	base, err := e.Q4(false)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := e.Q4(true)
	if err != nil {
		t.Fatal(err)
	}
	if base.Value != tuned.Value {
		t.Fatalf("q4 baseline=%d tuned=%d", base.Value, tuned.Value)
	}
	truth := e.Traffic.DistinctPedestrians
	if base.Value == 0 {
		t.Fatal("q4 found no pedestrians")
	}
	// Appearance windows of one identity can sit at very different depths,
	// where embeddings legitimately drift apart (the paper's q4 recall is
	// 0.73-0.82 for the same reason). The dedup must still collapse the
	// hundreds of per-frame observations to at most ~2 clusters per
	// appearance window, and never below the true identity count.
	windows := 0
	for _, o := range e.Traffic.Scene.Objects {
		if o.Class == vision.ClassPedestrian && o.Appear < e.Traffic.Frames {
			windows++
		}
	}
	col, _ := e.DB.Collection(ColTrafficDets)
	peds, _ := e.DB.ExecuteFilter(col, "label", core.StrV("pedestrian"), core.FilterScan)
	if base.Value > windows*2 {
		t.Fatalf("q4 = %d clusters from %d observations, but only %d appearance windows exist (under-deduplicated)",
			base.Value, len(peds), windows)
	}
	if base.Value < truth {
		t.Fatalf("q4 = %d below the %d true identities (over-merged)", base.Value, truth)
	}
}

func TestQ5FindsPlantedString(t *testing.T) {
	e := newTestEnv(t)
	// Pick a word that actually occurs.
	target := ""
	for _, im := range e.PC.Images {
		if len(im.Words) > 0 {
			target = im.Words[0]
			break
		}
	}
	if target == "" {
		t.Skip("no words at this scale")
	}
	res, err := e.Q5(target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < 0 {
		t.Fatalf("q5 did not find %q", target)
	}
	truth := e.Q5Truth(target)
	if res.Value != truth {
		// OCR can find the word earlier via a screenshot; tolerate earlier
		// finds only if that image also truly contains the word.
		found := false
		for _, w := range e.PC.Images[res.Value].Words {
			if w == target {
				found = true
			}
		}
		if !found {
			t.Fatalf("q5 returned image %d which does not contain %q (truth %d)", res.Value, target, truth)
		}
	}
}

func TestQ6PairsAgree(t *testing.T) {
	e := newTestEnv(t)
	base, err := e.Q6(false)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := e.Q6(true)
	if err != nil {
		t.Fatal(err)
	}
	if base.Value != tuned.Value {
		t.Fatalf("q6 baseline=%d tuned=%d", base.Value, tuned.Value)
	}
}

func TestRunAll(t *testing.T) {
	e := newTestEnv(t)
	res, err := e.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("RunAll returned %d queries", len(res))
	}
	for q, pair := range res {
		if pair[0].Value != pair[1].Value {
			t.Fatalf("%s: baseline %d != tuned %d", q, pair[0].Value, pair[1].Value)
		}
	}
}

// TestBatchedServiceKernelsMatchUnbatched cross-checks the batcher at
// the query level: the same similarity join produces identical pairs on
// a bare device and through a shared fused batcher.
func TestBatchedServiceKernelsMatchUnbatched(t *testing.T) {
	e := newTestEnv(t)
	col, err := e.DB.Collection(ColTrafficDets)
	if err != nil {
		t.Fatal(err)
	}
	patches, err := col.Patches()
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) > 400 {
		patches = patches[:400]
	}
	run := func(dev exec.Device) int {
		pairs, err := core.SimilarityJoinBatched(e.DB, patches, patches, core.SimilarityJoinOpts{
			LeftField: "emb", RightField: "emb",
			Eps: 0.15, DedupUnordered: true, Device: dev,
		})
		if err != nil {
			t.Fatal(err)
		}
		return len(pairs)
	}
	plain := run(exec.NewGPU(exec.GPUProfile{LaunchLatency: time.Microsecond, BytesPerSecond: 1e12}))
	bat := exec.NewBatcher(
		exec.NewGPU(exec.GPUProfile{LaunchLatency: time.Microsecond, BytesPerSecond: 1e12}), 4, nil)
	var fusedPairs [4]int
	var wg sync.WaitGroup
	for i := range fusedPairs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fusedPairs[i] = run(bat)
		}(i)
	}
	wg.Wait()
	for i, got := range fusedPairs {
		if got != plain {
			t.Fatalf("submitter %d: fused join found %d pairs, unfused %d", i, got, plain)
		}
	}
}
