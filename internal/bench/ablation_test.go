package bench_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/lshablation"
)

func TestAblations(t *testing.T) {
	e := bench.NewTestEnv(t)
	lshRows, err := lshablation.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(lshRows) != 2 || lshRows[1].Recall < 0.3 {
		t.Fatalf("lsh ablation %+v", lshRows)
	}
	segRows, err := bench.AblationSegment(bench.TinyCfg(), []uint64{8, 64}, 16)
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
	bsRows, err := bench.AblationBuildSide(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(bsRows) != 2 || bsRows[0].Pairs != bsRows[1].Pairs {
		t.Fatalf("build-side ablation %+v", bsRows)
	}
}
