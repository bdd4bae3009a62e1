package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/core"
)

// runTieredScan measures the tiered column store under a constrained
// segment-cache budget — the selective filter cold, warm and
// zone-pruned against the unbudgeted in-memory store, swept from 12k
// to 200k rows (the same fixture BenchmarkTieredColumns snapshots for
// CI) — and writes the curve to BENCH_tiered_columns.json in the
// working directory.
func runTieredScan() error {
	const iters = 10
	dir, err := os.MkdirTemp("", "deeplens-tiered")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	points, err := bench.MeasureTieredScan(dir, bench.TieredScanRowsSweep, bench.TieredScanBudget, iters)
	if err != nil {
		return err
	}
	if err := bench.WriteTieredScanJSON("BENCH_tiered_columns.json", bench.TieredScanBudget, points); err != nil {
		return err
	}

	fmt.Printf("\n## Tiered column store under a %d KiB budget (%.1f%% selective filter, block %d)\n",
		bench.TieredScanBudget>>10, 100.0/bench.ColScanLabels, core.ColumnBlockSize)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rows\tcold\twarm\tpruned\tin-mem\tspills\tcold loads\twarm loads\twarm evictions\tresident")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%.0f ns\t%.0f ns\t%.0f ns\t%.0f ns\t%d\t%d\t%d\t%d\t%d B\n",
			p.Rows, p.ColdFilterNS, p.WarmFilterNS, p.PrunedFilterNS, p.InMemFilterNS,
			p.SegmentSpills, p.ColdLoads, p.WarmLoads, p.WarmEvictions, p.ResidentBytes)
	}
	w.Flush()
	fmt.Println("\nwrote BENCH_tiered_columns.json")
	return nil
}
