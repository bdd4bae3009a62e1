package service

import (
	"context"
	"testing"
)

// Tiered-column serving tests: a memory budget far below the column
// footprint must be invisible in every response byte — the spill tier
// is purely physical. The fixture is sized so every shard seals at
// least one block (rows/shard > core.ColumnBlockSize), so segments
// genuinely spill and reload under the budget.

// TestTieredBudgetGoldenEquivalence runs the full query matrix against
// a budgeted and an unbudgeted service over identical data, unsharded
// (N=1) and 3-way sharded, comparing values, rows, plan strings,
// fingerprints and cost estimates byte for byte.
func TestTieredBudgetGoldenEquivalence(t *testing.T) {
	const rows = 3*1024 + 300
	const budget = 32 << 10
	base := Config{Workers: 2}
	tiered := Config{Workers: 2, ColumnMemBudget: budget}
	ctx := context.Background()

	compare := func(name string, plain, budgeted *Service) {
		t.Helper()
		for qi, req := range queryMatrix() {
			pr, err := plain.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s q%d unbudgeted: %v", name, qi, err)
			}
			br, err := budgeted.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s q%d budgeted: %v", name, qi, err)
			}
			if pk, bk := goldenKey(t, pr), goldenKey(t, br); pk != bk {
				t.Fatalf("%s q%d diverges under memory budget:\n  unbudgeted: %s\n  budgeted:   %s", name, qi, pk, bk)
			}
		}
		st := budgeted.Stats()
		if st.SegmentSpills == 0 {
			t.Fatalf("%s: no segments spilled under a %d-byte budget", name, budget)
		}
		if st.SegmentResidentBytes > budget {
			t.Fatalf("%s: resident %d bytes over the %d budget", name, st.SegmentResidentBytes, budget)
		}
		if st.SegmentLoadFaults != 0 {
			t.Fatalf("%s: healthy store reported %d load faults", name, st.SegmentLoadFaults)
		}
		if st.SegmentTransientLoads > st.SegmentLoads {
			t.Fatalf("%s: %d transient loads out of %d loads", name, st.SegmentTransientLoads, st.SegmentLoads)
		}
		t.Logf("%s: %d segment loads, %d transient, %d evictions", name, st.SegmentLoads, st.SegmentTransientLoads, st.SegmentEvictions)
		if st.Failed != 0 {
			t.Fatalf("%s: %d queries failed under budget", name, st.Failed)
		}
		if ust := plain.Stats(); ust.SegmentSpills != 0 || ust.ColumnMemBudget != 0 {
			t.Fatalf("%s: unbudgeted service engaged the spill tier: %+v", name, ust)
		}
	}

	_, plain := synthUnsharded(t, rows, base)
	_, budgeted := synthUnsharded(t, rows, tiered)
	compare("N=1", plain, budgeted)

	_, plainSh := synthSharded(t, 3, rows, base)
	_, budgetedSh := synthSharded(t, 3, rows, tiered)
	compare("N=3", plainSh, budgetedSh)
}
