package harness

import "testing"

// TestTraceOverheadBudget is the observability tax gate: the full
// per-request trace record path must cost under 2% of one serial
// hot-path search and allocate nothing. The measured ratio lands in
// BENCH_results.json via cmbench -json; this test keeps it honest.
// The denominator is the 64-chunk fixture's serial search, ≈ 85 µs —
// just above its ≈ 77 µs kernel sweep — so the fixed ≈ 170–185 ns
// record cost reads ≈ 0.2 %, a tenth of the budget.
func TestTraceOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	res, err := RunTraceOverheadBench()
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchNsPerOp <= 0 || res.TraceNsPerOp <= 0 {
		t.Fatalf("degenerate measurement: %+v", res)
	}
	if res.TraceAllocs != 0 {
		t.Fatalf("trace record path allocates %d/op, want 0", res.TraceAllocs)
	}
	if res.OverheadPct >= 2 {
		t.Fatalf("tracing overhead %.3f%% exceeds the 2%% budget (trace %.0fns vs search %.0fns)",
			res.OverheadPct, res.TraceNsPerOp, res.SearchNsPerOp)
	}
	t.Logf("tracing tax: %.0fns record vs %.0fns search = %.4f%%",
		res.TraceNsPerOp, res.SearchNsPerOp, res.OverheadPct)
}
