package harness

import (
	"strings"
	"testing"

	"ciphermatch/internal/ring"
)

// TestRunKernelBenchShape gates the kernel microbenchmark's contract:
// one row per (available path, q-class), every row zero-alloc
// with a positive coefficients/sec figure, and the active dispatch path
// restored afterwards. Run with -short in CI's unit lane; the numbers
// themselves are CI's bench-smoke job.
func TestRunKernelBenchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	before := ring.ActiveKernel()
	results, err := RunKernelBench()
	if err != nil {
		t.Fatal(err)
	}
	if after := ring.ActiveKernel(); after != before {
		t.Fatalf("RunKernelBench left kernel path %s, want %s restored", after, before)
	}
	wantRows := 2 * len(ring.AvailableKernels())
	if len(results) != wantRows {
		t.Fatalf("got %d rows, want %d (2 q-classes x %d paths)",
			len(results), wantRows, len(ring.AvailableKernels()))
	}
	seen := make(map[string]bool, len(results))
	var best, generic *KernelBenchResult // fastest and generic subcmp pow2 rows
	for i := range results {
		k := &results[i]
		key := k.Kernel + "/" + k.Path + "/" + k.QClass
		if seen[key] {
			t.Fatalf("duplicate row %s", key)
		}
		seen[key] = true
		if k.CoeffsPerSec <= 0 || k.ArenaGBPerSec <= 0 || k.NsPerOp <= 0 {
			t.Fatalf("degenerate row %+v", *k)
		}
		if k.AllocsPerOp != 0 {
			t.Fatalf("%s allocates %d/op, want 0", key, k.AllocsPerOp)
		}
		if k.Kernel != "subcmp" || k.QClass != "pow2" {
			continue
		}
		if k.Path == ring.KernelGeneric.String() {
			generic = k
		}
		if best == nil || k.CoeffsPerSec > best.CoeffsPerSec {
			best = k
		}
	}
	if best == nil || generic == nil {
		t.Fatal("missing subcmp pow2 rows")
	}
	var sb strings.Builder
	WriteKernelBenchTable(&sb, results)
	for _, want := range []string{"subcmp", "pow2", "generic", "coeffs/s"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("kernel table missing %q:\n%s", want, sb.String())
		}
	}
	t.Logf("subcmp pow2 best path %s: %.2fx vs generic",
		best.Path, best.CoeffsPerSec/generic.CoeffsPerSec)
}
