package harness

import (
	"fmt"
	"io"
	"testing"

	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

// KernelBenchResult is one (dispatch path, modulus class) measurement
// on the standard kernel arena workload. CoeffsPerSec is the figure of
// merit for the vectorized-kernel work — fused compare-lanes retired
// per second — and ArenaGBPerSec the effective streaming bandwidth over
// the two coefficient planes the kernel reads per pass, comparable
// against the machine's memory bandwidth ceiling.
type KernelBenchResult struct {
	Kernel        string // "subcmp"
	Path          string // dispatch path: generic | unrolled | avx2
	QClass        string // "pow2" or "generic"
	R             int    // comparands per coefficient (subcmp fan-out)
	Chunks        int
	N             int
	NsPerOp       float64
	CoeffsPerSec  float64
	ArenaGBPerSec float64
	AllocsPerOp   int64
}

// Kernel arena workload: one op sweeps a 64-chunk × n=1024 arena — the
// paper's ring degree at a 0.5 MiB-per-plane footprint, so the body
// loop runs from memory rather than L1 and the figure reflects the
// serving access pattern (per-chunk ciphertext plane against a shared
// database token, verdict bitsets indexed by absolute window).
const (
	kernelBenchChunks = 64
	kernelBenchN      = 1024
	kernelBenchR      = 4
)

// kernelBenchQ maps the modulus classes to representative moduli: the
// paper's q = 2^32 for the mask path and a 40-bit odd q for the
// branchless conditional-subtract path.
var kernelBenchQ = map[string]uint64{
	"pow2":    1 << 32,
	"generic": (1 << 40) + 15,
}

// RunKernelBench measures the fused compare kernel under every
// dispatch path available on this machine, for both modulus classes,
// on the standard kernel arena workload. Ordering is deterministic:
// q-classes × paths, with the active path forced via ring.SetKernel
// and restored before returning.
func RunKernelBench() ([]KernelBenchResult, error) {
	prev := ring.ActiveKernel()
	defer ring.SetKernel(prev)

	var results []KernelBenchResult
	for _, qClass := range []string{"pow2", "generic"} {
		q := kernelBenchQ[qClass]
		r := ring.MustNew(kernelBenchN, q)
		src := rng.NewSourceFromString("kernel-bench-" + qClass)
		// Per-chunk ciphertext planes against one shared token plane,
		// exactly the arena layout one search streams.
		chunks := make([]ring.Poly, kernelBenchChunks)
		for c := range chunks {
			chunks[c] = r.NewPoly()
			r.UniformPoly(src, chunks[c])
		}
		d := r.NewPoly()
		r.UniformPoly(src, d)
		rhs := make([]ring.Poly, kernelBenchR)
		for v := range rhs {
			rhs[v] = r.NewPoly()
			r.UniformPoly(src, rhs[v])
		}
		words := (kernelBenchChunks*kernelBenchN + 63) / 64
		subBits := make([][]uint64, kernelBenchR)
		for v := range subBits {
			subBits[v] = make([]uint64, words)
		}

		for _, path := range ring.AvailableKernels() {
			if err := ring.SetKernel(path); err != nil {
				return nil, fmt.Errorf("harness: forcing kernel path %s: %w", path, err)
			}
			sub := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for c := range chunks {
						r.SubCmpMultiBits(chunks[c], d, rhs, subBits, c*kernelBenchN)
					}
				}
			})
			results = append(results, newKernelBenchResult(path, qClass, sub))
		}
	}
	return results, nil
}

func newKernelBenchResult(path ring.KernelPath, qClass string, res testing.BenchmarkResult) KernelBenchResult {
	nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
	out := KernelBenchResult{
		Kernel:      "subcmp",
		Path:        path.String(),
		QClass:      qClass,
		R:           kernelBenchR,
		Chunks:      kernelBenchChunks,
		N:           kernelBenchN,
		NsPerOp:     nsPerOp,
		AllocsPerOp: res.AllocsPerOp(),
	}
	if nsPerOp > 0 {
		coeffs := float64(kernelBenchChunks) * float64(kernelBenchN) * float64(kernelBenchR)
		out.CoeffsPerSec = coeffs / (nsPerOp / 1e9)
		// Two coefficient planes (ciphertext + token) streamed per pass.
		arenaBytes := float64(2 * kernelBenchChunks * kernelBenchN * 8)
		out.ArenaGBPerSec = arenaBytes / (nsPerOp / 1e9) / 1e9
	}
	return out
}

// WriteKernelBenchTable renders kernel results as an aligned table.
func WriteKernelBenchTable(w io.Writer, results []KernelBenchResult) {
	fmt.Fprintf(w, "  %-7s %-9s %-8s %2s %14s %15s %10s %7s\n",
		"kernel", "path", "q-class", "R", "ns/op", "coeffs/s", "arena GB/s", "allocs")
	for _, k := range results {
		fmt.Fprintf(w, "  %-7s %-9s %-8s %2d %14.0f %15.3e %10.2f %7d\n",
			k.Kernel, k.Path, k.QClass, k.R, k.NsPerOp, k.CoeffsPerSec, k.ArenaGBPerSec, k.AllocsPerOp)
	}
}
