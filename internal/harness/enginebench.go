package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/engine"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

// EngineBenchResult is one engine's measurement on the standard
// engine-benchmark workload (4 KiB database, 32-bit query, byte
// alignment, seeded-match mode — the same fixture as BenchmarkEngine),
// in the machine-readable form cmbench -json persists so the kernel's
// performance trajectory is comparable across PRs.
type EngineBenchResult struct {
	Engine        string  `json:"engine"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	HomAddsPerOp  int     `json:"hom_adds_per_op"`
	HomAddsPerSec float64 `json:"hom_adds_per_sec"`
	// ChunkStreamsPerOp is how many chunk C0 polynomials one search
	// streams from the ciphertext arena — numChunks for the fused
	// single-pass kernels, residues× that for a per-residue schedule.
	ChunkStreamsPerOp int64 `json:"chunk_streams_per_op,omitempty"`
}

// EngineBenchReport is the top-level BENCH_results.json document.
type EngineBenchReport struct {
	GoOS     string              `json:"goos"`
	GoArch   string              `json:"goarch"`
	Workload string              `json:"workload"`
	Engines  []EngineBenchResult `json:"engines"`
	// KernelPath is the ring dispatch path the engine rows ran on, and
	// AVX2 whether the machine offered the assembly path at all —
	// without these two a cross-machine comparison of the numbers above
	// is meaningless.
	KernelPath string `json:"kernel_path,omitempty"`
	AVX2       bool   `json:"avx2,omitempty"`
	// WorkloadLarge/EnginesLarge is the same engine sweep on the large
	// fixture (128 KiB database, 64 chunks, ≥1 MiB arena), where the
	// kernel runs from memory instead of cache and parallel engines
	// amortise their fan-out overhead — the pool-vs-serial crossover
	// point lives between the two fixtures.
	WorkloadLarge string              `json:"workload_large,omitempty"`
	EnginesLarge  []EngineBenchResult `json:"engines_large,omitempty"`
	// Kernels is the per-dispatch-path microbenchmark of the fused ring
	// kernels themselves (see RunKernelBench).
	Kernels []KernelBenchResult `json:"kernels,omitempty"`
	// QueryBytes is the wire footprint of the fixture's seeded-match
	// query — the PR-over-PR trace of the communication-volume claim.
	QueryBytes int64 `json:"query_bytes,omitempty"`
	// ColdLoads measures the durable segment store: per engine, the
	// cold evicted-to-searchable load latency vs the warm search.
	ColdLoads []ColdLoadResult `json:"cold_loads,omitempty"`
	// Storm is the serving-path scenario: the fixture under concurrent
	// same-database clients, coalescing off vs on (see RunStormBench).
	Storm *StormBenchResult `json:"storm,omitempty"`
	// TraceOverhead is the request-lifecycle tracing tax relative to a
	// serial hot-path search (see RunTraceOverheadBench); the budget is
	// under 2%.
	TraceOverhead *TraceOverheadResult `json:"trace_overhead,omitempty"`
}

// DefaultEngineBenchSpecs mirrors the BenchmarkEngine sub-benchmarks.
func DefaultEngineBenchSpecs() []string {
	return []string{"serial", "pool", "ssd", "pool/shards=2"}
}

// EngineBenchWorkload describes the standard fixture in the report.
const EngineBenchWorkload = "4KiB db, 32-bit query, align 8, seeded-match"

// EngineBenchWorkloadLarge describes the large fixture: 128 KiB of
// database is 64 chunks at the paper's n=1024, i.e. a 1 MiB ciphertext
// arena (two coefficient planes × 64 chunks × 1024 × 8 B), large
// enough that one search streams from memory rather than L2.
const EngineBenchWorkloadLarge = "128KiB db, 32-bit query, align 8, seeded-match"

// NewEngineBenchFixture builds the one standard engine-benchmark
// workload — a 4 KiB database and a 32-bit byte-aligned seeded-match
// query — shared by the in-tree BenchmarkEngine sub-benchmarks and
// cmbench -json, so the two stay measurements of the same thing.
func NewEngineBenchFixture() (core.Config, *core.EncryptedDB, *core.Query, error) {
	return newEngineBenchFixtureSized(4096)
}

// NewEngineBenchLargeFixture builds the large engine-benchmark
// workload: the same query over a 128 KiB database — 64 chunks, a
// 1 MiB ciphertext arena — so engine comparisons also cover the
// memory-resident regime where parallel fan-out pays for itself.
func NewEngineBenchLargeFixture() (core.Config, *core.EncryptedDB, *core.Query, error) {
	return newEngineBenchFixtureSized(128 << 10)
}

func newEngineBenchFixtureSized(dbBytes int) (core.Config, *core.EncryptedDB, *core.Query, error) {
	cfg := core.Config{Params: bfv.ParamsPaper(), AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("engine-bench"))
	if err != nil {
		return cfg, nil, nil, err
	}
	data := make([]byte, dbBytes)
	rng.NewSourceFromString("engine-bench-data").Bytes(data)
	db, err := client.EncryptDatabase(data, len(data)*8)
	if err != nil {
		return cfg, nil, nil, err
	}
	q, err := client.PrepareQuery([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, len(data)*8)
	if err != nil {
		return cfg, nil, nil, err
	}
	return cfg, db, q, nil
}

// RunEngineBench measures SearchAndIndex throughput for every engine
// spec on the standard workload, via testing.Benchmark, and returns one
// result per spec.
func RunEngineBench(specs []string) (*EngineBenchReport, error) {
	cfg, db, q, err := NewEngineBenchFixture()
	if err != nil {
		return nil, err
	}
	report := &EngineBenchReport{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Workload:   EngineBenchWorkload,
		QueryBytes: q.SizeBytes(cfg.Params),
		KernelPath: ring.ActiveKernel().String(),
		AVX2:       ring.AVX2Supported(),
	}
	report.Engines, err = runEngineSpecs(cfg, db, q, specs)
	if err != nil {
		return nil, err
	}
	lcfg, ldb, lq2, err := NewEngineBenchLargeFixture()
	if err != nil {
		return nil, fmt.Errorf("harness: large fixture: %w", err)
	}
	report.WorkloadLarge = EngineBenchWorkloadLarge
	report.EnginesLarge, err = runEngineSpecs(lcfg, ldb, lq2, specs)
	if err != nil {
		return nil, err
	}
	return report, nil
}

// runEngineSpecs measures SearchAndIndex for every engine spec over one
// fixture, via testing.Benchmark.
func runEngineSpecs(cfg core.Config, db *core.EncryptedDB, q *core.Query, specs []string) ([]EngineBenchResult, error) {
	var results []EngineBenchResult
	for _, specStr := range specs {
		spec, err := engine.Parse(specStr)
		if err != nil {
			return nil, err
		}
		eng, err := engine.Build(cfg.Params, db, spec)
		if err != nil {
			return nil, err
		}
		// One warmup search yields the per-op operation counts.
		warm, err := eng.SearchAndIndex(q)
		if err != nil {
			return nil, fmt.Errorf("harness: %s warmup: %w", specStr, err)
		}
		// Stats survives Release (plain value field); the bitsets go
		// back to the pool before the timed loop churns it.
		warm.Release()
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ir, err := eng.SearchAndIndex(q)
				if err != nil {
					b.Fatal(err)
				}
				ir.Release()
			}
		})
		nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
		out := EngineBenchResult{
			Engine:            specStr,
			NsPerOp:           nsPerOp,
			AllocsPerOp:       res.AllocsPerOp(),
			BytesPerOp:        res.AllocedBytesPerOp(),
			HomAddsPerOp:      warm.Stats.HomAdds,
			ChunkStreamsPerOp: warm.Stats.ChunkStreams,
		}
		if nsPerOp > 0 {
			out.HomAddsPerSec = float64(warm.Stats.HomAdds) / (nsPerOp / 1e9)
		}
		results = append(results, out)
		if closer, ok := eng.(interface{ Close() error }); ok {
			_ = closer.Close()
		}
	}
	return results, nil
}

// WriteJSON renders the report as indented JSON.
func (r *EngineBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadEngineBenchReport loads a BENCH_results.json document (e.g. the
// committed baseline of the previous PR).
func ReadEngineBenchReport(path string) (*EngineBenchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r EngineBenchReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("harness: parsing %s: %w", path, err)
	}
	return &r, nil
}

// WriteDelta prints a per-engine old-vs-new comparison table against a
// baseline report, so PR-over-PR kernel regressions (and wins) are
// visible in CI logs instead of buried in two JSON artifacts. Engines
// present on only one side are listed without a delta.
func (r *EngineBenchReport) WriteDelta(w io.Writer, old *EngineBenchReport) {
	fmt.Fprintf(w, "engine-bench delta vs baseline (%s):\n", old.Workload)
	if r.KernelPath != "" || old.KernelPath != "" {
		oldPath := old.KernelPath
		if oldPath == "" {
			oldPath = "(unrecorded)"
		}
		fmt.Fprintf(w, "  kernel path: old %s, new %s (avx2 available: %v)\n",
			oldPath, r.KernelPath, r.AVX2)
	}
	writeEngineDelta(w, r.Engines, old.Engines)
	if len(r.EnginesLarge) > 0 {
		fmt.Fprintf(w, "  large fixture (%s):\n", r.WorkloadLarge)
		writeEngineDelta(w, r.EnginesLarge, old.EnginesLarge)
	}
	writeKernelDelta(w, r.Kernels, old.Kernels)
	if old.QueryBytes > 0 || r.QueryBytes > 0 {
		fmt.Fprintf(w, "  query bytes: old %d, new %d\n", old.QueryBytes, r.QueryBytes)
	}
	if s := r.Storm; s != nil {
		fmt.Fprintf(w, "  storm (%d conns): %.0f qps unbatched -> %.0f qps coalesced (%+.1f%%), occupancy %.2f, %.1f streams/query (solo %d)",
			s.Conns, s.BaselineQPS, s.QPS, s.SpeedupPct, s.BatchOccupancyMean,
			s.ChunkStreamsPerQuery, s.UnbatchedChunkStreamsPerQuery)
		if old.Storm != nil {
			fmt.Fprintf(w, "; baseline run: %.0f qps coalesced, occupancy %.2f",
				old.Storm.QPS, old.Storm.BatchOccupancyMean)
		}
		fmt.Fprintln(w)
	}
}

// writeEngineDelta prints one fixture's per-engine old-vs-new rows.
func writeEngineDelta(w io.Writer, news, olds []EngineBenchResult) {
	byEngine := make(map[string]EngineBenchResult, len(olds))
	for _, e := range olds {
		byEngine[e.Engine] = e
	}
	fmt.Fprintf(w, "  %-16s %14s %14s %9s %10s %10s\n",
		"engine", "old ns/op", "new ns/op", "Δ ns/op", "old allocs", "new allocs")
	for _, e := range news {
		o, ok := byEngine[e.Engine]
		if !ok {
			fmt.Fprintf(w, "  %-16s %14s %14.0f %9s %10s %10d  (new measurement)\n",
				e.Engine, "-", e.NsPerOp, "-", "-", e.AllocsPerOp)
			continue
		}
		delta := "~"
		if o.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(e.NsPerOp-o.NsPerOp)/o.NsPerOp)
		}
		fmt.Fprintf(w, "  %-16s %14.0f %14.0f %9s %10d %10d\n",
			e.Engine, o.NsPerOp, e.NsPerOp, delta, o.AllocsPerOp, e.AllocsPerOp)
		delete(byEngine, e.Engine)
	}
	for name := range byEngine {
		fmt.Fprintf(w, "  %-16s (engine dropped from benchmark set)\n", name)
	}
}
