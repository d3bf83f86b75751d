// Command cmbench regenerates the paper's tables and figures from the
// models and simulators in this repository, printing each as a text table
// with the paper's reported values alongside.
//
// Usage:
//
//	cmbench                 # run every experiment
//	cmbench -exp fig7,fig10 # run selected experiments
//	cmbench -exp none       # run no experiments (with -json: bench only)
//	cmbench -list           # list experiment IDs
//	cmbench -csv results/   # also write one CSV per experiment
//	cmbench -json out.json  # also run the per-engine search benchmark,
//	                        # the cold-load benchmark and the serving
//	                        # storm (coalescing off vs on), and write
//	                        # machine-readable results
//	cmbench -kernels        # print the per-dispatch-path kernel table
//	                        # (coefficients/sec, arena GB/s)
//
// The ring kernel dispatch path (generic | unrolled | avx2) is chosen
// at startup by CPU detection and forceable with CM_KERNEL; every run
// prints the active path so recorded numbers are attributable.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ciphermatch/internal/harness"
	"ciphermatch/internal/perfmodel"
	"ciphermatch/internal/ring"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs, 'all', or 'none'")
	list := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files")
	jsonOut := flag.String("json", "", "file to write machine-readable engine benchmark results (e.g. BENCH_results.json)")
	compare := flag.String("compare", "", "baseline BENCH_results.json to print a per-engine delta table against (requires -json)")
	kernels := flag.Bool("kernels", false, "run the ring kernel microbenchmark over every available dispatch path and print a coefficients/sec table")
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	fmt.Printf("kernel path: %s (avx2 available: %v)\n", ring.ActiveKernel(), ring.AVX2Supported())
	if note := ring.KernelInitNote(); note != "" {
		fmt.Printf("kernel note: %s\n", note)
	}

	var selected []harness.Experiment
	switch *exp {
	case "all":
		selected = harness.All()
	case "none":
	default:
		for _, id := range strings.Split(*exp, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "cmbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	model := perfmodel.NewPaperModel()
	exitCode := 0
	for _, e := range selected {
		tbl, err := e.Run(model)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cmbench: %s failed: %v\n", e.ID, err)
			exitCode = 1
			continue
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "cmbench: rendering %s: %v\n", e.ID, err)
			exitCode = 1
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, tbl); err != nil {
				fmt.Fprintf(os.Stderr, "cmbench: writing CSV for %s: %v\n", e.ID, err)
				exitCode = 1
			}
		}
	}
	if *kernels {
		results, err := harness.RunKernelBench()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cmbench: kernel benchmark: %v\n", err)
			exitCode = 1
		} else {
			fmt.Println("ring kernels (per dispatch path):")
			harness.WriteKernelBenchTable(os.Stdout, results)
		}
	}
	if *jsonOut != "" {
		if err := writeEngineBench(*jsonOut, *compare); err != nil {
			fmt.Fprintf(os.Stderr, "cmbench: engine benchmark: %v\n", err)
			exitCode = 1
		}
	}
	os.Exit(exitCode)
}

// writeEngineBench runs the per-engine search benchmark (the same
// workload as the BenchmarkEngine sub-benchmarks) plus the segment
// store's cold-load vs warm-search benchmark, and writes the
// machine-readable report, so successive PRs can diff ns/op, HomAdds/s,
// allocs/op and cold-load latency per engine kind.
func writeEngineBench(path, baseline string) error {
	report, err := harness.RunEngineBench(harness.DefaultEngineBenchSpecs())
	if err != nil {
		return err
	}
	if report.ColdLoads, err = harness.RunColdLoadBench(harness.DefaultEngineBenchSpecs()); err != nil {
		return err
	}
	if report.Storm, err = harness.RunStormBench(0, 0); err != nil {
		return err
	}
	if report.TraceOverhead, err = harness.RunTraceOverheadBench(); err != nil {
		return err
	}
	if report.Kernels, err = harness.RunKernelBench(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, e := range report.Engines {
		fmt.Printf("engine-bench %-16s %12.0f ns/op %14.0f HomAdds/s %6d allocs/op %6d chunk-streams/op\n",
			e.Engine, e.NsPerOp, e.HomAddsPerSec, e.AllocsPerOp, e.ChunkStreamsPerOp)
	}
	for _, e := range report.EnginesLarge {
		fmt.Printf("engine-large %-16s %12.0f ns/op %14.0f HomAdds/s %6d allocs/op %6d chunk-streams/op\n",
			e.Engine, e.NsPerOp, e.HomAddsPerSec, e.AllocsPerOp, e.ChunkStreamsPerOp)
	}
	for _, k := range report.Kernels {
		fmt.Printf("kernel-bench %-7s %-9s %-8s R=%d %12.0f ns/op %12.3e coeffs/s %7.2f arena-GB/s %3d allocs/op\n",
			k.Kernel, k.Path, k.QClass, k.R, k.NsPerOp, k.CoeffsPerSec, k.ArenaGBPerSec, k.AllocsPerOp)
	}
	for _, c := range report.ColdLoads {
		fmt.Printf("cold-load    %-16s %12.0f ns cold-load %10.0f ns warm-search  mmap=%v madvise=%v (%d-byte segment)\n",
			c.Engine, c.ColdLoadNsPerOp, c.WarmSearchNsPerOp, c.Mapped, c.Advised, c.SegmentBytes)
	}
	fmt.Printf("query-bytes  %d\n", report.QueryBytes)
	if s := report.Storm; s != nil {
		fmt.Printf("storm        %d conns %10.0f qps unbatched %10.0f qps coalesced (%+.1f%%) occupancy %.2f  %.1f streams/query (solo %d)\n",
			s.Conns, s.BaselineQPS, s.QPS, s.SpeedupPct, s.BatchOccupancyMean,
			s.ChunkStreamsPerQuery, s.UnbatchedChunkStreamsPerQuery)
		for _, st := range s.Stages {
			fmt.Printf("storm-stage  %-14s %8d samples %9.3f ms mean %9.3f ms p95\n",
				st.Stage, st.Count, st.MeanMs, st.P95Ms)
		}
	}
	if to := report.TraceOverhead; to != nil {
		fmt.Printf("trace-tax    %8.0f ns record vs %10.0f ns serial search = %.3f%% (%d allocs/op)\n",
			to.TraceNsPerOp, to.SearchNsPerOp, to.OverheadPct, to.TraceAllocs)
	}
	if baseline != "" {
		old, err := harness.ReadEngineBenchReport(baseline)
		if err != nil {
			// The report itself was produced and closed; a missing or
			// unreadable baseline degrades the run to "no delta table"
			// rather than discarding the benchmark.
			fmt.Fprintf(os.Stderr, "cmbench: skipping delta table: %v\n", err)
			return nil
		}
		report.WriteDelta(os.Stdout, old)
	}
	return nil
}

func writeCSV(dir string, tbl *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tbl.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tbl.WriteCSV(f)
}
