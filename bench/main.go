// Command bench is the serving benchmark of the CIPHERMATCH stack: four
// workloads, end-to-end metrics measured with tracing off, and a traced
// run that attributes the time to the repo's layers. The server runs
// inside this process; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	scale    string
	repeat   int
	check    bool
	deadline time.Duration
	manifest bool

	// onFixture, when set, is told each fixture's listener address and
	// temp directory; the smoke test uses it to prove both are gone.
	onFixture func(addr, tmp string)
}

// metricValue is one reported number. Samples is the count behind a
// timing's median (0 for exact counts and derived ratios).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// workloadResult is one (workload, trace mode) run.
type workloadResult struct {
	Workload    string                 `json:"workload"`
	Trace       int                    `json:"trace"`
	Set         int                    `json:"set"`
	Conns       int                    `json:"conns"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	Metrics     map[string]metricValue `json:"metrics"`
	Tail        string                 `json:"tail,omitempty"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var opts options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&opts.seed, "seed", defaultSeed, "generator seed; the same seed gives the same inputs")
	fs.Float64Var(&opts.seconds, "seconds", runSeconds, "length of the steady phase")
	fs.IntVar(&opts.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&opts.out, "out", "out", "directory for results.json, trace files and the run's temp data")
	fs.StringVar(&opts.scale, "scale", scaleFull, "fixture scale: full, or tiny (the smoke test's KiB-size tenants)")
	fs.IntVar(&opts.repeat, "repeat", 1, "run the suite this many times, alternating workload order")
	fs.BoolVar(&opts.check, "check", false, "with -repeat: fail if an end-to-end metric differs between sets by more than its bound")
	fs.DurationVar(&opts.deadline, "deadline", 170*time.Second, "abort with a non-zero exit, after cleaning up, when the whole invocation takes longer")
	fs.BoolVar(&opts.manifest, "manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opts.manifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, opts.deadline)
	defer cancel()
	if err := runSuite(ctx, opts, stdout); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("aborted: -deadline %v exceeded", opts.deadline)
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runSuite runs the selected workloads opts.repeat times, prints one
// row per (workload, metric), writes results.json, and prints one
// result line per run last. Every fixture it starts is closed before it
// returns, whatever the outcome.
func runSuite(ctx context.Context, opts options, stdout io.Writer) error {
	if opts.scale != scaleFull && opts.scale != scaleTiny {
		return fmt.Errorf("unknown scale %q", opts.scale)
	}
	if opts.seconds <= 0 || opts.repeat < 1 || opts.trace < 0 || opts.trace > 1 {
		return errors.New("need -seconds > 0, -repeat >= 1 and -trace 0 or 1")
	}
	specs := workloads
	if opts.workload != "all" {
		s, err := findWorkload(opts.workload)
		if err != nil {
			return err
		}
		specs = []workloadSpec{s}
	}
	host := readHostFacts()
	fmt.Fprintf(stdout, "# host: nproc=%d gomaxprocs=%d %s/%s ring kernel=%s caches=%v\n",
		host.NProc, host.GoMaxProcs, host.GoVersion, host.GOARCH, host.Kernel, host.Caches)
	fmt.Fprintf(stdout, "# seed=%d seconds=%g scale=%s trace=%d; closed loop, load generator in this process\n",
		opts.seed, opts.seconds, opts.scale, opts.trace)

	var results []*workloadResult
	for set := 0; set < opts.repeat; set++ {
		for i := range specs {
			spec := specs[i]
			if set%2 == 1 { // alternate the order, so drift does not favour one workload
				spec = specs[len(specs)-1-i]
			}
			res, err := runWorkload(ctx, spec, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", spec.name, err)
			}
			res.Set = set
			printRows(stdout, res)
			results = append(results, res)
		}
	}

	if err := writeResults(filepath.Join(opts.out, "results.json"), host, opts, results); err != nil {
		return err
	}
	var checkErr error
	if opts.check {
		checkErr = checkSets(stdout, results)
	}
	for _, res := range results {
		if err := printResultLine(stdout, res); err != nil {
			return err
		}
	}
	return checkErr
}

// Phase floors in operations; fresh also runs for at least half and the
// upload probe for a fifth of -seconds. ISSUE 12 asked for 11 in each,
// but the probe's median over 11 spread by 12-18 % between runs.
const (
	freshMinOps    = 11
	probeMinCycles = 21
)

// runWorkload is one run of one workload in one trace mode.
func runWorkload(ctx context.Context, spec workloadSpec, opts options) (*workloadResult, error) {
	res := &workloadResult{Workload: spec.name, Trace: opts.trace, Conns: spec.conns}
	measure := measureEndToEnd
	if opts.trace == 1 {
		measure = measureLayers
	}
	ops, err := measure(ctx, spec, opts, res)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = ops.attempted, ops.failed
	res.Correct = ops.failed == 0 && ops.attempted > 0
	if ops.attempted > 0 {
		res.FailedShare = float64(ops.failed) / float64(ops.attempted)
	}
	for _, d := range defsFor(opts.trace) {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is missing or not a number", d.Name)
		}
		v.Unit = d.Unit
		res.Metrics[d.Name] = v
	}
	return res, nil
}

// measureEndToEnd is the untraced run: set-up (timed), steady, fresh,
// upload probe. It fills res.Metrics and res.Tail.
func measureEndToEnd(ctx context.Context, spec workloadSpec, opts options, res *workloadResult) (ops opCounts, err error) {
	dur := time.Duration(opts.seconds * float64(time.Second))
	f, setupS, err := timeSetup(ctx, spec, opts)
	if err != nil {
		return ops, err
	}
	defer f.Close()
	resident := f.srv.Store().ResidentBytes()
	st, err := steady(ctx, f, dur, nil)
	if err != nil {
		return ops, err
	}
	freshMS, freshOps, err := fresh(ctx, f, freshMinOps, dur/2)
	if err != nil {
		return ops, err
	}
	uploadMS, uploadOps := st.uploadMS, opCounts{} // ingest_mix uploads in steady
	if !spec.ingest {
		if uploadMS, uploadOps, err = uploadProbe(ctx, f, probeMinCycles, dur/5); err != nil {
			return ops, err
		}
	}
	ops.add(st.ops)
	ops.add(freshOps)
	ops.add(uploadOps)

	var wireBytes float64
	var payloads int
	for _, t := range f.tenants {
		for _, p := range t.payloads {
			wireBytes += float64(len(p))
			payloads++
		}
	}
	n := len(st.searchMS)
	res.Metrics = map[string]metricValue{
		"setup_s":                    {Value: setupS},
		"search_p50_ms":              {Value: quantile(st.searchMS, 0.50), Samples: n},
		"searches_per_s":             {Value: float64(n) / st.elapsed.Seconds(), Samples: n},
		"fresh_query_p50_ms":         {Value: median(freshMS), Samples: len(freshMS)},
		"query_wire_bytes":           {Value: wireBytes / float64(payloads)},
		"arena_bytes_per_plain_byte": {Value: float64(resident) / float64(f.plainBytes())},
		"upload_p50_ms":              {Value: median(uploadMS), Samples: len(uploadMS)},
	}
	// The tail is printed, not gated: see endToEnd in catalog.go.
	res.Tail = fmt.Sprintf("search p90 = %.4f ms over %d samples", quantile(st.searchMS, 0.90), n)
	if q, v, ok := tailQuantile(st.searchMS); ok && q > 0.90 {
		res.Tail += fmt.Sprintf(", p%g = %.4f ms", q*100, v)
	}
	return ops, nil
}

// measureLayers is the traced run: set-up with spans on, half the
// steady phase untraced and half traced, the in-process layer replay.
// It fills res.Metrics and writes the trace file.
func measureLayers(ctx context.Context, spec workloadSpec, opts options, res *workloadResult) (ops opCounts, err error) {
	dur := time.Duration(opts.seconds * float64(time.Second))
	rec := newRecorder()
	f, err := setup(ctx, spec, opts, rec)
	if err != nil {
		return ops, err
	}
	defer f.Close()
	plain, err := steady(ctx, f, dur/2, nil)
	if err != nil {
		return ops, err
	}
	traced, err := steady(ctx, f, dur/2, rec)
	if err != nil {
		return ops, err
	}
	rp, err := replayLayers(ctx, f, rec)
	if err != nil {
		return ops, err
	}
	ops.add(plain.ops)
	ops.add(traced.ops)
	ops.add(rp.ops)
	res.Metrics = layerMetrics(f, rec, plain, traced, rp)
	return ops, rec.writeFile(filepath.Join(opts.out, "trace-"+spec.name+".json"))
}

func defsFor(trace int) []metricDef {
	if trace == 0 {
		return endToEnd
	}
	return perLayer
}

// printRows prints one row per metric of a run.
func printRows(w io.Writer, res *workloadResult) {
	for _, d := range defsFor(res.Trace) {
		v := res.Metrics[d.Name]
		samples := ""
		if v.Samples > 0 {
			samples = fmt.Sprintf("n=%d", v.Samples)
		}
		fmt.Fprintf(w, "%-14s %-32s %16.6g %-6s %s\n", res.Workload, d.Name, v.Value, d.Unit, samples)
	}
	fmt.Fprintf(w, "%-14s %-32s %16.6g %-6s %d failed of %d attempted, %d conns\n",
		res.Workload, "failed_share", res.FailedShare, "ratio", res.Failed, res.Attempted, res.Conns)
	if res.Tail != "" {
		fmt.Fprintf(w, "%-14s %s\n", res.Workload, res.Tail)
	}
}

// printResultLine prints the machine-readable line the driver reads:
// exactly correct, attempted, failed and metrics.
func printResultLine(w io.Writer, res *workloadResult) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]mv)}
	for _, d := range defsFor(res.Trace) {
		line.Metrics[d.Name] = mv{res.Metrics[d.Name].Value, d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func writeResults(path string, host hostFacts, opts options, results []*workloadResult) error {
	doc := struct {
		Host    hostFacts         `json:"host"`
		Seed    int64             `json:"seed"`
		Seconds float64           `json:"seconds"`
		Scale   string            `json:"scale"`
		Runs    []*workloadResult `json:"runs"`
	}{host, opts.seed, opts.seconds, opts.scale, results}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkSets compares every later set with the first: an end-to-end
// metric that differs by more than its bound, in either direction,
// means the benchmark cannot resolve a regression of that size here.
func checkSets(w io.Writer, results []*workloadResult) error {
	first := make(map[string]*workloadResult)
	var bad int
	for _, res := range results {
		base, ok := first[res.Workload]
		if !ok {
			first[res.Workload] = res
			continue
		}
		for _, d := range endToEnd {
			if res.Trace != 0 {
				continue
			}
			a, b := base.Metrics[d.Name].Value, res.Metrics[d.Name].Value
			diff := math.Abs(a-b) / a
			verdict := "ok"
			if diff > d.Bound {
				verdict = "OUTSIDE BOUND"
				bad++
			}
			fmt.Fprintf(w, "check %-14s %-28s set0=%-12.6g set%d=%-12.6g diff=%5.2f%% bound=%4.1f%% %s\n",
				res.Workload, d.Name, a, res.Set, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("-check: %d end-to-end metrics differ between sets by more than their bound", bad)
	}
	return nil
}
