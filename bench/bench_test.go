package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fixtureLog collects what every fixture of a run bound and created, so
// the test can prove none of it outlives the run.
type fixtureLog struct {
	addrs, tmps []string
}

func (l *fixtureLog) note(addr, tmp string) {
	l.addrs = append(l.addrs, addr)
	l.tmps = append(l.tmps, tmp)
}

// assertGone checks the three things a leaked server would leave:
// goroutines above the baseline, a listener that still accepts, a temp
// data directory on disk.
func assertGone(t *testing.T, baseline int, log *fixtureLog) {
	t.Helper()
	if len(log.addrs) == 0 {
		t.Fatal("no fixture was started")
	}
	// Exited goroutines leave the count a moment after the channel
	// close or WaitGroup release that Close waited for.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: %d after the run, %d before\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	for _, addr := range log.addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", addr)
		}
	}
	for _, tmp := range log.tmps {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("temp directory %s still exists (stat error: %v)", tmp, err)
		}
	}
}

func tinyOptions(t *testing.T, log *fixtureLog) options {
	return options{workload: "all", seed: defaultSeed, seconds: 0.2, scale: scaleTiny,
		repeat: 1, out: t.TempDir(), onFixture: log.note}
}

// resultLines decodes the machine-readable lines a run printed last.
func resultLines(t *testing.T, out string) []map[string]any {
	t.Helper()
	var lines []map[string]any
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("result line %q: %v", l, err)
		}
		lines = append(lines, m)
	}
	return lines
}

// TestSuiteRunsAndExitsClean runs all four workloads at the tiny scale
// in both trace modes and checks every metric is reported as a finite
// number under its catalogued name and unit, nothing failed, the exact
// counts have their pinned values, and nothing the run started is left.
func TestSuiteRunsAndExitsClean(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var log fixtureLog
	exact := map[string]map[string]float64{}
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		opts := tinyOptions(t, &log)
		opts.trace = trace
		var out bytes.Buffer
		if err := runSuite(context.Background(), opts, &out); err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, out.String())
		}
		lines := resultLines(t, out.String())
		if len(lines) != len(workloads) {
			t.Fatalf("trace %d: %d result lines for %d workloads", trace, len(lines), len(workloads))
		}
		for i, line := range lines {
			name := workloads[i].name
			if len(line) != 4 || line["correct"] != true || line["failed"] != 0.0 || line["attempted"].(float64) < 1 {
				t.Errorf("%s trace %d: result line %v", name, trace, line)
			}
			got := line["metrics"].(map[string]any)
			if len(got) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, catalog has %d", name, trace, len(got), len(defs))
			}
			if exact[name] == nil {
				exact[name] = map[string]float64{}
			}
			for _, d := range defs {
				mv, ok := got[d.Name].(map[string]any)
				if !ok {
					t.Errorf("%s: metric %s missing", name, d.Name)
					continue
				}
				v, _ := mv["value"].(float64)
				if math.IsNaN(v) || math.IsInf(v, 0) || mv["unit"] != d.Unit || len(mv) != 2 {
					t.Errorf("%s: metric %s = %v", name, d.Name, mv)
				}
				exact[name][d.Name] = v
			}
		}
		if _, err := os.Stat(filepath.Join(opts.out, "results.json")); err != nil {
			t.Error(err)
		}
		if trace == 1 {
			if _, err := os.Stat(filepath.Join(opts.out, "trace-dna_scan.json")); err != nil {
				t.Error(err)
			}
		}
	}
	assertGone(t, baseline, &log)

	// Exact counts: equal across runs and seeds of one geometry. A query
	// is one length-prefixed 4096-byte polynomial per 2 KiB chunk (the
	// token plane) plus one per residue, behind a name-and-shape header
	// that lists the residues. A segment is the 8x arena plus 168 bytes
	// of header and footer.
	type pin struct {
		chunks     int
		queryBytes float64
		arenaRatio float64
	}
	for name, p := range map[string]pin{
		"dna_scan":      {4, 147898, 8}, // 32 residues
		"records_storm": {2, 41106, 8},  // 8 residues
		"tenants_cold":  {4, 49306, 2},  // 4 tenants, the budget keeps 1 of 4 arenas resident
		"ingest_mix":    {2, 41106, 8},
	} {
		got := exact[name]
		if got["query_wire_bytes"] != p.queryBytes {
			t.Errorf("%s: query_wire_bytes = %v, want %v", name, got["query_wire_bytes"], p.queryBytes)
		}
		if got["arena_bytes_per_plain_byte"] != p.arenaRatio {
			t.Errorf("%s: arena_bytes_per_plain_byte = %v, want %v", name, got["arena_bytes_per_plain_byte"], p.arenaRatio)
		}
		if got["engine.chunk_streams_per_search"] != float64(p.chunks) {
			t.Errorf("%s: engine.chunk_streams_per_search = %v, want %d", name, got["engine.chunk_streams_per_search"], p.chunks)
		}
		plain := float64(p.chunks * 2048)
		if want := (8*plain + 168) / plain; got["segment.bytes_per_plain_byte"] != want {
			t.Errorf("%s: segment.bytes_per_plain_byte = %v, want %v", name, got["segment.bytes_per_plain_byte"], want)
		}
	}
	// What each workload exists to show.
	if v := exact["records_storm"]["coalesce.batch_occupancy"]; v <= 1 {
		t.Errorf("records_storm: coalesce.batch_occupancy = %v, want > 1", v)
	}
	if v := exact["tenants_cold"]["store.reloads_per_search"]; v <= 0.5 {
		t.Errorf("tenants_cold: store.reloads_per_search = %v, want > 0.5", v)
	}
	for _, name := range []string{"dna_scan", "records_storm"} {
		if v := exact[name]["store.reloads_per_search"]; v != 0 {
			t.Errorf("%s: store.reloads_per_search = %v, want 0", name, v)
		}
	}
}

// TestSeedDeterminesInputs: the same seed gives the same data, another
// seed other data and other patterns.
func TestSeedDeterminesInputs(t *testing.T) {
	spec, _ := findWorkload("records_storm")
	a, pa := generateTenant(spec, scaleTiny, 1, 0)
	b, pb := generateTenant(spec, scaleTiny, 2, 0)
	a2, _ := generateTenant(spec, scaleTiny, 1, 0)
	if !bytes.Equal(a, a2) {
		t.Error("the same seed gave different data")
	}
	if bytes.Equal(a, b) || bytes.Equal(pa[0].bytes, pb[0].bytes) {
		t.Error("different seeds gave the same data or patterns")
	}
}

// TestDeadlineAbortsClean drives the -deadline path: the deadline
// expires in the middle of a steady phase, the invocation returns
// non-zero without a result line, and nothing is left behind.
func TestDeadlineAbortsClean(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var log fixtureLog
	opts := tinyOptions(t, &log)
	opts.seconds = 30
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	var out bytes.Buffer
	start := time.Now()
	err := runSuite(ctx, opts, &out)
	if err == nil {
		t.Fatal("run outlived its deadline without an error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("abort took %v", d)
	}
	if lines := resultLines(t, out.String()); len(lines) != 0 {
		t.Errorf("aborted run printed result lines: %v", lines)
	}
	assertGone(t, baseline, &log)

	if code := realMain([]string{"-scale", "tiny", "-seconds", "30", "-deadline", "300ms", "-out", t.TempDir()}, io.Discard, io.Discard); code == 0 {
		t.Error("realMain returned 0 after its -deadline expired")
	}
}

// TestSetupErrorExitsNonZero: a set-up that cannot complete (the output
// directory is a file) is an error exit, not a result.
func TestSetupErrorExitsNonZero(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := realMain([]string{"-scale", "tiny", "-seconds", "0.1", "-workload", "dna_scan", "-out", blocker}, &out, io.Discard); code == 0 {
		t.Error("realMain returned 0 although set-up failed")
	}
	if lines := resultLines(t, out.String()); len(lines) != 0 {
		t.Errorf("failed run printed result lines: %v", lines)
	}
}

// TestManifestMatchesCatalog fails when BENCHMARK.json and the tables
// in catalog.go drift apart. Regenerate with `go run . -manifest`.
func TestManifestMatchesCatalog(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found beside bench/:", err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`")
	}
}

// TestNoSubprocesses: the benchmark is one OS process, so nothing
// under bench/ may import os/exec.
func TestNoSubprocesses(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	needle := []byte(`"os/` + `exec"`) // split, or this file would match itself
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, needle) {
			t.Errorf("%s imports os/exec", f)
		}
	}
}
