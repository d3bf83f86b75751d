package main

import (
	"encoding/json"
	"io"
)

// metricDef is one named metric of the benchmark. The names are the
// contract later PRs are gated on (BENCHMARK.json is generated from
// this table by -manifest, and the smoke test fails if the committed
// file drifts from it).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// runSeconds is the steady-phase length BENCHMARK.json asks the driver
// for. ISSUE 12 wanted 30 s; the driver's cap on all runs together
// (4 + 22 per workload, set-up included) leaves room for 10.
const runSeconds = 10

// defaultSeed is the generator seed when -seed is not given.
const defaultSeed = 1

// exactBound gates the metrics that are exact counts. It stands for 0:
// any change to either is at least one 4 KiB polynomial, 0.05 % of the
// largest query, and a positive value cannot be mistaken for "unset".
const exactBound = 0.00001

// timingBound gates every timing. It is the largest bound the driver
// accepts: the host is a 2-vCPU VM whose neighbours come and go, and
// while quiet 10-seed sets spread by 1-5 % between their quartiles,
// noisy ones reached 8-20 % (README.md), so nothing tighter would hold.
const timingBound = 0.25

// endToEnd lists what a user of the serving stack feels, per workload.
// Two of ISSUE 12's nine are not here. failed_share is printed with
// them but is 0 on every accepted run (the driver wants metrics that are
// never 0), and the result line's attempted/failed carry it.
// search_p90_ms could not hold any bound the driver accepts - a noisy
// neighbour puts a tenth of the samples into a mode half again as slow
// long before it moves the median - so it is a per-layer metric, as the
// issue's own rule for such a metric says.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", timingBound},
	{"search_p50_ms", "ms", "lower", timingBound},
	{"searches_per_s", "1/s", "higher", timingBound},
	{"fresh_query_p50_ms", "ms", "lower", timingBound},
	{"query_wire_bytes", "B", "lower", exactBound},
	{"arena_bytes_per_plain_byte", "ratio", "lower", exactBound},
	{"upload_p50_ms", "ms", "lower", timingBound},
}

// perLayer lists the traced run's metrics, grouped by the repo module
// they measure. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"ring.sweep_ms", "ms", "lower", 0},
	{"ring.coeffs_per_s", "1/s", "higher", 0},
	{"ring.arena_gbps", "GB/s", "higher", 0},
	{"ring.arena_bw_fraction", "ratio", "higher", 0},

	{"core.candidates_ms", "ms", "lower", 0},
	{"core.prepare_query_ms", "ms", "lower", 0},
	{"core.verify_ms", "ms", "lower", 0},
	{"core.encrypt_db_mib_per_s", "MiB/s", "higher", 0},

	{"engine.search_ms", "ms", "lower", 0},
	{"engine.self_ms", "ms", "lower", 0},
	{"engine.over_kernel_ratio", "ratio", "lower", 0},
	{"engine.chunk_streams_per_search", "count", "lower", 0},
	{"engine.allocs_per_search", "count", "lower", 0},

	{"wire.encode_query_ms", "ms", "lower", 0},
	{"wire.decode_query_ms", "ms", "lower", 0},
	{"wire.encode_result_us", "us", "lower", 0},
	{"wire.decode_db_mib_per_s", "MiB/s", "higher", 0},

	{"store.search_ms", "ms", "lower", 0},
	{"store.self_ms", "ms", "lower", 0},
	{"store.reload_ms", "ms", "lower", 0},
	{"store.reloads_per_search", "ratio", "lower", 0},
	{"store.evictions_per_search", "ratio", "lower", 0},
	{"store.upload_ms", "ms", "lower", 0},

	{"segment.save_ms", "ms", "lower", 0},
	{"segment.load_ms", "ms", "lower", 0},
	{"segment.bytes_per_plain_byte", "ratio", "lower", 0},

	{"search_p90_ms", "ms", "lower", 0},
	{"rpc.roundtrip_ms", "ms", "lower", 0},
	{"rpc.self_ms", "ms", "lower", 0},
	{"coalesce.batch_occupancy", "ratio", "higher", 0},
	{"coalesce.chunk_streams_per_query", "ratio", "lower", 0},
	{"coalesce.decodes_saved_share", "ratio", "higher", 0},
	{"coalesce.rejected_share", "ratio", "lower", 0},

	{"membw.seq_read_gbps", "GB/s", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.attributed_share", "ratio", "higher", 0},
	{"bench.samples_steady", "count", "higher", 0},
}

// writeManifest renders BENCHMARK.json from the tables above.
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, s := range workloads {
		m.Workloads = append(m.Workloads, wl{s.name, s.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
