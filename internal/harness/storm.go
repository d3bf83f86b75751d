package harness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/proto"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/trace"
)

// StormTarget is one database a storm hammers: its name on the server
// and the prepared queries (round-robined per connection). Expect, when
// non-nil, is index-aligned ground truth; every mismatch is counted as
// a wrong result — the dropped/corrupted-result detector for CI.
type StormTarget struct {
	DB      string
	Queries []*core.Query
	Expect  [][]int
}

// StormConfig drives one closed-loop load-generation run against a live
// cmserver. Connections are spread round-robin across Targets; each
// connection issues queries back-to-back (or throttled at PerConnQPS)
// until Duration elapses.
type StormConfig struct {
	Addr    string
	Params  bfv.Params
	Targets []StormTarget
	// Conns is the number of concurrent client connections (the closed
	// loop's concurrency level). Defaults to 8.
	Conns int
	// PerConnQPS throttles each connection to this rate; 0 means
	// unthrottled closed-loop (send next query as soon as the previous
	// reply lands).
	PerConnQPS float64
	// Duration is how long the storm runs. Defaults to 2s.
	Duration time.Duration
	// Retry, when Max > 0, arms client-side retry-with-backoff on every
	// storm connection (the chaos smoke runs with this on: injected
	// connection faults must resolve as retries, not client errors).
	// Each connection gets a distinct seed derived from Retry.Seed.
	Retry proto.RetryPolicy
}

// StormReport is the machine-readable outcome of one storm run:
// client-side latency/throughput plus the server-side serving-metrics
// delta (coalesce rate, batch occupancy, arena passes saved) captured
// over exactly the storm interval.
type StormReport struct {
	Conns       int     `json:"conns"`
	DurationSec float64 `json:"duration_sec"`

	// Client-side view.
	Queries      int64   `json:"queries"`
	QPS          float64 `json:"qps"`
	Errors       int64   `json:"errors"`
	Rejected     int64   `json:"rejected"`      // admission-control ErrOverloaded replies
	ServerFaults int64   `json:"server_faults"` // typed MsgServerError replies (panic, corruption)
	Retries      int64   `json:"retries"`       // client-side request replays
	Reconnects   int64   `json:"reconnects"`    // client-side re-dials after poisoned conns
	WrongResults int64   `json:"wrong_results"`
	LatMeanMs    float64 `json:"lat_mean_ms"`
	LatP50Ms     float64 `json:"lat_p50_ms"`
	LatP95Ms     float64 `json:"lat_p95_ms"`
	LatP99Ms     float64 `json:"lat_p99_ms"`
	LatMaxMs     float64 `json:"lat_max_ms"`

	// Server-side delta over the run (from MsgStats snapshots).
	ServerQueries      int64   `json:"server_queries"`
	Batches            int64   `json:"batches"`
	CoalescedQueries   int64   `json:"coalesced_queries"`
	CoalesceRate       float64 `json:"coalesce_rate"`
	BatchOccupancyMean float64 `json:"batch_occupancy_mean"`
	ChunkStreams       int64   `json:"chunk_streams"`
	ChunkStreamsSaved  int64   `json:"chunk_streams_saved"`
	// ChunkStreamsPerQuery vs the unbatched baseline (one full arena
	// pass per query, i.e. NumChunks streams) is the acceptance metric:
	// coalescing must push the former strictly below the latter.
	ChunkStreamsPerQuery          float64 `json:"chunk_streams_per_query"`
	UnbatchedChunkStreamsPerQuery int64   `json:"unbatched_chunk_streams_per_query"`

	// Per-stage latency attribution from the server's trace flight
	// recorder, sampled at the end of the run (the newest ring
	// contents — a tail sample of the storm, not every request).
	TraceSamples    int               `json:"trace_samples,omitempty"`
	TraceCorrelated int               `json:"trace_correlated,omitempty"` // samples carrying a storm-minted client trace ID
	Stages          []StormStageStats `json:"stages,omitempty"`
	// Per-tenant serving telemetry: query/error counts from the
	// server's labeled /metrics deltas, latency quantiles from its
	// trace samples.
	Tenants []StormTenantStats `json:"tenants,omitempty"`
}

// StormStageStats summarises one request-lifecycle stage across the
// run's trace samples.
type StormStageStats struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// StormTenantStats is one tenant's slice of the storm.
type StormTenantStats struct {
	DB           string  `json:"db"`
	Queries      int64   `json:"queries"` // server-side tenant_queries_total delta
	Errors       int64   `json:"errors"`  // server-side tenant_errors_total delta
	TraceSamples int64   `json:"trace_samples"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
}

func (c StormConfig) withDefaults() StormConfig {
	if c.Conns <= 0 {
		c.Conns = 8
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	return c
}

// statDelta returns after[name]-before[name], tolerating names missing
// from either snapshot (counts as zero — e.g. a coalescing-disabled
// server never registers batch counters).
func statDelta(before, after []metrics.KV, name string) int64 {
	b, _ := metrics.Lookup(before, name)
	a, _ := metrics.Lookup(after, name)
	return a - b
}

// RunStorm executes one closed-loop storm per StormConfig and returns
// its report. The databases in cfg.Targets must already be uploaded.
func RunStorm(cfg StormConfig) (*StormReport, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("harness: storm needs at least one target")
	}
	for _, tgt := range cfg.Targets {
		if len(tgt.Queries) == 0 {
			return nil, fmt.Errorf("harness: storm target %q has no queries", tgt.DB)
		}
	}

	// Control connection: server-side metrics snapshots bracketing the
	// run, so the report's server delta covers exactly this storm.
	ctrl, err := proto.Dial(cfg.Addr, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("harness: storm control dial: %w", err)
	}
	defer ctrl.Close()
	if cfg.Retry.Max > 0 {
		policy := cfg.Retry
		policy.Seed = cfg.Retry.Seed + "/ctrl"
		ctrl.SetRetry(policy)
	}

	// Pre-encode every request once (payloads are connection-
	// independent): the storm measures serving throughput, so the
	// generator amortizes request construction the way any production
	// client replaying a hot query would, instead of re-encoding
	// chunk-count polynomials on every send.
	prepared := make([][][]byte, len(cfg.Targets))
	for ti, tgt := range cfg.Targets {
		prepared[ti] = make([][]byte, len(tgt.Queries))
		for qi, q := range tgt.Queries {
			if prepared[ti][qi], err = ctrl.PrepareSearch(tgt.DB, q); err != nil {
				return nil, fmt.Errorf("harness: storm encode %q: %w", tgt.DB, err)
			}
		}
	}

	before, err := ctrl.ServerStats()
	if err != nil {
		return nil, fmt.Errorf("harness: storm stats: %w", err)
	}

	var (
		lat        metrics.Histogram
		queries    atomic.Int64
		errs       atomic.Int64
		rejected   atomic.Int64
		faults     atomic.Int64
		wrong      atomic.Int64
		retries    atomic.Int64
		reconnects atomic.Int64
	)
	var interval time.Duration
	if cfg.PerConnQPS > 0 {
		interval = time.Duration(float64(time.Second) / cfg.PerConnQPS)
	}

	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	dialErrs := make(chan error, cfg.Conns)
	start := time.Now()
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := proto.Dial(cfg.Addr, cfg.Params)
			if err != nil {
				dialErrs <- err
				return
			}
			defer conn.Close()
			if cfg.Retry.Max > 0 {
				policy := cfg.Retry
				policy.Seed = fmt.Sprintf("%s/conn%d", cfg.Retry.Seed, c)
				conn.SetRetry(policy)
			}
			// Per-connection trace ID bases partition the 64-bit space, so
			// every storm request is client-correlated in the server's
			// flight recorder without coordination between connections.
			conn.EnableTracing(uint64(c+1) << 48)
			defer func() {
				rs := conn.RetryStats()
				retries.Add(rs.Retries)
				reconnects.Add(rs.Reconnects)
			}()
			tgt := cfg.Targets[c%len(cfg.Targets)]
			payloads := prepared[c%len(cfg.Targets)]
			next := time.Now()
			for k := 0; ; k++ {
				if interval > 0 {
					time.Sleep(time.Until(next))
					next = next.Add(interval)
				}
				if !time.Now().Before(deadline) {
					return
				}
				qi := k % len(tgt.Queries)
				t0 := time.Now()
				got, err := conn.SearchPrepared(payloads[qi])
				lat.Observe(time.Since(t0).Nanoseconds())
				queries.Add(1)
				switch {
				case errors.Is(err, proto.ErrOverloaded):
					rejected.Add(1)
				case errors.Is(err, proto.ErrServerFault):
					faults.Add(1)
				case err != nil:
					errs.Add(1)
				case tgt.Expect != nil && !equalCandidates(got, tgt.Expect[qi]):
					wrong.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(dialErrs)
	for err := range dialErrs {
		return nil, fmt.Errorf("harness: storm dial: %w", err)
	}

	after, err := ctrl.ServerStats()
	if err != nil {
		return nil, fmt.Errorf("harness: storm stats: %w", err)
	}

	rep := &StormReport{
		Conns:        cfg.Conns,
		DurationSec:  elapsed.Seconds(),
		Queries:      queries.Load(),
		Errors:       errs.Load(),
		Rejected:     rejected.Load(),
		ServerFaults: faults.Load(),
		Retries:      retries.Load(),
		Reconnects:   reconnects.Load(),
		WrongResults: wrong.Load(),
		LatP50Ms:     float64(lat.Quantile(0.50)) / 1e6,
		LatP95Ms:     float64(lat.Quantile(0.95)) / 1e6,
		LatP99Ms:     float64(lat.Quantile(0.99)) / 1e6,
		LatMaxMs:     float64(lat.Max()) / 1e6,

		ServerQueries:     statDelta(before, after, "queries_total"),
		Batches:           statDelta(before, after, "batches_total"),
		CoalescedQueries:  statDelta(before, after, "coalesced_queries_total"),
		ChunkStreams:      statDelta(before, after, "chunk_streams_total"),
		ChunkStreamsSaved: statDelta(before, after, "chunk_streams_saved_total"),

		UnbatchedChunkStreamsPerQuery: int64(cfg.Targets[0].Queries[0].NumChunks),
	}
	if rep.Queries > 0 {
		rep.QPS = float64(rep.Queries) / elapsed.Seconds()
		rep.LatMeanMs = float64(lat.Sum()) / float64(lat.Count()) / 1e6
	}
	if rep.ServerQueries > 0 {
		rep.CoalesceRate = float64(rep.CoalescedQueries) / float64(rep.ServerQueries)
		rep.ChunkStreamsPerQuery = float64(rep.ChunkStreams) / float64(rep.ServerQueries)
	}
	if occBatches := statDelta(before, after, "batch_occupancy_count"); occBatches > 0 {
		rep.BatchOccupancyMean = float64(statDelta(before, after, "batch_occupancy_sum")) / float64(occBatches)
	}

	// Stage-level attribution from the server's flight recorder. A
	// pre-tracing server answers MsgTraceDump with MsgError; the report
	// then simply omits the breakdown rather than failing the storm.
	if dump, err := ctrl.TraceDump(0, false); err == nil {
		rep.addTraceBreakdown(cfg, before, after, dump)
	}
	return rep, nil
}

// addTraceBreakdown folds the server's trace samples into per-stage and
// per-tenant latency summaries, pairing them with the labeled
// per-tenant counter deltas from the /metrics snapshots.
func (rep *StormReport) addTraceBreakdown(cfg StormConfig, before, after []metrics.KV, dump []trace.Trace) {
	rep.TraceSamples = len(dump)
	var stageH [trace.NumStages]metrics.Histogram
	tenantH := make(map[string]*metrics.Histogram, len(cfg.Targets))
	for i := range dump {
		tr := &dump[i]
		for s, ns := range tr.StageNS {
			if ns > 0 {
				stageH[s].Observe(ns)
			}
		}
		if tr.Flags&trace.FlagClientID != 0 {
			rep.TraceCorrelated++
		}
		h := tenantH[tr.Tenant]
		if h == nil {
			h = &metrics.Histogram{}
			tenantH[tr.Tenant] = h
		}
		h.Observe(tr.TotalNS)
	}
	for s := range stageH {
		h := &stageH[s]
		if h.Count() == 0 {
			continue
		}
		rep.Stages = append(rep.Stages, StormStageStats{
			Stage:  trace.Stage(s).String(),
			Count:  h.Count(),
			MeanMs: float64(h.Sum()) / float64(h.Count()) / 1e6,
			P50Ms:  float64(h.Quantile(0.50)) / 1e6,
			P95Ms:  float64(h.Quantile(0.95)) / 1e6,
			P99Ms:  float64(h.Quantile(0.99)) / 1e6,
		})
	}
	for _, tgt := range cfg.Targets {
		ts := StormTenantStats{
			DB:      tgt.DB,
			Queries: statDelta(before, after, `tenant_queries_total{db="`+tgt.DB+`"}`),
			Errors:  statDelta(before, after, `tenant_errors_total{db="`+tgt.DB+`"}`),
		}
		if h := tenantH[tgt.DB]; h != nil {
			ts.TraceSamples = h.Count()
			ts.P50Ms = float64(h.Quantile(0.50)) / 1e6
			ts.P95Ms = float64(h.Quantile(0.95)) / 1e6
			ts.P99Ms = float64(h.Quantile(0.99)) / 1e6
		}
		rep.Tenants = append(rep.Tenants, ts)
	}
}

func equalCandidates(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NewStormTenant builds one storm tenant from a seed: an encrypted
// database of dbBytes (at least 84) with two known patterns planted,
// one query per pattern (so a storm window mixes two distinct payloads
// per tenant, sharing a DBTok plane but not their RHS), and
// serial-engine ground truth for both. Used by cmstorm (against a live
// server) and the serving bench (in-process).
func NewStormTenant(p bfv.Params, name, seed string, dbBytes int) (*core.EncryptedDB, *StormTarget, error) {
	cfg := core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("storm-"+seed+"-"+name))
	if err != nil {
		return nil, nil, err
	}
	data := make([]byte, dbBytes)
	rng.NewSourceFromString("storm-data-" + seed + "-" + name).Bytes(data)
	pats := [][]byte{{0xDE, 0xAD, 0xBE, 0xEF}, {0xFE, 0xED, 0xFA, 0xCE}}
	for i, pat := range pats {
		for j := 0; j < 32; j++ {
			mathutil.SetBit(data, 320*(i+1)+j, mathutil.GetBit(pat, j))
		}
	}
	db, err := client.EncryptDatabase(data, dbBytes*8)
	if err != nil {
		return nil, nil, err
	}
	eng := core.NewSerialEngine(p, db)
	tgt := &StormTarget{DB: name}
	for _, pat := range pats {
		query, err := client.PrepareQuery(pat, 32, dbBytes*8)
		if err != nil {
			return nil, nil, err
		}
		ir, err := eng.SearchAndIndex(query)
		if err != nil {
			return nil, nil, err
		}
		if len(ir.Candidates) == 0 {
			return nil, nil, fmt.Errorf("harness: storm tenant %s: vacuous fixture", name)
		}
		tgt.Queries = append(tgt.Queries, query)
		tgt.Expect = append(tgt.Expect, ir.Candidates)
		ir.Release()
	}
	return db, tgt, nil
}
