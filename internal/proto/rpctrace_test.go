package proto

import (
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/trace"
)

// tracingModes are the two serving paths every tracing test covers.
var tracingModes = []struct {
	name     string
	coalesce bool
}{{"direct", false}, {"coalesced", true}}

// startTracingServer starts a server on the direct or the coalescing
// path. A 1ns slow threshold routes every request into the slow ring
// too, so both dump flavours can be asserted non-empty.
func startTracingServer(t *testing.T, p bfv.Params, coalesce bool) (*Server, string) {
	t.Helper()
	srv := NewServerWithSpec(p, core.EngineSpec{})
	if coalesce {
		var err error
		srv, err = NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, CoalesceConfig{
			Window:   2 * time.Millisecond,
			MaxBatch: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetTracing(64, time.Nanosecond)
	return srv, startServer(t, srv)
}

// TestTracingEndToEnd drives traced queries through a real socket on
// both serving paths (direct and coalesced) and checks the full
// observability loop: client trace IDs survive the wire, server-side
// stage stamps land, the flight recorder serves them back over
// MsgTraceDump, per-tenant labeled metrics accumulate, and traced
// results stay bit-identical to untraced ones.
func TestTracingEndToEnd(t *testing.T) {
	p := bfv.ParamsToy()
	for _, mode := range tracingModes {
		t.Run(mode.name, func(t *testing.T) {
			fx := newCoalesceFixture(t, p, "trace-"+mode.name)
			srv, addr := startTracingServer(t, p, mode.coalesce)

			traced, err := Dial(addr, p)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.Close()
			const base = uint64(0xAB) << 56
			traced.EnableTracing(base)
			if err := traced.UploadDB(fx.name, core.EngineSpec{}, fx.db); err != nil {
				t.Fatal(err)
			}

			plain, err := Dial(addr, p)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()

			for qi, q := range fx.queries {
				got, err := traced.Search(fx.name, q)
				if err != nil {
					t.Fatalf("%s traced: %v", fx.labels[qi], err)
				}
				if !equalInts(got, fx.expect[qi]) {
					t.Fatalf("%s traced candidates %v != direct %v", fx.labels[qi], got, fx.expect[qi])
				}
				// The trace extension must be invisible to results: an
				// untraced client asking the same question gets identical
				// bytes back.
				got2, err := plain.Search(fx.name, q)
				if err != nil {
					t.Fatalf("%s untraced: %v", fx.labels[qi], err)
				}
				if !equalInts(got2, fx.expect[qi]) {
					t.Fatalf("%s untraced candidates %v != direct %v", fx.labels[qi], got2, fx.expect[qi])
				}
			}

			dump, err := traced.TraceDump(0, false)
			if err != nil {
				t.Fatal(err)
			}
			var clientTraced, serverAssigned int
			for _, tr := range dump {
				if tr.Tenant != fx.name {
					t.Fatalf("trace tenant = %q, want %q", tr.Tenant, fx.name)
				}
				if tr.TotalNS <= 0 || tr.StageNS[trace.StageArena] <= 0 {
					t.Fatalf("trace missing stage time: %+v", tr)
				}
				if tr.StageNS[trace.StageDecode] <= 0 {
					t.Fatalf("decode stage not stamped: %+v", tr)
				}
				if tr.ChunkStreams <= 0 || tr.Batch < 1 {
					t.Fatalf("arena attribution missing: %+v", tr)
				}
				// Serial queries each form their own window, so FlagCoalesced
				// (= actually shared a batch) stays clear; the coalescer path
				// shows itself through the coalesce_wait stage instead.
				if mode.coalesce && tr.StageNS[trace.StageCoalesceWait] <= 0 {
					t.Fatalf("coalesced-path trace missing coalesce_wait: %+v", tr)
				}
				if tr.Flags&trace.FlagClientID != 0 {
					clientTraced++
					if tr.ID <= base || tr.ID > base+uint64(len(fx.queries)) {
						t.Fatalf("client trace ID %#x outside minted range", tr.ID)
					}
				} else {
					serverAssigned++
					if tr.ID == 0 {
						t.Fatal("server-assigned trace ID is zero")
					}
				}
			}
			if clientTraced != len(fx.queries) || serverAssigned != len(fx.queries) {
				t.Fatalf("dump split = %d client / %d server, want %d / %d",
					clientTraced, serverAssigned, len(fx.queries), len(fx.queries))
			}

			slow, err := traced.TraceDump(0, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(slow) != len(dump) {
				t.Fatalf("1ns threshold should route all %d traces to the slow ring, got %d",
					len(dump), len(slow))
			}

			// Per-tenant serving telemetry and stage histograms.
			kvs := srv.Metrics().Snapshot()
			wantQ := int64(2 * len(fx.queries))
			if v := statValue(t, kvs, `tenant_queries_total{db="`+fx.name+`"}`); v != wantQ {
				t.Fatalf("tenant_queries_total = %d, want %d", v, wantQ)
			}
			if v := statValue(t, kvs, `stage_latency_ns_count{stage="arena"}`); v != wantQ {
				t.Fatalf("arena stage samples = %d, want %d", v, wantQ)
			}
			if v := statValue(t, kvs, `tenant_latency_ns_count{db="`+fx.name+`"}`); v != wantQ {
				t.Fatalf("tenant latency samples = %d, want %d", v, wantQ)
			}

			// Unknown tenants collapse into the "_other" label (bounded
			// cardinality) and their traces carry the error flag.
			if _, err := traced.Search("no-such-db", fx.queries[0]); err == nil {
				t.Fatal("search against a missing database must fail")
			}
			kvs = srv.Metrics().Snapshot()
			if v := statValue(t, kvs, `tenant_queries_total{db="_other"}`); v != 1 {
				t.Fatalf(`tenant_queries_total{db="_other"} = %d, want 1`, v)
			}
			if v := statValue(t, kvs, `tenant_errors_total{db="_other"}`); v != 1 {
				t.Fatalf(`tenant_errors_total{db="_other"} = %d, want 1`, v)
			}
			dump, err = traced.TraceDump(1, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(dump) != 1 || dump[0].Flags&trace.FlagError == 0 {
				t.Fatalf("newest trace should carry FlagError: %+v", dump)
			}
		})
	}
}

// TestTracePublishedBeforeReply is the regression test of the
// dump-after-reply race: once a client holds the reply to its query,
// that query's trace, tenant counter and latency sample must already be
// visible — to a dump over ANOTHER connection (its own connection
// trivially serialises behind the handler) and to an in-process
// snapshot. The handler used to publish after writing the reply, so
// about one run in 180 of TestTracingEndToEnd lost a record.
func TestTracePublishedBeforeReply(t *testing.T) {
	p := bfv.ParamsToy()
	for _, mode := range tracingModes {
		t.Run(mode.name, func(t *testing.T) {
			fx := newCoalesceFixture(t, p, "publish-"+mode.name)
			srv, addr := startTracingServer(t, p, mode.coalesce)
			searcher, err := Dial(addr, p)
			if err != nil {
				t.Fatal(err)
			}
			defer searcher.Close()
			searcher.EnableTracing(uint64(0xCD) << 56)
			if err := searcher.UploadDB(fx.name, core.EngineSpec{}, fx.db); err != nil {
				t.Fatal(err)
			}
			observer, err := Dial(addr, p)
			if err != nil {
				t.Fatal(err)
			}
			defer observer.Close()

			for i := 1; i <= 200; i++ {
				id := searcher.NextTraceID()
				if _, err := searcher.Search(fx.name, fx.queries[i%len(fx.queries)]); err != nil {
					t.Fatal(err)
				}
				dump, err := observer.TraceDump(1, false)
				if err != nil {
					t.Fatal(err)
				}
				if len(dump) != 1 || dump[0].ID != id {
					t.Fatalf("query %d: newest trace after the reply is %+v, want ID %#x", i, dump, id)
				}
				kvs := srv.Metrics().Snapshot()
				for _, name := range []string{`tenant_queries_total{db="` + fx.name + `"}`, "request_latency_ns_count"} {
					if v := statValue(t, kvs, name); v != int64(i) {
						t.Fatalf("query %d: %s = %d after the reply", i, name, v)
					}
				}
			}
		})
	}
}

// TestTraceDumpLimitsAndStats checks the dump request's max parameter
// and that the flat MsgStats snapshot carries the labeled trace
// families without disturbing the pre-existing flat names.
func TestTraceDumpLimitsAndStats(t *testing.T) {
	p := bfv.ParamsToy()
	fx := newCoalesceFixture(t, p, "trace-limits")
	srv := NewServerWithSpec(p, core.EngineSpec{})
	defer srv.Close()
	addr := startServer(t, srv)
	conn, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.UploadDB(fx.name, core.EngineSpec{}, fx.db); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := conn.Search(fx.name, fx.queries[0]); err != nil {
			t.Fatal(err)
		}
	}
	dump, err := conn.TraceDump(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) != 2 {
		t.Fatalf("TraceDump(2) returned %d traces", len(dump))
	}
	if dump[0].Seq <= dump[1].Seq {
		t.Fatalf("dump must be newest first: seqs %d, %d", dump[0].Seq, dump[1].Seq)
	}
	kvs, err := conn.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if v := statValue(t, kvs, "queries_total"); v != 3 {
		t.Fatalf("queries_total = %d, want 3", v)
	}
	if v := statValue(t, kvs, "request_latency_ns_count"); v != 3 {
		t.Fatalf("request_latency_ns_count = %d, want 3", v)
	}
	if _, ok := metrics.Lookup(kvs, `stage_latency_ns_count{stage="write"}`); !ok {
		t.Fatal("labeled stage families missing from the flat stats snapshot")
	}
}
