package harness

import (
	"net"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/proto"
)

// stormServer starts an in-process server on a loopback port with the
// tenant uploaded, and returns its address plus a shutdown func.
func stormServer(p bfv.Params, db *core.EncryptedDB, name string, coalesce proto.CoalesceConfig) (string, func(), error) {
	srv, err := proto.NewServerWithServing(p, core.EngineSpec{}, proto.StoreOptions{}, coalesce)
	if err != nil {
		return "", nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	go srv.Serve(l) //nolint:errcheck // returns when the listener closes
	stop := func() {
		l.Close()
		srv.Close()
	}
	conn, err := proto.Dial(l.Addr().String(), p)
	if err != nil {
		stop()
		return "", nil, err
	}
	defer conn.Close()
	if err := conn.UploadDB(name, core.EngineSpec{}, db); err != nil {
		stop()
		return "", nil, err
	}
	return l.Addr().String(), stop, nil
}

// TestRunStormSmoke drives the shared storm driver against an
// in-process coalescing server on toy parameters: every reply must
// verify against ground truth, the server-side delta must account for
// every client query, and the closed loop must actually coalesce.
func TestRunStormSmoke(t *testing.T) {
	p := bfv.ParamsToy()
	db, tgt, err := NewStormTenant(p, "smoke", "storm-test", 192)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, err := stormServer(p, db, tgt.DB, proto.CoalesceConfig{
		Window:   5 * time.Millisecond,
		MaxBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rep, err := RunStorm(StormConfig{
		Addr:     addr,
		Params:   p,
		Targets:  []StormTarget{*tgt},
		Conns:    4,
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 {
		t.Fatal("storm completed no queries")
	}
	if rep.Errors != 0 || rep.WrongResults != 0 || rep.Rejected != 0 {
		t.Fatalf("storm not clean: errors=%d wrong=%d rejected=%d", rep.Errors, rep.WrongResults, rep.Rejected)
	}
	if rep.ServerQueries != rep.Queries {
		t.Fatalf("server counted %d queries, clients sent %d", rep.ServerQueries, rep.Queries)
	}
	if rep.CoalescedQueries == 0 || rep.BatchOccupancyMean <= 1 {
		t.Fatalf("closed loop did not coalesce: coalesced=%d occupancy=%.2f",
			rep.CoalescedQueries, rep.BatchOccupancyMean)
	}
	if rep.ChunkStreamsPerQuery >= float64(rep.UnbatchedChunkStreamsPerQuery) {
		t.Fatalf("chunk streams/query %.2f not below unbatched %d",
			rep.ChunkStreamsPerQuery, rep.UnbatchedChunkStreamsPerQuery)
	}
	if rep.LatMaxMs <= 0 || rep.QPS <= 0 {
		t.Fatalf("degenerate latency/throughput: max=%.3fms qps=%.1f", rep.LatMaxMs, rep.QPS)
	}

	// Stage-latency attribution: the storm must come back with trace
	// samples covering the pipeline stages, all client-correlated
	// (every storm connection mints trace IDs), and the per-tenant
	// breakdown must account for the tenant's queries.
	if rep.TraceSamples == 0 || rep.TraceCorrelated != rep.TraceSamples {
		t.Fatalf("trace samples = %d, correlated = %d", rep.TraceSamples, rep.TraceCorrelated)
	}
	stages := map[string]bool{}
	for _, st := range rep.Stages {
		if st.Count <= 0 || st.MeanMs < 0 {
			t.Fatalf("degenerate stage stats: %+v", st)
		}
		stages[st.Stage] = true
	}
	for _, want := range []string{"read", "decode", "coalesce_wait", "arena", "encode", "write"} {
		if !stages[want] {
			t.Fatalf("stage %q missing from storm breakdown %v", want, rep.Stages)
		}
	}
	if len(rep.Tenants) != 1 || rep.Tenants[0].DB != tgt.DB {
		t.Fatalf("tenant breakdown = %+v", rep.Tenants)
	}
	if got := rep.Tenants[0].Queries; got != rep.Queries {
		t.Fatalf("tenant_queries_total delta %d != client queries %d", got, rep.Queries)
	}
	if rep.Tenants[0].TraceSamples == 0 || rep.Tenants[0].P95Ms <= 0 {
		t.Fatalf("tenant latency sample missing: %+v", rep.Tenants[0])
	}
}
