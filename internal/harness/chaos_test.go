package harness

import (
	"net"
	"strings"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/fault"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/proto"
)

// TestFaultStormSmoke is the fault-injected storm: a closed-loop load
// run through a listener that periodically stalls and tears connections
// mid-message, against a durable store with the background scrub on.
// The acceptance bar is the robustness contract end to end — zero
// incorrect results, every injected fault absorbed as a typed error or
// a successful retry, the process never hangs or dies.
func TestFaultStormSmoke(t *testing.T) {
	p := bfv.ParamsToy()
	db, tgt, err := NewStormTenant(p, "storm-db", "chaos", 192)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := proto.NewServerWithServing(p, core.EngineSpec{},
		proto.StoreOptions{DataDir: t.TempDir(), ScrubInterval: 50 * time.Millisecond},
		proto.CoalesceConfig{Window: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown() //nolint:errcheck // test teardown
	srv.SetTimeouts(2*time.Second, 2*time.Second)
	if err := srv.Store().Upload(tgt.DB, core.EngineSpec{}, db); err != nil {
		t.Fatal(err)
	}

	inj := fault.New(fault.Config{Seed: "storm-smoke", DropEvery: 211, StallEvery: 97, Stall: time.Millisecond})
	inj.Bind(srv.Metrics())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(inj.Listener(l)) //nolint:errcheck // returns when the listener closes

	rep, err := RunStorm(StormConfig{
		Addr:     l.Addr().String(),
		Params:   p,
		Targets:  []StormTarget{*tgt},
		Conns:    4,
		Duration: 800 * time.Millisecond,
		Retry: proto.RetryPolicy{
			Max: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond,
			Timeout: 2 * time.Second, Seed: "smoke",
		},
	})
	if err != nil {
		t.Fatalf("storm under faults: %v", err)
	}
	if rep.WrongResults != 0 {
		t.Fatalf("%d wrong results under faults — correctness broken", rep.WrongResults)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d untyped client errors under faults, want 0 (typed or retried)", rep.Errors)
	}
	if rep.Queries == 0 {
		t.Fatal("storm issued no queries")
	}
	var faults []metrics.KV // the fault_*_total counters inj.Bind mirrors
	var injected int64
	for _, kv := range srv.Metrics().Snapshot() {
		if strings.HasPrefix(kv.Name, "fault_") {
			faults = append(faults, kv)
			injected += kv.Value
		}
	}
	if injected == 0 {
		t.Fatal("no faults injected — the smoke proved nothing")
	}
	if rep.Retries == 0 {
		t.Fatalf("faults injected (%v) but no client retries recorded", faults)
	}
	t.Logf("storm: %d queries, %d retries, %d reconnects, faults %v", rep.Queries, rep.Retries, rep.Reconnects, faults)
}
