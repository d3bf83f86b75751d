package proto

import (
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/fault"
	"ciphermatch/internal/metrics"
)

// TestBackgroundScrubTick verifies the scrub goroutine runs on its own:
// a corrupted resident arena is quarantined without anyone calling
// ScrubOnce.
func TestBackgroundScrubTick(t *testing.T) {
	p := bfv.ParamsToy()
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: t.TempDir(), ScrubInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tn := newTenant(t, p, "ticked", core.EngineSpec{}, 192, 200)
	if err := st.Upload(tn.name, tn.spec, tn.db); err != nil {
		t.Fatal(err)
	}
	tn.db.Arena()[7] ^= 1
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := st.Search(tn.name, tn.q); errors.Is(err, ErrCorruptDB) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background scrub never quarantined the corrupt arena")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// panicEngine stands in for a hosted engine with a latent bug.
type panicEngine struct{}

func (panicEngine) SearchAndIndex(*core.Query) (*core.IndexResult, error) {
	panic("chaos: injected engine panic")
}
func (panicEngine) SearchAndIndexBatch(*core.BatchQuery) ([]*core.IndexResult, error) {
	panic("chaos: injected engine panic")
}
func (panicEngine) Stats() core.Stats { return core.Stats{} }
func (panicEngine) Describe() string  { return "panic" }
func (panicEngine) Close() error      { return nil }

// plantPanicDB registers a database whose engine panics on every search.
func plantPanicDB(st *Store, name string) {
	d := &hostedDB{name: name, spec: core.EngineSpec{Kind: core.EngineSerial}, chunks: 1, bitLen: 8, engine: panicEngine{}}
	d.loaded.Store(true)
	st.mu.Lock()
	st.dbs[name] = d
	st.mu.Unlock()
}

// TestPanicIsolation drives a panicking engine through both serving
// paths — the direct per-connection handler and the coalesced batch
// executor — and requires a typed MsgServerError reply, a recovered
// counter, and an untouched process: the same connection then serves a
// healthy database.
func TestPanicIsolation(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newTenant(t, p, "healthy", core.EngineSpec{}, 192, 200)
	for _, tc := range []struct {
		name     string
		coalesce CoalesceConfig
	}{
		{"direct", CoalesceConfig{}},
		{"coalesced", CoalesceConfig{Window: 2 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, tc.coalesce)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if err := srv.Store().Upload(tn.name, tn.spec, tn.db); err != nil {
				t.Fatal(err)
			}
			plantPanicDB(srv.Store(), "boom")
			addr := startServer(t, srv)
			conn, err := Dial(addr, p)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			if _, err := conn.Search("boom", tn.q); !errors.Is(err, ErrServerFault) {
				t.Fatalf("panicking search: %v, want ErrServerFault", err)
			}
			got, err := conn.Search(tn.name, tn.q) // same conn still serves
			if err != nil {
				t.Fatalf("healthy search after panic: %v", err)
			}
			assertCandidates(t, "post-panic", got, tn.expect)
			if n, _ := metrics.Lookup(srv.Metrics().Snapshot(), "panics_recovered_total"); n == 0 {
				t.Fatal("panic not counted as recovered")
			}
		})
	}
}

// TestShutdownDrainsInFlight parks queries in an open coalescing window
// and shuts the server down: every parked query must still get its
// (correct) reply before connections close, and new connections must be
// refused afterwards.
func TestShutdownDrainsInFlight(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newTenant(t, p, "drained", core.EngineSpec{}, 192, 200)
	srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, CoalesceConfig{Window: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Upload(tn.name, tn.spec, tn.db); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	const clients = 4
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		conn, err := Dial(addr, p)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := conn.Search(tn.name, tn.q)
			if err == nil && !slices.Equal(got, tn.expect) {
				err = errors.New("drained reply not bit-identical")
			}
			errs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond) // queries are parked in the window
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("in-flight query dropped by shutdown: %v", err)
		}
	}
	// The listener is still accepting, but the server refuses the
	// connection: the first request errors instead of hanging.
	conn, err := Dial(addr, p)
	if err == nil {
		if _, err := conn.Search(tn.name, tn.q); err == nil {
			t.Fatal("post-shutdown request served")
		}
		conn.Close()
	}
}

// TestConnFaultsRetried serves through a fault-injecting listener that
// periodically tears connections mid-message. With retry armed, every
// search must still return the exact ground truth — faults surface as
// retries and reconnects, never as wrong results or client errors.
func TestConnFaultsRetried(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newTenant(t, p, "retried", core.EngineSpec{}, 192, 200)
	srv := newMemServer(t, p, core.EngineSpec{})
	defer srv.Close()
	if err := srv.Store().Upload(tn.name, tn.spec, tn.db); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Config{Seed: "connchaos", DropEvery: 23})
	inj.Bind(srv.Metrics())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(inj.Listener(l)) //nolint:errcheck // returns when the listener closes

	conn, err := Dial(l.Addr().String(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetRetry(RetryPolicy{Max: 8, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: "retry"})
	for i := 0; i < 25; i++ {
		got, err := conn.Search(tn.name, tn.q)
		if err != nil {
			t.Fatalf("search %d under connection faults: %v", i, err)
		}
		assertCandidates(t, "under faults", got, tn.expect)
	}
	if n, _ := metrics.Lookup(srv.Metrics().Snapshot(), "fault_conn_drops_total"); n == 0 {
		t.Fatal("no connection faults were injected — the test proved nothing")
	}
	if rs := conn.RetryStats(); rs.Retries == 0 {
		t.Fatalf("faults injected but no retries recorded: %+v", rs)
	}
}

// TestSlowLorisReadTimeout sends a partial header and stalls. The
// server's read deadline must reclaim the connection instead of leaking
// a handler goroutine forever.
func TestSlowLorisReadTimeout(t *testing.T) {
	p := bfv.ParamsToy()
	srv := newMemServer(t, p, core.EngineSpec{})
	defer srv.Close()
	srv.SetTimeouts(50*time.Millisecond, 50*time.Millisecond)
	addr := startServer(t, srv)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{MsgQuery, 0x01}); err != nil { // 2 of 5 header bytes, then silence
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // test guard
	t0 := time.Now()
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a half-written header")
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("slow-loris connection reclaimed only after %v", d)
	}
	if n, _ := metrics.Lookup(srv.Metrics().Snapshot(), "conns_truncated_total"); n == 0 {
		t.Fatal("truncated connection not counted")
	}
}
