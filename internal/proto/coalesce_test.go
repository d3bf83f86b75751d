package proto

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/rng"
)

// coalesceFixture is one tenant with several prepared queries (two
// distinct patterns) and their serial-engine ground truth, for checking
// that the coalescing path is bit-identical to direct search.
type coalesceFixture struct {
	name    string
	db      *core.EncryptedDB
	queries []*core.Query // index-aligned with expect
	expect  [][]int
	labels  []string
}

func newCoalesceFixture(t *testing.T, p bfv.Params, name string) *coalesceFixture {
	t.Helper()
	cfg := core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("coalesce-"+name))
	if err != nil {
		t.Fatal(err)
	}
	const dbBytes = 192
	data := make([]byte, dbBytes)
	rng.NewSourceFromString("coalesce-data-" + name).Bytes(data)
	patA := []byte{0xFE, 0xED, 0xFA, 0xCE}
	patB := []byte{0x0D, 0xEF, 0xEC, 0x7A}
	for j := 0; j < 32; j++ {
		mathutil.SetBit(data, 160+j, mathutil.GetBit(patA, j))
		mathutil.SetBit(data, 768+j, mathutil.GetBit(patB, j))
	}
	fx := &coalesceFixture{name: name}
	if fx.db, err = client.EncryptDatabase(data, dbBytes*8); err != nil {
		t.Fatal(err)
	}
	eng := core.NewCPUEngine(p, fx.db, 1)
	add := func(label string, q *core.Query) {
		ir, err := eng.SearchAndIndex(q)
		if err != nil {
			t.Fatalf("%s ground truth: %v", label, err)
		}
		if len(ir.Candidates) == 0 {
			t.Fatalf("%s: vacuous fixture", label)
		}
		fx.queries = append(fx.queries, q)
		fx.expect = append(fx.expect, ir.Candidates)
		fx.labels = append(fx.labels, label)
	}
	qa, err := client.PrepareQuery(patA, 32, dbBytes*8)
	if err != nil {
		t.Fatal(err)
	}
	add("factored-A", qa)
	qb, err := client.PrepareQuery(patB, 32, dbBytes*8)
	if err != nil {
		t.Fatal(err)
	}
	add("factored-B", qb)
	return fx
}

func equalInts(a, b []int) bool {
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

func statValue(t *testing.T, kvs []metrics.KV, name string) int64 {
	t.Helper()
	v, ok := metrics.Lookup(kvs, name)
	if !ok {
		t.Fatalf("stats snapshot missing %q", name)
	}
	return v
}

// TestCoalesceBitIdentical is the coalescing-correctness headline:
// concurrent single queries routed through the server-side batcher —
// two databases, every query shape repeated by several simulated users
// — must return exactly the direct
// Store.Search candidates, and the run must actually coalesce (fewer
// batches than queries, arena passes saved).
func TestCoalesceBitIdentical(t *testing.T) {
	p := bfv.ParamsToy()
	fixtures := []*coalesceFixture{
		newCoalesceFixture(t, p, "alpha"),
		newCoalesceFixture(t, p, "beta"),
	}
	srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, CoalesceConfig{
		Window:   500 * time.Millisecond,
		MaxBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := startServer(t, srv)

	up, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	for _, fx := range fixtures {
		if err := up.UploadDB(fx.name, core.EngineSpec{}, fx.db); err != nil {
			t.Fatalf("upload %s: %v", fx.name, err)
		}
	}

	// 2 databases × 2 query shapes × 3 users, all released together so
	// they land inside one batching window per database.
	const users, shapes = 3, 2
	start := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, len(fixtures)*shapes*users)
	for _, fx := range fixtures {
		for qi := range fx.queries {
			for u := 0; u < users; u++ {
				wg.Add(1)
				go func(fx *coalesceFixture, qi int) {
					defer wg.Done()
					conn, err := Dial(addr, p)
					if err != nil {
						errCh <- err
						return
					}
					defer conn.Close()
					<-start
					got, err := conn.Search(fx.name, fx.queries[qi])
					if err != nil {
						errCh <- fmt.Errorf("%s/%s: %v", fx.name, fx.labels[qi], err)
						return
					}
					if !equalInts(got, fx.expect[qi]) {
						errCh <- fmt.Errorf("%s/%s: coalesced candidates %v != direct %v",
							fx.name, fx.labels[qi], got, fx.expect[qi])
					}
				}(fx, qi)
			}
		}
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	stats, err := up.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	queries := statValue(t, stats, "queries_total")
	batches := statValue(t, stats, "batches_total")
	wantQueries := int64(len(fixtures) * shapes * users)
	if queries != wantQueries {
		t.Fatalf("queries_total = %d, want %d", queries, wantQueries)
	}
	if batches >= queries {
		t.Fatalf("no coalescing: %d batches for %d queries", batches, queries)
	}
	if got := statValue(t, stats, "coalesced_queries_total"); got == 0 {
		t.Fatal("coalesced_queries_total = 0")
	}
	if got := statValue(t, stats, "batch_occupancy_sum"); got != queries {
		t.Fatalf("batch occupancy sum %d != queries %d", got, queries)
	}
	// Same-client queries share DBTok planes, so coalesced batches must
	// stream strictly fewer chunks than one-pass-per-query would.
	numChunks := int64(len(fixtures[0].db.Chunks))
	if streams := statValue(t, stats, "chunk_streams_total"); streams >= queries*numChunks {
		t.Fatalf("chunk_streams_total = %d, not below the unbatched baseline %d",
			streams, queries*numChunks)
	}
	if saved := statValue(t, stats, "chunk_streams_saved_total"); saved == 0 {
		t.Fatal("chunk_streams_saved_total = 0")
	}
	if got := statValue(t, stats, "queries_failed_total"); got != 0 {
		t.Fatalf("queries_failed_total = %d", got)
	}
}

// TestCoalesceWindowTimeoutRaces hammers the timer path: a short window
// with sequential (self-clocked) clients means most batches fire by
// timeout racing fresh arrivals, repeatedly, while other goroutines keep
// the size trigger busy too. Every reply must stay bit-identical.
// Run with -race, this is the window-race half of the coalescing
// correctness satellite.
func TestCoalesceWindowTimeoutRaces(t *testing.T) {
	p := bfv.ParamsToy()
	fx := newCoalesceFixture(t, p, "races")
	srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, CoalesceConfig{
		Window:   200 * time.Microsecond,
		MaxBatch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := startServer(t, srv)
	up, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if err := up.UploadDB(fx.name, core.EngineSpec{}, fx.db); err != nil {
		t.Fatal(err)
	}

	const clients = 6
	const iters = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := Dial(addr, p)
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			for k := 0; k < iters; k++ {
				qi := (c + k) % len(fx.queries)
				got, err := conn.Search(fx.name, fx.queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("client %d iter %d: %v", c, k, err)
					return
				}
				if !equalInts(got, fx.expect[qi]) {
					errCh <- fmt.Errorf("client %d iter %d (%s): wrong candidates", c, k, fx.labels[qi])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	stats, err := up.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if got := statValue(t, stats, "queries_total"); got != clients*iters {
		t.Fatalf("queries_total = %d, want %d", got, clients*iters)
	}
}

// TestCoalesceAdmissionControl pins the backpressure contract: with a
// tiny per-database queue cap and a long window, a burst beyond the cap
// is rejected with the typed ErrOverloaded (MsgOverloaded on the wire)
// while the admitted queries still complete with correct results.
func TestCoalesceAdmissionControl(t *testing.T) {
	p := bfv.ParamsToy()
	fx := newCoalesceFixture(t, p, "burst")
	srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, CoalesceConfig{
		Window:   300 * time.Millisecond,
		MaxBatch: 64, // never size-triggers: the queue drains only at window expiry
		MaxQueue: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := startServer(t, srv)
	up, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if err := up.UploadDB(fx.name, core.EngineSpec{}, fx.db); err != nil {
		t.Fatal(err)
	}

	const burst = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted, rejected int
	errCh := make(chan error, burst)
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := Dial(addr, p)
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			<-start
			got, err := conn.Search(fx.name, fx.queries[0])
			switch {
			case err == nil:
				if !equalInts(got, fx.expect[0]) {
					errCh <- fmt.Errorf("admitted query returned wrong candidates")
					return
				}
				mu.Lock()
				accepted++
				mu.Unlock()
			case errors.Is(err, ErrOverloaded):
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				errCh <- fmt.Errorf("expected ErrOverloaded or success, got: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if accepted == 0 {
		t.Fatal("no queries admitted")
	}
	if rejected == 0 {
		t.Fatalf("queue cap 2 with a %d-query burst produced no rejections (accepted %d)", burst, accepted)
	}
	stats, err := up.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if got := statValue(t, stats, "queries_rejected_total"); got != int64(rejected) {
		t.Fatalf("queries_rejected_total = %d, clients saw %d", got, rejected)
	}
}

// gateEngine holds every single search at the gate until release is
// closed, announcing each arrival on entered, then runs it on the
// hosted engine it wraps.
type gateEngine struct {
	core.Engine
	entered chan struct{}
	release chan struct{}
}

func (g *gateEngine) SearchAndIndex(q *core.Query) (*core.IndexResult, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.Engine.SearchAndIndex(q)
}

// plantGate puts a gate in front of a hosted database's engine.
func plantGate(st *Store, name string, g *gateEngine) {
	st.mu.RLock()
	d := st.dbs[name]
	st.mu.RUnlock()
	d.mu.Lock()
	g.Engine, d.engine = d.engine, g
	d.mu.Unlock()
}

// searchOutcome is one client search's reply.
type searchOutcome struct {
	got []int
	err error
}

// recvOutcome receives one reply, failing the test if none arrives.
func recvOutcome(t *testing.T, ch <-chan searchOutcome, what string) searchOutcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return searchOutcome{}
	}
}

// TestCoalesceAdmissionWhileExecutorsBusy pins admission while every
// execution slot is taken: with GOMAXPROCS single-query batches held
// inside the engine, exactly MaxQueue further arrivals are admitted and
// park, every other arrival is rejected at once with ErrOverloaded, the
// rejection counter matches what clients saw, and the parked queries
// complete once the slots free up.
func TestCoalesceAdmissionWhileExecutorsBusy(t *testing.T) {
	p := bfv.ParamsToy()
	fx := newCoalesceFixture(t, p, "busy")
	const maxQueue, extra = 2, 6
	slots := runtime.GOMAXPROCS(0)
	srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, CoalesceConfig{
		Window:   time.Second,
		MaxBatch: 1, // every arrival is its own batch and wants its own slot
		MaxQueue: maxQueue,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Store().Upload(fx.name, core.EngineSpec{}, fx.db); err != nil {
		t.Fatal(err)
	}
	gate := &gateEngine{entered: make(chan struct{}, slots+extra), release: make(chan struct{})}
	plantGate(srv.Store(), fx.name, gate)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate.release) }) }
	defer release() // never leave a failed run's searches parked
	addr := startServer(t, srv)

	search := func(out chan<- searchOutcome) {
		conn, err := Dial(addr, p)
		if err != nil {
			out <- searchOutcome{err: err}
			return
		}
		defer conn.Close()
		got, err := conn.Search(fx.name, fx.queries[0])
		out <- searchOutcome{got, err}
	}
	held := make(chan searchOutcome, slots)
	for i := 0; i < slots; i++ {
		go search(held)
	}
	for i := 0; i < slots; i++ {
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d slots taken", i, slots)
		}
	}

	// Every slot is busy: rejections answer at once, the admitted park.
	late := make(chan searchOutcome, extra)
	for i := 0; i < extra; i++ {
		go search(late)
	}
	for i := 0; i < extra-maxQueue; i++ {
		if o := recvOutcome(t, late, "rejections while every slot is busy"); !errors.Is(o.err, ErrOverloaded) {
			t.Fatalf("arrival %d with every slot busy: %v, want ErrOverloaded", i, o.err)
		}
	}
	release()
	for i := 0; i < slots+maxQueue; i++ {
		ch, what := held, "a slot-holding search"
		if i >= slots {
			ch, what = late, "an admitted search"
		}
		o := recvOutcome(t, ch, what)
		if o.err != nil {
			t.Fatalf("%s failed: %v", what, o.err)
		}
		if !equalInts(o.got, fx.expect[0]) {
			t.Fatalf("%s returned wrong candidates", what)
		}
	}
	if got, _ := metrics.Lookup(srv.Metrics().Snapshot(), "queries_rejected_total"); got != extra-maxQueue {
		t.Fatalf("queries_rejected_total = %d, clients saw %d", got, extra-maxQueue)
	}
}

// waitGoroutines polls until the process is back at (or below) base
// goroutines, failing at the deadline.
func waitGoroutines(t *testing.T, when string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d", when, n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescerStartsNoGoroutines pins the leader-run window: enabling
// coalescing starts no goroutines (each window runs on the connection
// goroutine of the query that opened it), and after a coalesced burst
// and Shutdown the process is back at its baseline.
func TestCoalescerStartsNoGoroutines(t *testing.T) {
	p := bfv.ParamsToy()
	fx := newCoalesceFixture(t, p, "leader")
	base := runtime.NumGoroutine()
	const clients = 4
	srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, CoalesceConfig{
		Window:   time.Second,
		MaxBatch: clients,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "after NewServerWithServing", base)
	if err := srv.Store().Upload(fx.name, core.EngineSpec{}, fx.db); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // returns when the listener closes

	conns := make([]*Conn, clients)
	for i := range conns {
		if conns[i], err = Dial(l.Addr().String(), p); err != nil {
			t.Fatal(err)
		}
	}
	out := make(chan searchOutcome, clients)
	for i, conn := range conns {
		go func(conn *Conn, qi int) {
			got, err := conn.Search(fx.name, fx.queries[qi])
			if err == nil && !equalInts(got, fx.expect[qi]) {
				err = fmt.Errorf("query %s: wrong candidates", fx.labels[qi])
			}
			out <- searchOutcome{err: err}
		}(conn, i%len(fx.queries))
	}
	for i := 0; i < clients; i++ {
		if o := recvOutcome(t, out, "the burst"); o.err != nil {
			t.Fatal(o.err)
		}
	}
	if got, _ := metrics.Lookup(srv.Metrics().Snapshot(), "coalesced_queries_total"); got == 0 {
		t.Fatal("the burst did not coalesce")
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	for _, conn := range conns {
		conn.Close()
	}
	waitGoroutines(t, "after Shutdown", base)
}

// TestCoalesceBatchErrorIsolation: a query prepared for the wrong
// database geometry sharing a window with healthy queries must fail
// alone — the batch-level validation error degrades to per-member
// searches instead of poisoning the whole window.
func TestCoalesceBatchErrorIsolation(t *testing.T) {
	p := bfv.ParamsToy()
	fx := newCoalesceFixture(t, p, "good")
	// A query claiming the wrong database length survives the wire (the
	// decoder cross-checks only NumChunks against the DBTok plane) and
	// fails engine validation inside the batch.
	bad := *fx.queries[0]
	bad.DBBitLen += 8
	srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, CoalesceConfig{
		Window:   300 * time.Millisecond,
		MaxBatch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := startServer(t, srv)
	up, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if err := up.UploadDB(fx.name, core.EngineSpec{}, fx.db); err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]error, 3)
	candidates := make([][]int, 3)
	queries := []*core.Query{fx.queries[0], &bad, fx.queries[1]}
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := Dial(addr, p)
			if err != nil {
				results[i] = err
				return
			}
			defer conn.Close()
			<-start
			candidates[i], results[i] = conn.Search(fx.name, queries[i])
		}(i)
	}
	close(start)
	wg.Wait()
	if results[1] == nil {
		t.Error("mis-shaped query succeeded")
	}
	if results[0] != nil || !equalInts(candidates[0], fx.expect[0]) {
		t.Errorf("healthy member 0 poisoned: err=%v", results[0])
	}
	if results[2] != nil || !equalInts(candidates[2], fx.expect[1]) {
		t.Errorf("healthy member 2 poisoned: err=%v", results[2])
	}
}

// TestStatsRoundtrip covers the MsgStats wire encoding.
func TestStatsRoundtrip(t *testing.T) {
	in := []metrics.KV{{Name: "a_total", Value: 1}, {Name: "b_ns", Value: -7}, {Name: "c", Value: 1 << 60}}
	out, err := DecodeStats(EncodeStats(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
	if _, err := DecodeStats([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("forged count accepted")
	}
}
