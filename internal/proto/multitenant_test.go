package proto

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/rng"
)

// tenant is one client with its own keys, database and query.
type tenant struct {
	name   string
	spec   core.EngineSpec
	data   []byte
	query  []byte
	db     *core.EncryptedDB
	q      *core.Query
	expect []int // local serial-engine result
}

func newTenant(t *testing.T, p bfv.Params, name string, spec core.EngineSpec, dbBytes, plantAt int) *tenant {
	t.Helper()
	cfg := core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("tenant-"+name))
	if err != nil {
		t.Fatal(err)
	}
	tn := &tenant{name: name, spec: spec}
	tn.data = make([]byte, dbBytes)
	rng.NewSourceFromString("data-" + name).Bytes(tn.data)
	tn.query = []byte{0xFE, 0xED, 0xFA, 0xCE}
	for j := 0; j < 32; j++ {
		mathutil.SetBit(tn.data, plantAt+j, mathutil.GetBit(tn.query, j))
	}
	if tn.db, err = client.EncryptDatabase(tn.data, dbBytes*8); err != nil {
		t.Fatal(err)
	}
	if tn.q, err = client.PrepareQuery(tn.query, 32, dbBytes*8); err != nil {
		t.Fatal(err)
	}
	ir, err := core.NewSerialEngine(p, tn.db).SearchAndIndex(tn.q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ir.Candidates) == 0 {
		t.Fatalf("tenant %s: vacuous fixture", name)
	}
	tn.expect = ir.Candidates
	return tn
}

func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l) //nolint:errcheck // returns when the listener closes
	return l.Addr().String()
}

// TestMultiTenantConcurrentSearches is the headline store test: two
// named databases with different engines, hammered by concurrent
// clients — including concurrent searches on the same database — must
// each return exactly their tenant's local result.
func TestMultiTenantConcurrentSearches(t *testing.T) {
	p := bfv.ParamsToy()
	tenants := []*tenant{
		newTenant(t, p, "genomes", core.EngineSpec{Kind: core.EnginePool, Workers: 2}, 192, 200),
		newTenant(t, p, "mail", core.EngineSpec{}, 256, 968), // server default engine
	}
	srv := NewServer(p)
	addr := startServer(t, srv)

	up, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	for _, tn := range tenants {
		if err := up.UploadDB(tn.name, tn.spec, tn.db); err != nil {
			t.Fatalf("upload %s: %v", tn.name, err)
		}
	}

	const clientsPerTenant = 4
	const searchesPerClient = 3
	var wg sync.WaitGroup
	errCh := make(chan error, len(tenants)*clientsPerTenant)
	for _, tn := range tenants {
		for i := 0; i < clientsPerTenant; i++ {
			wg.Add(1)
			go func(tn *tenant) {
				defer wg.Done()
				conn, err := Dial(addr, p)
				if err != nil {
					errCh <- err
					return
				}
				defer conn.Close()
				for k := 0; k < searchesPerClient; k++ {
					got, err := conn.Search(tn.name, tn.q)
					if err != nil {
						errCh <- err
						return
					}
					if len(got) != len(tn.expect) {
						errCh <- errMismatch(tn.name, got, tn.expect)
						return
					}
					for j := range got {
						if got[j] != tn.expect[j] {
							errCh <- errMismatch(tn.name, got, tn.expect)
							return
						}
					}
				}
			}(tn)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	infos, err := up.ListDBs()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "genomes" || infos[1].Name != "mail" {
		t.Fatalf("listing %+v", infos)
	}
	if !strings.Contains(infos[0].Engine, "pool") {
		t.Errorf("genomes engine = %q, want a pool", infos[0].Engine)
	}
	if infos[1].Engine != core.EngineSerial {
		t.Errorf("mail engine = %q, want server default (serial)", infos[1].Engine)
	}
	wantSearches := clientsPerTenant * searchesPerClient
	for _, in := range infos {
		if in.Searches != wantSearches {
			t.Errorf("%s: %d searches recorded, want %d", in.Name, in.Searches, wantSearches)
		}
	}
}

type mismatchError struct {
	name      string
	got, want []int
}

func errMismatch(name string, got, want []int) error {
	return &mismatchError{name: name, got: got, want: want}
}

func (e *mismatchError) Error() string {
	return "tenant " + e.name + ": remote result differs from local"
}

// TestStoreLifecycle exercises upload/replace/list/drop and the error
// paths through a live connection, which must survive application
// errors.
func TestStoreLifecycle(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newTenant(t, p, "docs", core.EngineSpec{}, 192, 80)
	srv := NewServerWithSpec(p, core.EngineSpec{Kind: core.EnginePool, Workers: 2})
	addr := startServer(t, srv)
	conn, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Errors must not kill the connection.
	if _, err := conn.Search("docs", tn.q); err == nil {
		t.Fatal("search before upload succeeded")
	}
	if err := conn.UploadDB("", core.EngineSpec{}, tn.db); err == nil {
		t.Fatal("empty database name accepted")
	}
	if err := conn.UploadDB("docs", core.EngineSpec{Kind: "warp"}, tn.db); err == nil {
		t.Fatal("unknown engine kind accepted")
	}
	if err := conn.UploadDB("docs", core.EngineSpec{Kind: core.EnginePool, Workers: 1 << 30}, tn.db); err == nil {
		t.Fatal("absurd wire-supplied worker count accepted")
	}
	if err := conn.UploadDB("docs", core.EngineSpec{Kind: core.EngineSerial, Shards: 1 << 30}, tn.db); err == nil {
		t.Fatal("absurd wire-supplied shard count accepted")
	}
	// Individually-legal workers and shards whose product is absurd.
	if err := conn.UploadDB("docs", core.EngineSpec{Kind: core.EnginePool, Workers: 32, Shards: 64}, tn.db); err == nil {
		t.Fatal("workers x shards product over the limit accepted")
	}

	if err := conn.UploadDB("docs", core.EngineSpec{}, tn.db); err != nil {
		t.Fatal(err)
	}
	infos, err := conn.ListDBs()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !strings.Contains(infos[0].Engine, "pool(2 workers)") {
		t.Fatalf("default engine spec not applied: %+v", infos)
	}
	if got, err := conn.Search("docs", tn.q); err != nil || len(got) == 0 {
		t.Fatalf("search: %v (%v)", got, err)
	}

	// Replacing a database swaps its engine atomically.
	if err := conn.UploadDB("docs", core.EngineSpec{Kind: core.EngineSerial, Shards: 2}, tn.db); err != nil {
		t.Fatal(err)
	}
	infos, _ = conn.ListDBs()
	if len(infos) != 1 || !strings.Contains(infos[0].Engine, "sharded") {
		t.Fatalf("replacement engine not applied: %+v", infos)
	}

	if err := conn.DropDB("docs"); err != nil {
		t.Fatal(err)
	}
	if err := conn.DropDB("docs"); err == nil {
		t.Fatal("double drop succeeded")
	}
	if _, err := conn.Search("docs", tn.q); err == nil {
		t.Fatal("search after drop succeeded")
	}
	if infos, err = conn.ListDBs(); err != nil || len(infos) != 0 {
		t.Fatalf("listing after drop: %+v (%v)", infos, err)
	}
}

// TestStoreCapacity checks the namespace bound: at MaxStoredDBs, new
// names are refused while replacement and drop-then-upload still work.
func TestStoreCapacity(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newTenant(t, p, "cap", core.EngineSpec{}, 64, 40)
	st := NewStore(p, core.EngineSpec{})
	for i := 0; i < MaxStoredDBs; i++ {
		if err := st.Upload(fmt.Sprintf("db-%d", i), core.EngineSpec{}, tn.db); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Upload("one-too-many", core.EngineSpec{}, tn.db); err == nil {
		t.Fatal("store accepted more than MaxStoredDBs databases")
	}
	if err := st.Upload("db-0", core.EngineSpec{}, tn.db); err != nil {
		t.Fatalf("replacement at capacity refused: %v", err)
	}
	if err := st.Drop("db-1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Upload("one-too-many", core.EngineSpec{}, tn.db); err != nil {
		t.Fatalf("upload after drop refused: %v", err)
	}
}

// TestUploadEnvelopeRoundtrip covers the named-upload and named-query
// wire envelopes.
func TestUploadEnvelopeRoundtrip(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newTenant(t, p, "env", core.EngineSpec{}, 64, 40)
	spec := core.EngineSpec{Kind: core.EnginePool, Workers: 4, Shards: 2}
	name, gotSpec, db, err := DecodeUploadDB(EncodeUploadDB("alpha", spec, tn.db, p), p)
	if err != nil {
		t.Fatal(err)
	}
	if name != "alpha" || gotSpec != spec || len(db.Chunks) != len(tn.db.Chunks) {
		t.Fatalf("upload envelope lost data: %q %+v", name, gotSpec)
	}
	qname, q, err := DecodeNamedQuery(EncodeNamedQuery("beta", tn.q, p), p)
	if err != nil {
		t.Fatal(err)
	}
	if qname != "beta" || q.YBits != tn.q.YBits || len(q.DBTok) != len(tn.q.DBTok) || len(q.RHS) != len(tn.q.RHS) {
		t.Fatal("query envelope lost data")
	}
	infos := []DBInfo{{Name: "a", Engine: "serial", Chunks: 3, BitLen: 3072, Searches: 7}}
	back, err := DecodeDBList(EncodeDBList(infos))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != infos[0] {
		t.Fatalf("listing roundtrip: %+v", back)
	}
}

// TestZeroAlignBitsRejected: AlignBits travels in the query header and
// candidate generation steps by it, so a zero must be refused before
// any engine runs — the per-offset loop it once fed never advanced and
// spun forever under the tenant's read lock. Every engine kind, single
// and batched, must answer a well-matched query re-encoded with
// AlignBits = 0 with a typed MsgError, and the same connection must
// then serve the intact query correctly.
func TestZeroAlignBitsRejected(t *testing.T) {
	p := bfv.ParamsToy()
	specs := []core.EngineSpec{
		{Kind: core.EngineSerial},
		{Kind: core.EnginePool, Workers: 2},
		{Kind: core.EngineSerial, Shards: 2},
		{Kind: core.EngineSSD},
	}
	srv := NewServer(p)
	addr := startServer(t, srv)
	conn, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The broken server never replies; fail instead of hanging.
	conn.SetRetry(RetryPolicy{Max: 0, Timeout: 5 * time.Second})

	for _, spec := range specs {
		name := "align-" + spec.String()
		tn := newTenant(t, p, name, spec, 320, 1504)
		if err := conn.UploadDB(name, spec, tn.db); err != nil {
			t.Fatalf("%s: upload: %v", name, err)
		}
		hostile := *tn.q
		hostile.AlignBits = 0
		requests := []struct {
			what    string
			msgType byte
			payload []byte
		}{
			{"single", MsgQuery, EncodeNamedQuery(name, &hostile, p)},
			{"batch", MsgBatchQuery, EncodeNamedBatchQuery(name, &core.BatchQuery{Queries: []*core.Query{tn.q, &hostile}}, p)},
		}
		for _, req := range requests {
			reply, body, err := conn.roundTrip(req.msgType, req.payload)
			if err != nil {
				t.Fatalf("%s %s: no reply to AlignBits=0: %v", name, req.what, err)
			}
			if reply != MsgError || !strings.Contains(string(body), "alignment") {
				t.Fatalf("%s %s: AlignBits=0 answered with type %d %q, want MsgError naming the alignment", name, req.what, reply, body)
			}
			got, err := conn.Search(name, tn.q)
			if err != nil {
				t.Fatalf("%s %s: search after rejection: %v", name, req.what, err)
			}
			if !slices.Equal(got, tn.expect) {
				t.Fatal(errMismatch(name, got, tn.expect))
			}
		}
	}
}
