package proto

import (
	"fmt"
	"net"
	"reflect"
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
	expect []int // client-decrypt ground truth (decryptTruth)
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
	if tn.expect = decryptTruth(t, p, "tenant-"+name, tn.db, tn.query, 32); len(tn.expect) == 0 {
		t.Fatalf("tenant %s: vacuous ground truth", name)
	}
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
	srv := newMemServer(t, p, core.EngineSpec{})
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
	for _, tn := range tenants {
		for i := 0; i < clientsPerTenant; i++ {
			wg.Add(1)
			go func(tn *tenant) {
				defer wg.Done()
				conn, err := Dial(addr, p)
				if err != nil {
					t.Error(err)
					return
				}
				defer conn.Close()
				for k := 0; k < searchesPerClient; k++ {
					got, err := conn.Search(tn.name, tn.q)
					if err != nil {
						t.Error(err)
						return
					}
					if !slices.Equal(got, tn.expect) {
						t.Error(errMismatch(tn.name, got, tn.expect))
						return
					}
				}
			}(tn)
		}
	}
	wg.Wait()

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

func errMismatch(name string, got, want []int) error {
	return fmt.Errorf("tenant %s: candidates %v, want %v", name, got, want)
}

// TestStoreLifecycle exercises upload/replace/list/drop and the error
// paths through a live connection, which must survive application
// errors.
func TestStoreLifecycle(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newTenant(t, p, "docs", core.EngineSpec{}, 192, 80)
	srv := newMemServer(t, p, core.EngineSpec{Kind: core.EnginePool, Workers: 2})
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
	if err := conn.UploadDB("docs", core.EngineSpec{Kind: core.EnginePool, Workers: MaxUploadWorkers + 1}, tn.db); err == nil {
		t.Fatal("worker count one over the limit accepted")
	}
	if err := conn.UploadDB("docs", core.EngineSpec{Kind: core.EnginePool, Workers: -1}, tn.db); err == nil {
		t.Fatal("negative wire-supplied worker count accepted")
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
	if err := conn.UploadDB("docs", core.EngineSpec{Kind: core.EnginePool, Workers: 3}, tn.db); err != nil {
		t.Fatal(err)
	}
	infos, _ = conn.ListDBs()
	if len(infos) != 1 || infos[0].Engine != "pool(3 workers)" {
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

// TestStoreUploadRequiresArena pins the one database form: a database
// assembled chunk by chunk, with no arena, is refused — as a new name
// and as a replacement — and the listing is left unchanged.
func TestStoreUploadRequiresArena(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newTenant(t, p, "arena", core.EngineSpec{}, 64, 40)
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Upload("kept", core.EngineSpec{}, tn.db); err != nil {
		t.Fatal(err)
	}
	before := st.List()
	loose := &core.EncryptedDB{BitLen: tn.db.BitLen, NumSegments: tn.db.NumSegments}
	for _, ct := range tn.db.Chunks {
		loose.Chunks = append(loose.Chunks, ct.Clone())
	}
	for _, name := range []string{"kept", "fresh"} {
		if err := st.Upload(name, core.EngineSpec{}, loose); err == nil {
			t.Fatalf("upload of %q without an arena accepted", name)
		}
	}
	if after := st.List(); !reflect.DeepEqual(after, before) {
		t.Fatalf("listing changed by refused uploads: %+v, was %+v", after, before)
	}
}

// TestStoreCapacity checks the namespace bound: at MaxStoredDBs, new
// names are refused while replacement and drop-then-upload still work.
func TestStoreCapacity(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newTenant(t, p, "cap", core.EngineSpec{}, 64, 40)
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
	spec := core.EngineSpec{Kind: core.EnginePool, Workers: 4}
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

// TestOldClientShardWordIgnored: the upload spec's third word once
// carried a chunk-range shard count and is now reserved. An upload
// built the old way — shard word 2, or an absurd 1<<30 — must be
// accepted over a real socket with the word ignored (it sizes nothing),
// and searches must return the serial engine's result.
func TestOldClientShardWordIgnored(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newTenant(t, p, "legacy", core.EngineSpec{}, 320, 1504)
	srv := newMemServer(t, p, core.EngineSpec{})
	addr := startServer(t, srv)
	conn, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, shards := range []int{2, 1 << 30} {
		for _, kind := range []string{core.EngineSerial, core.EnginePool} {
			name := fmt.Sprintf("legacy-%s-%d", kind, shards)
			var b buffer
			b.putString(name)
			b.putString(kind)
			b.putInt(0) // workers
			b.putInt(shards)
			b.data = append(b.data, EncodeDB(tn.db, p)...)
			reply, body, err := conn.roundTrip(MsgUploadDB, b.data)
			if err != nil {
				t.Fatal(err)
			}
			if err := expectAck(reply, body); err != nil {
				t.Fatalf("%s: old-client upload refused: %v", name, err)
			}
			got, err := conn.Search(name, tn.q)
			if err != nil {
				t.Fatalf("%s: search: %v", name, err)
			}
			if !slices.Equal(got, tn.expect) {
				t.Fatalf("%s: candidates %v, ground truth %v", name, got, tn.expect)
			}
		}
	}
	infos, err := conn.ListDBs()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range infos {
		if strings.HasPrefix(in.Name, "legacy-serial-") && in.Engine != core.EngineSerial {
			t.Errorf("%s: engine %q, want %q", in.Name, in.Engine, core.EngineSerial)
		}
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
	assertRefusedOverWire(t, "align", "alignment", func(q *core.Query) { q.AlignBits = 0 })
}

// TestHostileResiduesRejected: a query's residue list travels in its
// header and sizes the engine's comparand rows and record room, so a
// list no client prepares — here 4096 copies of residue 0 — must be
// refused by every engine kind, single and batched, with a MsgError
// naming the residues, and the same connection must then serve the
// intact query correctly.
func TestHostileResiduesRejected(t *testing.T) {
	assertRefusedOverWire(t, "residues", "residue", func(q *core.Query) { q.Residues = make([]int, 4096) })
}

// assertRefusedOverWire uploads one tenant per engine kind, sends its
// query as altered by hostile, alone and as a batch member, and wants a
// MsgError containing want for each; the same connection must then
// serve the intact query correctly.
func assertRefusedOverWire(t *testing.T, prefix, want string, hostile func(*core.Query)) {
	t.Helper()
	p := bfv.ParamsToy()
	specs := []core.EngineSpec{
		{Kind: core.EngineSerial},
		{Kind: core.EnginePool, Workers: 2},
		{Kind: core.EnginePool, Workers: 4},
		{Kind: core.EngineSSD},
	}
	srv := newMemServer(t, p, core.EngineSpec{})
	addr := startServer(t, srv)
	conn, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The broken server never replies; fail instead of hanging.
	conn.SetRetry(RetryPolicy{Max: 0, Timeout: 5 * time.Second})

	for _, spec := range specs {
		name := prefix + "-" + spec.String()
		tn := newTenant(t, p, name, spec, 320, 1504)
		if err := conn.UploadDB(name, spec, tn.db); err != nil {
			t.Fatalf("%s: upload: %v", name, err)
		}
		bad := *tn.q
		hostile(&bad)
		requests := []struct {
			what    string
			msgType byte
			payload []byte
		}{
			{"single", MsgQuery, EncodeNamedQuery(name, &bad, p)},
			{"batch", MsgBatchQuery, EncodeNamedBatchQuery(name, &core.BatchQuery{Queries: []*core.Query{tn.q, &bad}}, p)},
		}
		for _, req := range requests {
			reply, body, err := conn.roundTrip(req.msgType, req.payload)
			if err != nil {
				t.Fatalf("%s %s: no reply to the hostile query: %v", name, req.what, err)
			}
			if reply != MsgError || !strings.Contains(string(body), want) {
				t.Fatalf("%s %s: hostile query answered with type %d %.80q, want MsgError naming the %s", name, req.what, reply, body, want)
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

// TestQueryBufferReuse: a direct query reads its payload into a pooled
// buffer that the next request on any connection may reuse, and its
// decoded DBTok plane aliases that buffer, so no answer may depend on
// what a buffer held before. On one connection it runs query A, an upload, query B on a
// tenant whose query is larger (more chunks), then query A again, and
// holds every answer to a fresh connection's; the coalesced path runs
// the same sequence. Under -race this also proves nothing reads a
// buffer after it went back to the pool.
func TestQueryBufferReuse(t *testing.T) {
	p := bfv.ParamsToy()
	a := newTenant(t, p, "small", core.EngineSpec{}, 192, 200)
	b := newTenant(t, p, "large", core.EngineSpec{Kind: core.EnginePool, Workers: 2}, 640, 3000)
	if len(b.q.DBTok) <= len(a.q.DBTok) {
		t.Fatalf("fixture: tenant %s has %d chunks, %s %d; want the second larger", b.name, len(b.q.DBTok), a.name, len(a.q.DBTok))
	}
	for _, co := range []CoalesceConfig{{}, {Window: time.Millisecond, MaxBatch: 2}} {
		t.Run(fmt.Sprintf("window=%s", co.Window), func(t *testing.T) {
			srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, co)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			addr := startServer(t, srv)
			fresh := func(tn *tenant) []int {
				c, err := Dial(addr, p)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				got, err := c.Search(tn.name, tn.q)
				if err != nil {
					t.Fatalf("fresh connection, %s: %v", tn.name, err)
				}
				return got
			}
			c, err := Dial(addr, p)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.UploadDB(a.name, a.spec, a.db); err != nil {
				t.Fatal(err)
			}
			search := func(step string, tn *tenant) {
				got, err := c.Search(tn.name, tn.q)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if want := fresh(tn); !slices.Equal(got, want) || !slices.Equal(got, tn.expect) {
					t.Fatalf("%s: reused connection answered %v, fresh connection %v, ground truth %v", step, got, want, tn.expect)
				}
			}
			search("query A", a)
			if err := c.UploadDB(b.name, b.spec, b.db); err != nil {
				t.Fatal(err)
			}
			search("query B after an upload", b)
			search("query A again", a)
		})
	}
}
