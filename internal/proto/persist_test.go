package proto

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/segment"
)

// durableTenant is a tenant fixture whose ground truth comes from the
// client-decrypt path (the cryptographic reference the engine
// conformance tests pin to), not just from another engine.
type durableTenant struct {
	*tenant
	clientWant []int // candidates derived by decryptTruth
	batch      []*core.Query
}

func newDurableTenant(t *testing.T, p bfv.Params, name string, spec core.EngineSpec, dbBytes, plantAt int) *durableTenant {
	t.Helper()
	seed := "tenant-" + name
	cfg := core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString(seed))
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
	want := decryptTruth(t, p, seed, tn.db, tn.query, 32)
	if len(want) == 0 {
		t.Fatalf("tenant %s: vacuous fixture", name)
	}
	second, err := client.PrepareQuery([]byte{0x0F, 0xF0, 0x55, 0xAA}, 32, dbBytes*8)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := client.PrepareQuery(tn.query, 32, dbBytes*8)
	if err != nil {
		t.Fatal(err)
	}
	tn.expect = want
	return &durableTenant{tenant: tn, clientWant: want, batch: []*core.Query{tn.q, second, dup}}
}

// decryptTruth is the cryptographic ground truth, as in
// TestEngineHitsMatchClientDecrypt: the candidates of query over db on
// the client-decrypt path. The ModeClientDecrypt client of the seed
// label that encrypted db is its owner's twin (same keys, byte-identical
// database); its pattern ciphertexts are added homomorphically by
// Server.Search, and it decrypts the sums and compares windows against
// t-1.
func decryptTruth(t *testing.T, p bfv.Params, seed string, db *core.EncryptedDB, query []byte, queryBits int) []int {
	t.Helper()
	twin, err := core.NewClient(core.Config{Params: p, AlignBits: 8, Mode: core.ModeClientDecrypt}, rng.NewSourceFromString(seed))
	if err != nil {
		t.Fatal(err)
	}
	q, err := twin.PrepareQuery(query, queryBits, db.BitLen)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.NewServer(p, db).Search(q)
	if err != nil {
		t.Fatal(err)
	}
	return core.Candidates(twin.ExtractHits(q, sr), q.DBBitLen, q.YBits, q.AlignBits)
}

func assertCandidates(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: candidates %v, want %v", label, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: candidates %v, want %v", label, got, want)
		}
	}
}

// TestStoreRestartRecovery is the durability conformance test: upload
// databases with distinct engine specs, search them, reopen a fresh
// store over the same data directory, and require bit-identical search
// and batch-search results on every engine kind — with the
// client-decrypt candidates as the cryptographic ground truth.
func TestStoreRestartRecovery(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	tenants := []*durableTenant{
		newDurableTenant(t, p, "serial-db", core.EngineSpec{Kind: core.EngineSerial}, 192, 200),
		newDurableTenant(t, p, "pool-db", core.EngineSpec{Kind: core.EnginePool, Workers: 2}, 256, 968),
		newDurableTenant(t, p, "pool2-db", core.EngineSpec{Kind: core.EnginePool, Workers: 2}, 320, 1504),
		newDurableTenant(t, p, "ssd-db", core.EngineSpec{Kind: core.EngineSSD}, 192, 640),
	}

	st1, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	preBatch := make(map[string][][]int)
	for _, tn := range tenants {
		if err := st1.Upload(tn.name, tn.spec, tn.db); err != nil {
			t.Fatalf("upload %s: %v", tn.name, err)
		}
		ir, err := st1.Search(tn.name, tn.q)
		if err != nil {
			t.Fatalf("pre-restart search %s: %v", tn.name, err)
		}
		assertCandidates(t, "pre-restart "+tn.name, ir.Candidates, tn.clientWant)
		irs, err := st1.SearchBatch(tn.name, core.NewBatchQuery(tn.batch...))
		if err != nil {
			t.Fatalf("pre-restart batch %s: %v", tn.name, err)
		}
		for _, bir := range irs {
			preBatch[tn.name] = append(preBatch[tn.name], bir.Candidates)
		}
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store over the same directory must re-register
	// every tenant from its segment, metadata-only.
	st2, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	infos := st2.List()
	if len(infos) != len(tenants) {
		t.Fatalf("recovered %d databases, want %d: %+v", len(infos), len(tenants), infos)
	}
	for _, in := range infos {
		if in.State != StateCold {
			t.Errorf("%s: state %q before first search, want %q", in.Name, in.State, StateCold)
		}
	}
	for _, tn := range tenants {
		var in *DBInfo
		for i := range infos {
			if infos[i].Name == tn.name {
				in = &infos[i]
			}
		}
		if in == nil {
			t.Fatalf("%s missing from recovered listing", tn.name)
		}
		// List on a cold database must serve geometry from the
		// segment header's metadata, without loading the arena.
		if in.Chunks != len(tn.db.Chunks) || in.BitLen != tn.db.BitLen {
			t.Errorf("%s: cold listing %d chunks / %d bits, want %d / %d",
				tn.name, in.Chunks, in.BitLen, len(tn.db.Chunks), tn.db.BitLen)
		}
		if in.Engine != tn.spec.String() {
			t.Errorf("%s: cold listing engine %q, want persisted spec %q", tn.name, in.Engine, tn.spec.String())
		}
	}

	for _, tn := range tenants {
		ir, err := st2.Search(tn.name, tn.q)
		if err != nil {
			t.Fatalf("post-restart search %s: %v", tn.name, err)
		}
		assertCandidates(t, "post-restart "+tn.name, ir.Candidates, tn.clientWant)
		irs, err := st2.SearchBatch(tn.name, core.NewBatchQuery(tn.batch...))
		if err != nil {
			t.Fatalf("post-restart batch %s: %v", tn.name, err)
		}
		if len(irs) != len(preBatch[tn.name]) {
			t.Fatalf("post-restart batch %s: %d results, want %d", tn.name, len(irs), len(preBatch[tn.name]))
		}
		for mi, bir := range irs {
			assertCandidates(t, "post-restart batch "+tn.name, bir.Candidates, preBatch[tn.name][mi])
		}
	}
	// After searching, tenants are resident and the listing says so.
	for _, in := range st2.List() {
		if in.State != StateResident {
			t.Errorf("%s: state %q after search, want %q", in.Name, in.State, StateResident)
		}
	}
}

// TestStoreEviction pins the cold-DB eviction policy: under a budget
// that fits only one tenant arena, uploads and searches evict the
// least-recently-used database, evicted tenants transparently reload
// from their segment on the next search with bit-identical results,
// every reload shows in the reload histogram and verified-bytes counter,
// and Drop removes the segment file.
func TestStoreEviction(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	a := newDurableTenant(t, p, "alpha", core.EngineSpec{}, 192, 200)
	b := newDurableTenant(t, p, "beta", core.EngineSpec{Kind: core.EnginePool, Workers: 2}, 192, 968)
	arena := 2 * int64(len(a.db.Chunks)) * int64(p.N) * 8

	reg := metrics.NewRegistry()
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir, MemBudget: arena + arena/2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Upload(a.name, a.spec, a.db); err != nil {
		t.Fatal(err)
	}
	if err := st.Upload(b.name, b.spec, b.db); err != nil {
		t.Fatal(err)
	}
	if got := st.ResidentBytes(); got > arena+arena/2 {
		t.Fatalf("resident %d bytes exceeds budget after uploads", got)
	}
	states := map[string]string{}
	for _, in := range st.List() {
		states[in.Name] = in.State
	}
	if states["alpha"] != StateCold || states["beta"] != StateResident {
		t.Fatalf("after uploads: alpha=%s beta=%s, want alpha cold (LRU-evicted), beta resident", states["alpha"], states["beta"])
	}

	// Searching the evicted tenant transparently reloads it — and
	// pushes beta out in turn. Results stay pinned to the
	// client-decrypt ground truth through evict/reload cycles.
	for i := 0; i < 3; i++ {
		ir, err := st.Search(a.name, a.q)
		if err != nil {
			t.Fatalf("round %d alpha: %v", i, err)
		}
		assertCandidates(t, "evicted-then-reloaded alpha", ir.Candidates, a.clientWant)
		ir, err = st.Search(b.name, b.q)
		if err != nil {
			t.Fatalf("round %d beta: %v", i, err)
		}
		assertCandidates(t, "evicted-then-reloaded beta", ir.Candidates, b.clientWant)
		if got := st.ResidentBytes(); got > arena+arena/2 {
			t.Fatalf("round %d: resident %d bytes exceeds budget", i, got)
		}
	}
	// Each round reloaded both tenants; both arenas are the same size.
	const reloads = 6
	if got := reg.Counter("store_reloads_total").Load(); got != reloads {
		t.Fatalf("store_reloads_total = %d, want %d", got, reloads)
	}
	if got := reg.Histogram("store_reload_ns").Count(); got != reloads {
		t.Fatalf("store_reload_ns count = %d, want %d", got, reloads)
	}
	if got := reg.Counter("store_reload_bytes_total").Load(); got != reloads*arena {
		t.Fatalf("store_reload_bytes_total = %d, want %d", got, reloads*arena)
	}

	// Batch search also reloads cold tenants.
	irs, err := st.SearchBatch(a.name, core.NewBatchQuery(a.batch...))
	if err != nil {
		t.Fatal(err)
	}
	assertCandidates(t, "batch after eviction", irs[0].Candidates, a.clientWant)

	// Drop deletes the segment: the file is gone and a fresh store
	// over the directory no longer knows the tenant.
	segPath := filepath.Join(dir, segment.FileName(a.name))
	if _, err := os.Stat(segPath); err != nil {
		t.Fatalf("segment missing before drop: %v", err)
	}
	if err := st.Drop(a.name); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatalf("segment survived drop: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if infos := st2.List(); len(infos) != 1 || infos[0].Name != "beta" {
		t.Fatalf("after drop+restart: %+v", infos)
	}
}

// TestStoreConcurrentEvictReload hammers the evict/reload seam: under
// a budget that keeps only one of two tenants resident, concurrent
// searches force constant eviction (munmap) and zero-copy reload, and
// every result must stay correct — the write lock must never unmap an
// arena a search is streaming.
func TestStoreConcurrentEvictReload(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	a := newDurableTenant(t, p, "thrash-a", core.EngineSpec{}, 192, 200)
	b := newDurableTenant(t, p, "thrash-b", core.EngineSpec{Kind: core.EnginePool, Workers: 2}, 192, 968)
	arena := 2 * int64(len(a.db.Chunks)) * int64(p.N) * 8
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir, MemBudget: arena + arena/2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Upload(a.name, a.spec, a.db); err != nil {
		t.Fatal(err)
	}
	if err := st.Upload(b.name, b.spec, b.db); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const rounds = 10
	errCh := make(chan error, goroutines)
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			tn := a
			if g%2 == 1 {
				tn = b
			}
			for i := 0; i < rounds; i++ {
				ir, err := st.Search(tn.name, tn.q)
				if err != nil {
					errCh <- err
					return
				}
				if len(ir.Candidates) != len(tn.clientWant) {
					errCh <- errMismatch(tn.name, ir.Candidates, tn.clientWant)
					return
				}
				for j := range ir.Candidates {
					if ir.Candidates[j] != tn.clientWant[j] {
						errCh <- errMismatch(tn.name, ir.Candidates, tn.clientWant)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestStoreDurableCapacityRefusal pins the refused-upload invariants on
// a durable store: a refusal at MaxStoredDBs must not write a segment
// a restart could resurrect, and must not skew the resident-bytes
// accounting the eviction policy steers by.
func TestStoreDurableCapacityRefusal(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	tn := newDurableTenant(t, p, "cap", core.EngineSpec{}, 64, 40)
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < MaxStoredDBs; i++ {
		if err := st.Upload(fmt.Sprintf("db-%d", i), core.EngineSpec{}, tn.db); err != nil {
			t.Fatal(err)
		}
	}
	before := st.ResidentBytes()
	if err := st.Upload("one-too-many", core.EngineSpec{}, tn.db); err == nil {
		t.Fatal("durable store accepted more than MaxStoredDBs databases")
	}
	if got := st.ResidentBytes(); got != before {
		t.Fatalf("refused upload changed resident accounting: %d -> %d", before, got)
	}
	if _, err := os.Stat(filepath.Join(dir, segment.FileName("one-too-many"))); !os.IsNotExist(err) {
		t.Fatalf("refused upload left a segment behind: %v", err)
	}
	if err := st.Upload("db-0", core.EngineSpec{}, tn.db); err != nil {
		t.Fatalf("replacement at capacity refused: %v", err)
	}
	st.Close()
	st2, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := len(st2.List()); n != MaxStoredDBs {
		t.Fatalf("restart recovered %d databases, want %d", n, MaxStoredDBs)
	}
}

// TestStoreForeignGeometryQuarantine: a segment written under different
// BFV parameters must not brick the store — it is skipped (and
// reported), while healthy tenants recover and serve.
func TestStoreForeignGeometryQuarantine(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	tn := newDurableTenant(t, p, "healthy", core.EngineSpec{}, 192, 200)
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Upload(tn.name, tn.spec, tn.db); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Drop a well-formed segment from a different parameter point
	// (double the ring degree) into the directory.
	foreignN := 2 * p.N
	fdb := core.NewCompactDB(foreignN, 1)
	fdb.BitLen = 16
	fdb.NumSegments = 1
	meta := segment.Meta{Name: "foreign", RingDegree: foreignN, Modulus: p.Q, Chunks: 1, BitLen: 16, NumSegments: 1}
	fd, err := segment.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.Save(meta, fdb); err != nil {
		t.Fatal(err)
	}

	st2, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatalf("one foreign segment bricked the store: %v", err)
	}
	defer st2.Close()
	if infos := st2.List(); len(infos) != 1 || infos[0].Name != "healthy" {
		t.Fatalf("listing with foreign segment present: %+v", infos)
	}
	skipped := st2.SkippedSegments()
	if len(skipped) != 1 || skipped[0].Name != "foreign" {
		t.Fatalf("skipped segments: %+v", skipped)
	}
	ir, err := st2.Search(tn.name, tn.q)
	if err != nil {
		t.Fatal(err)
	}
	assertCandidates(t, "healthy tenant beside foreign segment", ir.Candidates, tn.clientWant)
	// The foreign file is quarantined, not deleted.
	if _, err := os.Stat(filepath.Join(dir, segment.FileName("foreign"))); err != nil {
		t.Fatalf("foreign segment was deleted: %v", err)
	}
}

// TestStoreListCold guards the List regression the eviction work makes
// possible: listing must never dereference an absent arena, and a
// dropped-then-listed store stays consistent.
func TestStoreListCold(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	tn := newDurableTenant(t, p, "coldlist", core.EngineSpec{}, 192, 200)
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Upload(tn.name, tn.spec, tn.db); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Reopened: metadata-only entry. List must work without loading.
	st2, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	infos := st2.List()
	if len(infos) != 1 || infos[0].Chunks != len(tn.db.Chunks) || infos[0].BitLen != tn.db.BitLen || infos[0].State != StateCold {
		t.Fatalf("cold listing: %+v", infos)
	}
	if infos[0].Searches != 0 {
		t.Fatalf("search count %d survived restart; want in-memory stat reset", infos[0].Searches)
	}
}

// TestStoreSegmentV1Compat: a data directory holding a version 1
// (CRC-64) segment, written by the last release that wrote that
// version, reloads the tenant, answers bit-identically to the
// client-decrypt ground truth, and scrubs clean. The scrub hashes with
// the current checksum, so it would quarantine a healthy version 1
// tenant if the loader handed it the file's CRC-64 sums.
func TestStoreSegmentV1Compat(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newDurableTenant(t, p, "v1-tenant", core.EngineSpec{Kind: core.EnginePool, Workers: 2}, 192, 200)
	raw, err := os.ReadFile(filepath.Join("..", "segment", "testdata", "v1-toy.seg"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segment.FileName(tn.name)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if infos := st.List(); len(infos) != 1 || infos[0].Name != tn.name || infos[0].State != StateCold {
		t.Fatalf("recovered listing: %+v", infos)
	}
	ir, err := st.Search(tn.name, tn.q)
	if err != nil {
		t.Fatal(err)
	}
	assertCandidates(t, "version 1 segment", ir.Candidates, tn.clientWant)
	if checked, corrupted := st.ScrubOnce(); checked != 1 || corrupted != 0 {
		t.Fatalf("scrub over a reloaded version 1 tenant: checked %d, corrupted %d; want 1, 0", checked, corrupted)
	}
}

// TestUploadFingerprintIsFooter: a durable upload records as its scrub
// fingerprint exactly the plane sums its segment footer seals, so one
// hash serves both, and the scrub stays clean across evict and reload.
// A memory-only store fingerprints the arena itself, and its scrub still
// catches a flipped word. The tenant's 1 MiB planes hash in parallel.
func TestUploadFingerprintIsFooter(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newDurableTenant(t, p, "sealed", core.EngineSpec{}, 256<<10, 200)
	fingerprint := func(st *Store) [2]uint64 {
		t.Helper()
		d, err := st.lookup(tn.name)
		if err != nil {
			t.Fatal(err)
		}
		d.mu.RLock()
		defer d.mu.RUnlock()
		return d.planeCRC
	}
	scrub := func(st *Store, label string, wantCorrupt int) {
		t.Helper()
		if checked, corrupted := st.ScrubOnce(); checked != 1 || corrupted != wantCorrupt {
			t.Fatalf("%s: scrub checked=%d corrupted=%d, want 1/%d", label, checked, corrupted, wantCorrupt)
		}
	}

	t.Run("durable", func(t *testing.T) {
		st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Upload(tn.name, tn.spec, tn.db); err != nil {
			t.Fatal(err)
		}
		seg, err := st.Dir().Load(tn.name, p.N, p.Q)
		if err != nil {
			t.Fatal(err)
		}
		footer := seg.PlaneCRCs()
		seg.Close()
		if got := fingerprint(st); got != footer {
			t.Fatalf("upload fingerprint %016x, segment footer %016x", got, footer)
		}
		if arena := segment.ArenaPlaneCRCs(tn.db.Arena()); footer != arena {
			t.Fatalf("segment footer %016x, arena sums %016x", footer, arena)
		}
		scrub(st, "after upload", 0)

		d, err := st.lookup(tn.name)
		if err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		st.unloadLocked(d)
		d.mu.Unlock()
		ir, err := st.Search(tn.name, tn.q)
		if err != nil {
			t.Fatal(err)
		}
		assertCandidates(t, "reloaded", ir.Candidates, tn.clientWant)
		ir.Release()
		if got := fingerprint(st); got != footer {
			t.Fatalf("reload fingerprint %016x, segment footer %016x", got, footer)
		}
		scrub(st, "after evict and reload", 0)
	})

	t.Run("memory", func(t *testing.T) {
		st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Upload(tn.name, tn.spec, tn.db); err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprint(st), segment.ArenaPlaneCRCs(tn.db.Arena()); got != want {
			t.Fatalf("upload fingerprint %016x, arena sums %016x", got, want)
		}
		scrub(st, "clean", 0)
		arena := tn.db.Arena()
		arena[len(arena)-1] ^= 1 << 40 // in-memory bit rot in the C1 plane
		scrub(st, "flipped word", 1)
	})
}
