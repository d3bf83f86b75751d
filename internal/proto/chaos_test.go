package proto

import (
	"errors"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/fault"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/segment"
)

// chaosFixture is one client with one query and two versions of a
// database — the pattern planted at different offsets, so the matrix
// test can tell which version a recovered store serves. Ground truth
// for both versions comes from the client-decrypt path.
type chaosFixture struct {
	q            *core.Query
	dbA, dbB     *core.EncryptedDB
	wantA, wantB []int
}

func newChaosFixture(t *testing.T, p bfv.Params) *chaosFixture {
	t.Helper()
	const dbBytes = 192
	cfg := core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("chaos-client"))
	if err != nil {
		t.Fatal(err)
	}
	pat := []byte{0xCA, 0xFE, 0xBA, 0xBE}
	q, err := client.PrepareQuery(pat, 32, dbBytes*8)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed string, plantAt int) (*core.EncryptedDB, []int) {
		data := make([]byte, dbBytes)
		rng.NewSourceFromString(seed).Bytes(data)
		for j := 0; j < 32; j++ {
			mathutil.SetBit(data, plantAt+j, mathutil.GetBit(pat, j))
		}
		db, err := client.EncryptDatabase(data, dbBytes*8)
		if err != nil {
			t.Fatal(err)
		}
		want := decryptTruth(t, p, "chaos-client", db, pat, 32)
		if len(want) == 0 {
			t.Fatalf("chaos fixture %s: vacuous ground truth", seed)
		}
		return db, want
	}
	fx := &chaosFixture{q: q}
	fx.dbA, fx.wantA = mk("chaos-v1", 200)
	fx.dbB, fx.wantB = mk("chaos-v2", 968)
	if len(fx.wantA) == len(fx.wantB) && fx.wantA[0] == fx.wantB[0] {
		t.Fatal("chaos fixture: versions indistinguishable")
	}
	return fx
}

// segDurableFrom marks the crash points at or after which the segment
// write itself is already durable (renamed into place): recovery must
// adopt the new version, even though the writer never acknowledged.
var segDurableFrom = map[string]bool{
	segment.CrashWriteDirsync: true,
}

// TestCrashPointMatrix simulates the process dying at every named crash
// point of the segment write path — once during a fresh upload, once
// during a replacement — reruns recovery on the surviving files, and
// requires the recovered store to be bit-identical to the client-
// decrypt ground truth: the pre-crash version, the post-crash version,
// or (fresh uploads only) cleanly absent. Never a torn in-between.
func TestCrashPointMatrix(t *testing.T) {
	p := bfv.ParamsToy()
	fx := newChaosFixture(t, p)
	spec := core.EngineSpec{}

	crashUpload := func(t *testing.T, dir, point string, pre *core.EncryptedDB, crashed *core.EncryptedDB) {
		t.Helper()
		inj := fault.New(fault.Config{Seed: "matrix-" + point})
		st, err := NewStoreWithOptions(p, spec, StoreOptions{DataDir: dir, FS: inj.FS(segment.OSFS{})})
		if err != nil {
			t.Fatal(err)
		}
		if pre != nil {
			if err := st.Upload("crashdb", spec, pre); err != nil {
				t.Fatalf("pre-crash upload: %v", err)
			}
		}
		inj.ArmCrash(point)
		if err := st.Upload("crashdb", spec, crashed); !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("upload at %s: %v, want ErrCrashed", point, err)
		}
		if _, err := inj.FS(segment.OSFS{}).ReadDir(dir); !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("filesystem still alive after the crash: ReadDir = %v", err)
		}
	}
	recover := func(t *testing.T, dir string) *Store {
		t.Helper()
		st, err := NewStoreWithOptions(p, spec, StoreOptions{DataDir: dir})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	conform := func(t *testing.T, st *Store, want []int) {
		t.Helper()
		ir, err := st.Search("crashdb", fx.q)
		if err != nil {
			t.Fatalf("recovered search: %v", err)
		}
		assertCandidates(t, "recovered search", ir.Candidates, want)
		ir.Release()
		irs, err := st.SearchBatch("crashdb", core.NewBatchQuery(fx.q, fx.q))
		if err != nil {
			t.Fatalf("recovered batch: %v", err)
		}
		for _, ir := range irs {
			assertCandidates(t, "recovered batch", ir.Candidates, want)
			ir.Release()
		}
	}

	for _, point := range segment.CrashPoints() {
		t.Run("fresh/"+point, func(t *testing.T) {
			dir := t.TempDir()
			crashUpload(t, dir, point, nil, fx.dbA)
			st := recover(t, dir)
			if !segDurableFrom[point] {
				if _, err := st.Search("crashdb", fx.q); err == nil {
					t.Fatal("crash before durability resurrected a database")
				}
				return
			}
			conform(t, st, fx.wantA)
		})
		t.Run("replace/"+point, func(t *testing.T) {
			dir := t.TempDir()
			crashUpload(t, dir, point, fx.dbA, fx.dbB)
			want := fx.wantA // crash before the rename: old version intact
			if segDurableFrom[point] {
				want = fx.wantB // renamed: the replacement is what survived
			}
			conform(t, recover(t, dir), want)
		})
	}
}

// TestScrubQuarantinesCorruptResident flips a bit in a resident arena
// and requires the background-scrub path to quarantine the database:
// typed error on search, segment file set aside, counters visible —
// and a re-upload heals the tenant.
func TestScrubQuarantinesCorruptResident(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tn := newDurableTenant(t, p, "scrubbed", core.EngineSpec{}, 192, 200)
	if err := st.Upload(tn.name, tn.spec, tn.db); err != nil {
		t.Fatal(err)
	}
	if checked, corrupted := st.ScrubOnce(); checked != 1 || corrupted != 0 {
		t.Fatalf("clean scrub: checked=%d corrupted=%d, want 1/0", checked, corrupted)
	}

	tn.db.Arena()[3] ^= 1 // in-memory bit rot
	if checked, corrupted := st.ScrubOnce(); checked != 1 || corrupted != 1 {
		t.Fatalf("dirty scrub: checked=%d corrupted=%d, want 1/1", checked, corrupted)
	}
	_, err = st.Search(tn.name, tn.q)
	if !errors.Is(err, ErrCorruptDB) || !errors.Is(err, ErrServerFault) {
		t.Fatalf("search on quarantined db: %v, want ErrCorruptDB (an ErrServerFault)", err)
	}
	segPath := filepath.Join(dir, segment.FileName(tn.name))
	if _, err := os.Stat(segPath); !os.IsNotExist(err) {
		t.Fatalf("corrupt segment still canonical: %v", err)
	}
	if _, err := os.Stat(segPath + segment.QuarantineSuffix); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if infos := st.List(); len(infos) != 1 || infos[0].State != StateQuarantined {
		t.Fatalf("listing: %+v, want one quarantined entry", infos)
	}
	for name, want := range map[string]int64{"store_scrub_corruptions_total": 1, "store_quarantines_total": 1} {
		if got, _ := metrics.Lookup(reg.Snapshot(), name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}

	tn.db.Arena()[3] ^= 1 // the operator restores a good copy
	if err := st.Upload(tn.name, tn.spec, tn.db); err != nil {
		t.Fatalf("healing re-upload: %v", err)
	}
	ir, err := st.Search(tn.name, tn.q)
	if err != nil {
		t.Fatalf("healed search: %v", err)
	}
	assertCandidates(t, "healed", ir.Candidates, tn.clientWant)
	ir.Release()
}

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
	tn := newDurableTenant(t, p, "ticked", core.EngineSpec{}, 192, 200)
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

// TestReloadCorruptSegmentQuarantined corrupts a segment on disk while
// the tenant is cold. The reload must reject (checksum), quarantine the
// file, and answer the typed error immediately on later searches — the
// database is fenced off, not wedged in a retry loop.
func TestReloadCorruptSegmentQuarantined(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	tn := newDurableTenant(t, p, "bitrot", core.EngineSpec{}, 192, 200)
	st1, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.Upload(tn.name, tn.spec, tn.db); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	segPath := filepath.Join(dir, segment.FileName(tn.name))
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF // flip a plane byte
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for i := 0; i < 2; i++ { // second search: typed error, no re-probing of a known-bad file
		if _, err := st2.Search(tn.name, tn.q); !errors.Is(err, ErrCorruptDB) {
			t.Fatalf("search %d on corrupt segment: %v, want ErrCorruptDB", i, err)
		}
	}
	if _, err := os.Stat(segPath + segment.QuarantineSuffix); err != nil {
		t.Fatalf("corrupt segment not set aside: %v", err)
	}
}

// TestEvictReloadUnderMmapFailure pins the evict→reload cycle under an
// injected mmap failure: the reload must fall back to the plain-read
// path and serve bit-identical results.
func TestEvictReloadUnderMmapFailure(t *testing.T) {
	p := bfv.ParamsToy()
	inj := fault.New(fault.Config{Seed: "mmapfail", MmapFail: true})
	reg := metrics.NewRegistry()
	inj.Bind(reg)
	a := newDurableTenant(t, p, "mm-a", core.EngineSpec{}, 192, 200)
	b := newDurableTenant(t, p, "mm-b", core.EngineSpec{}, 192, 968)
	budget := 2 * int64(len(a.db.Chunks)) * int64(p.N) * 8 // exactly one arena
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{
		DataDir: t.TempDir(), MemBudget: budget, FS: inj.FS(segment.OSFS{}),
	})
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
	if got := st.ResidentBytes(); got > budget {
		t.Fatalf("budget not enforced: resident %d > %d", got, budget)
	}
	ir, err := st.Search(a.name, a.q) // evicted: reload with mmap failing
	if err != nil {
		t.Fatalf("reload under mmap failure: %v", err)
	}
	assertCandidates(t, "copy-fallback reload", ir.Candidates, a.clientWant)
	ir.Release()
	if n, _ := metrics.Lookup(reg.Snapshot(), "fault_mmap_fails_total"); n == 0 {
		t.Fatal("reload never attempted (and failed) an mmap")
	}
}

// TestFailedReloadLeavesDBCold hides a cold tenant's segment file, so
// the reload fails with a transient (non-corruption) error: the tenant
// must stay cold and registered — and serve again once the file is
// back. A transient reload failure must not wedge or quarantine.
func TestFailedReloadLeavesDBCold(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	a := newDurableTenant(t, p, "cold-a", core.EngineSpec{}, 192, 200)
	b := newDurableTenant(t, p, "cold-b", core.EngineSpec{}, 192, 968)
	budget := 2 * int64(len(a.db.Chunks)) * int64(p.N) * 8
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir, MemBudget: budget})
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

	segPath := filepath.Join(dir, segment.FileName(a.name))
	if err := os.Rename(segPath, segPath+".hidden"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Search(a.name, a.q); err == nil {
		t.Fatal("search with missing segment succeeded")
	} else if errors.Is(err, ErrCorruptDB) {
		t.Fatalf("transient reload failure quarantined the db: %v", err)
	}
	for _, info := range st.List() {
		if info.Name == a.name && info.State != StateCold {
			t.Fatalf("failed reload left %q %s, want cold", a.name, info.State)
		}
	}
	if err := os.Rename(segPath+".hidden", segPath); err != nil {
		t.Fatal(err)
	}
	ir, err := st.Search(a.name, a.q)
	if err != nil {
		t.Fatalf("retry after restoring the segment: %v", err)
	}
	assertCandidates(t, "restored reload", ir.Candidates, a.clientWant)
	ir.Release()
}

// gatedFS injects disk-full: while fail is armed every file write
// fails, and while allButSegTmp is armed every create and write fails
// except those of a segment's .tmp file. Everything else (reads,
// renames, directory ops) works.
type gatedFS struct {
	segment.FS
	fail         atomic.Bool
	allButSegTmp atomic.Bool
}

func (g *gatedFS) OpenFile(name string, flag int, perm fs.FileMode) (segment.File, error) {
	segTmp := strings.HasSuffix(name, ".seg.tmp")
	if flag&os.O_CREATE != 0 && !segTmp && g.allButSegTmp.Load() {
		return nil, fault.ErrNoSpace
	}
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, g: g, segTmp: segTmp}, nil
}

type gatedFile struct {
	segment.File
	g      *gatedFS
	segTmp bool
}

func (f *gatedFile) Write(p []byte) (int, error) {
	if f.g.fail.Load() || (!f.segTmp && f.g.allButSegTmp.Load()) {
		return 0, fault.ErrNoSpace
	}
	return f.File.Write(p)
}

// TestUploadFailureKeepsServing is the write-path graceful-degradation
// test: when the durable write fails (disk full), the upload is refused
// cleanly — no registry entry, no torn segment, resident and disk never
// skew — and existing tenants keep serving reads. Once space is back,
// uploads work again.
func TestUploadFailureKeepsServing(t *testing.T) {
	p := bfv.ParamsToy()
	gfs := &gatedFS{FS: segment.OSFS{}}
	reg := metrics.NewRegistry()
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: t.TempDir(), FS: gfs, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := newDurableTenant(t, p, "full-a", core.EngineSpec{}, 192, 200)
	b := newDurableTenant(t, p, "full-b", core.EngineSpec{}, 192, 968)
	if err := st.Upload(a.name, a.spec, a.db); err != nil {
		t.Fatal(err)
	}

	gfs.fail.Store(true) // the disk fills up
	if err := st.Upload(b.name, b.spec, b.db); !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("upload on full disk: %v, want ErrNoSpace", err)
	}
	if _, err := st.Search(b.name, b.q); err == nil {
		t.Fatal("refused upload left a registry entry")
	}
	ir, err := st.Search(a.name, a.q) // read path unaffected
	if err != nil {
		t.Fatalf("read-only degradation: %v", err)
	}
	assertCandidates(t, "read-only", ir.Candidates, a.clientWant)
	ir.Release()
	if got, _ := metrics.Lookup(reg.Snapshot(), "store_uploads_failed_total"); got != 1 {
		t.Fatalf("store_uploads_failed_total = %d, want 1", got)
	}

	gfs.fail.Store(false) // space freed
	if err := st.Upload(b.name, b.spec, b.db); err != nil {
		t.Fatalf("upload after space freed: %v", err)
	}
	ir, err = st.Search(b.name, b.q)
	if err != nil {
		t.Fatal(err)
	}
	assertCandidates(t, "recovered upload", ir.Candidates, b.clientWant)
	ir.Release()
}

// TestUploadFailureNeverSkews fails every file create and write except
// a segment's .tmp, so the segment write itself goes through. An upload
// must then be acknowledged exactly when its version is the one served —
// after an eviction and reload, and after a restart — and a store
// reopened while writes still fail must boot and serve from its
// segments.
func TestUploadFailureNeverSkews(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	gfs := &gatedFS{FS: segment.OSFS{}}
	oldV := newDurableTenant(t, p, "skew", core.EngineSpec{}, 192, 200)
	newV := newDurableTenant(t, p, "skew", core.EngineSpec{}, 192, 968)
	fresh := newDurableTenant(t, p, "fresh", core.EngineSpec{}, 192, 400)
	other := newDurableTenant(t, p, "bystander", core.EngineSpec{}, 192, 600)
	// One arena of budget: every search of another tenant evicts skew.
	opts := StoreOptions{DataDir: dir, FS: gfs, MemBudget: 2 * int64(len(oldV.db.Chunks)) * int64(p.N) * 8}
	open := func() *Store {
		t.Helper()
		st, err := NewStoreWithOptions(p, core.EngineSpec{}, opts)
		if err != nil {
			t.Fatalf("opening the store: %v", err)
		}
		return st
	}
	search := func(st *Store, tn *durableTenant) ([]int, error) {
		t.Helper()
		ir, err := st.Search(tn.name, tn.q)
		if err != nil {
			return nil, err
		}
		defer ir.Release()
		return append([]int(nil), ir.Candidates...), nil
	}
	// served searches the bystander first (evicting skew), then skew
	// from its segment, and reports whether skew answers as newV.
	served := func(st *Store, label string) bool {
		t.Helper()
		got, err := search(st, other)
		if err != nil {
			t.Fatalf("%s: bystander: %v", label, err)
		}
		assertCandidates(t, label+": bystander", got, other.clientWant)
		if got, err = search(st, newV); err != nil {
			t.Fatalf("%s: skew: %v", label, err)
		}
		if !slices.Equal(got, newV.clientWant) {
			assertCandidates(t, label+": skew", got, oldV.clientWant)
			return false
		}
		return true
	}

	st := open()
	for _, tn := range []*durableTenant{oldV, other} {
		if err := st.Upload(tn.name, tn.spec, tn.db); err != nil {
			t.Fatal(err)
		}
	}
	gfs.allButSegTmp.Store(true)
	replaceErr := st.Upload(newV.name, newV.spec, newV.db)
	freshErr := st.Upload(fresh.name, fresh.spec, fresh.db)
	if got := served(st, "reload"); got != (replaceErr == nil) {
		t.Fatalf("after eviction and reload: new version served = %v, upload error = %v", got, replaceErr)
	}
	st.Close()

	st = open() // writes still fail: the boot must not need any
	defer st.Close()
	if got := served(st, "restart"); got != (replaceErr == nil) {
		t.Fatalf("after restart: new version served = %v, upload error = %v", got, replaceErr)
	}
	got, err := search(st, fresh)
	if (err == nil) != (freshErr == nil) {
		t.Fatalf("after restart: fresh tenant search error %v, upload error %v", err, freshErr)
	}
	if err == nil {
		assertCandidates(t, "restart: fresh", got, fresh.clientWant)
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

func startChaosServer(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // returns when the listener closes
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// TestPanicIsolation drives a panicking engine through both serving
// paths — the direct per-connection handler and the coalesced batch
// executor — and requires a typed MsgServerError reply, a recovered
// counter, and an untouched process: the same connection then serves a
// healthy database.
func TestPanicIsolation(t *testing.T) {
	p := bfv.ParamsToy()
	tn := newDurableTenant(t, p, "healthy", core.EngineSpec{}, 192, 200)
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
			addr := startChaosServer(t, srv)
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
			assertCandidates(t, "post-panic", got, tn.clientWant)
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
	tn := newDurableTenant(t, p, "drained", core.EngineSpec{}, 192, 200)
	srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, CoalesceConfig{Window: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Upload(tn.name, tn.spec, tn.db); err != nil {
		t.Fatal(err)
	}
	addr := startChaosServer(t, srv)

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
			if err == nil && !slices.Equal(got, tn.clientWant) {
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
	tn := newDurableTenant(t, p, "retried", core.EngineSpec{}, 192, 200)
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
		assertCandidates(t, "under faults", got, tn.clientWant)
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
	addr := startChaosServer(t, srv)

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
