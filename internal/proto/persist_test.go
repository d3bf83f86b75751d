package proto

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/segment"
)

// decryptTruth is the cryptographic ground truth, the oracle of
// internal/engine's conformance matrix: the candidates of query over db on
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
	if !slices.Equal(got, want) {
		t.Fatalf("%s: candidates %v, want %v", label, got, want)
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
	a := newTenant(t, p, "thrash-a", core.EngineSpec{}, 192, 200)
	b := newTenant(t, p, "thrash-b", core.EngineSpec{Kind: core.EnginePool, Workers: 2}, 192, 968)
	arena := (&Store{params: p}).arenaBytes(len(a.db.Chunks))
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

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		tn := []*tenant{a, b}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ir, err := st.Search(tn.name, tn.q)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(ir.Candidates, tn.expect) {
					t.Error(errMismatch(tn.name, ir.Candidates, tn.expect))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// syncGateFS is the real filesystem, except that a save reaching the
// fsync crash point announces it on reached and waits for release.
type syncGateFS struct {
	segment.OSFS
	reached, release chan struct{}
}

func (f *syncGateFS) Crash(point string) error {
	if point == segment.CrashWriteSync {
		close(f.reached)
		<-f.release
	}
	return nil
}

// TestStoreColdReloadDuringBlockedSave: one tenant's upload, stalled in
// its segment save before the fsync, must not hold up another tenant's
// reload — the data directory keeps no lock a save holds.
func TestStoreColdReloadDuringBlockedSave(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	cold := newTenant(t, p, "cold", core.EngineSpec{}, 192, 200)
	saving := newTenant(t, p, "saving", core.EngineSpec{}, 192, 968)
	st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Upload(cold.name, cold.spec, cold.db); err != nil {
		t.Fatal(err)
	}
	st.Close()

	fsys := &syncGateFS{reached: make(chan struct{}), release: make(chan struct{})}
	st, err = NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	uploaded := make(chan error, 1)
	go func() { uploaded <- st.Upload(saving.name, saving.spec, saving.db) }()
	<-fsys.reached
	searched := make(chan error, 1)
	go func() {
		ir, err := st.Search(cold.name, cold.q)
		if err == nil {
			if !slices.Equal(ir.Candidates, cold.expect) {
				err = errMismatch(cold.name, ir.Candidates, cold.expect)
			}
			ir.Release()
		}
		searched <- err
	}()
	var searchErr error
	timedOut := false
	select {
	case searchErr = <-searched:
	case <-time.After(2 * time.Second):
		timedOut = true
	}
	close(fsys.release)
	if timedOut {
		t.Error("a cold tenant's reload waited 2 s behind another tenant's blocked save")
		searchErr = <-searched
	}
	if searchErr != nil {
		t.Error(searchErr)
	}
	if err := <-uploaded; err != nil {
		t.Fatal(err)
	}
}

// TestStoreQuarantineKeepsFile pins, one scenario each, the rules the
// store model checks op by op: a quarantine writes nothing, a restart
// re-verifies a quarantined tenant's segment, and a drop or an upload
// of a name reclaims the one file the name owns.
func TestStoreQuarantineKeepsFile(t *testing.T) {
	p := bfv.ParamsToy()
	const name = "kept"
	files := func(t *testing.T, dir string) []string {
		t.Helper()
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, de := range des {
			out = append(out, de.Name())
		}
		return out
	}
	search := func(st *Store, tn *tenant) error {
		ir, err := st.Search(tn.name, tn.q)
		if err != nil {
			return err
		}
		defer ir.Release()
		if !slices.Equal(ir.Candidates, tn.expect) {
			return errMismatch(tn.name, ir.Candidates, tn.expect)
		}
		return nil
	}
	boot := func(t *testing.T, dir string, old *Store) *Store {
		t.Helper()
		if old != nil {
			old.Close()
		}
		st, err := NewStoreWithOptions(p, core.EngineSpec{}, StoreOptions{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	// Each cause uploads tn, quarantines it and returns the store.
	type quarantineFunc func(t *testing.T, dir string, tn *tenant) *Store
	causes := []struct {
		name       string
		quarantine quarantineFunc
	}{
		{"scrub", func(t *testing.T, dir string, tn *tenant) *Store {
			st := boot(t, dir, nil)
			if err := st.Upload(name, tn.spec, tn.db); err != nil {
				t.Fatal(err)
			}
			tn.db.Arena()[0] ^= 1 // the file keeps the intact bytes
			if _, corrupted := st.ScrubOnce(); corrupted != 1 {
				t.Fatalf("scrub found %d corrupt arenas, want 1", corrupted)
			}
			return st
		}},
		{"disk-rot", func(t *testing.T, dir string, tn *tenant) *Store {
			st := boot(t, dir, nil)
			if err := st.Upload(name, tn.spec, tn.db); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segment.FileName(name))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[128+(len(name)+7)&^7] ^= 1 // first C0 plane byte
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			st = boot(t, dir, st)
			if err := search(st, tn); !errors.Is(err, ErrCorruptDB) {
				t.Fatalf("search of a rotten segment: %v, want ErrCorruptDB", err)
			}
			return st
		}},
	}
	for _, c := range causes {
		cause, quarantine := c.name, c.quarantine
		t.Run(cause+"/drop", func(t *testing.T) {
			dir := t.TempDir()
			st := quarantine(t, dir, newTenant(t, p, name, core.EngineSpec{}, 192, 200))
			if err := st.Drop(name); err != nil {
				t.Fatal(err)
			}
			if got := files(t, dir); len(got) != 0 {
				t.Fatalf("drop of a quarantined tenant left %v", got)
			}
		})
		t.Run(cause+"/re-upload", func(t *testing.T) {
			dir := t.TempDir()
			st := quarantine(t, dir, newTenant(t, p, name, core.EngineSpec{}, 192, 200))
			tn := newTenant(t, p, name, core.EngineSpec{}, 192, 200)
			if err := st.Upload(name, tn.spec, tn.db); err != nil {
				t.Fatal(err)
			}
			if got, want := files(t, dir), []string{segment.FileName(name)}; !slices.Equal(got, want) {
				t.Fatalf("re-upload over a quarantined tenant left %v, want %v", got, want)
			}
			if err := search(st, tn); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(cause+"/restart", func(t *testing.T) {
			dir := t.TempDir()
			tn := newTenant(t, p, name, core.EngineSpec{}, 192, 200)
			st := boot(t, dir, quarantine(t, dir, tn))
			err := search(st, tn)
			if cause == "scrub" && err != nil {
				t.Fatalf("after a restart, the intact segment of a scrub-quarantined tenant: %v, want truth", err)
			}
			if cause == "disk-rot" && !errors.Is(err, ErrCorruptDB) {
				t.Fatalf("after a restart, a rotten segment: %v, want ErrCorruptDB", err)
			}
		})
	}
	t.Run("damaged-at-boot/drop", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segment.FileName(name)), []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
		st := boot(t, dir, nil)
		if err := st.Drop(name); err != nil {
			t.Fatalf("drop of a segment damaged at boot: %v", err)
		}
		if got := files(t, dir); len(got) != 0 {
			t.Fatalf("drop of a segment damaged at boot left %v", got)
		}
		if err := st.Drop(name); err == nil || !strings.Contains(err.Error(), "no database named") {
			t.Fatalf("second drop: %v, want no database named", err)
		}
	})
}

// TestStoreDurableCapacityRefusal pins the refused-upload invariants on
// a durable store: a refusal at MaxStoredDBs must not write a segment
// a restart could resurrect, and must not skew the resident-bytes
// accounting the eviction policy steers by.
func TestStoreDurableCapacityRefusal(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	tn := newTenant(t, p, "cap", core.EngineSpec{}, 64, 40)
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
// BFV parameters must not brick the store — it is not served and is
// reported on the boot's one list of damaged segments, while healthy
// tenants recover and serve; a drop of its name deletes the file.
func TestStoreForeignGeometryQuarantine(t *testing.T) {
	p := bfv.ParamsToy()
	dir := t.TempDir()
	tn := newTenant(t, p, "healthy", core.EngineSpec{}, 192, 200)
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
	damaged := st2.Damaged()
	if len(damaged) != 1 || damaged[0].File != segment.FileName("foreign") || !errors.Is(damaged[0].Err, segment.ErrGeometry) {
		t.Fatalf("damaged segments: %+v", damaged)
	}
	ir, err := st2.Search(tn.name, tn.q)
	if err != nil {
		t.Fatal(err)
	}
	assertCandidates(t, "healthy tenant beside foreign segment", ir.Candidates, tn.expect)
	// The boot left the foreign file in place; a drop of its name
	// deletes it, and only then is the name unknown.
	foreign := filepath.Join(dir, segment.FileName("foreign"))
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("boot deleted the foreign segment: %v", err)
	}
	if err := st2.Drop("foreign"); err != nil {
		t.Fatalf("drop of the foreign segment: %v", err)
	}
	if _, err := os.Stat(foreign); !os.IsNotExist(err) {
		t.Fatalf("foreign segment survived its drop: %v", err)
	}
	if err := st2.Drop("foreign"); err == nil || !strings.Contains(err.Error(), "no database named") {
		t.Fatalf("second drop of the foreign segment: %v, want no database named", err)
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
	tn := newTenant(t, p, "v1-tenant", core.EngineSpec{Kind: core.EnginePool, Workers: 2}, 192, 200)
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
	assertCandidates(t, "version 1 segment", ir.Candidates, tn.expect)
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
	tn := newTenant(t, p, "sealed", core.EngineSpec{}, 256<<10, 200)
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
		assertCandidates(t, "reloaded", ir.Candidates, tn.expect)
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
