package fault

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/segment"
)

// Crashed reports whether the simulated crash has fired: the "process"
// is dead and every filesystem operation fails until a fresh FS (a new
// process) is built over the surviving files.
func (inj *Injector) Crashed() bool { return inj.crashed.Load() }

// Counters snapshots how many faults of each class have been injected —
// the report a chaos run prints so "nothing failed" is distinguishable
// from "nothing was injected".
func (inj *Injector) Counters() map[string]int64 {
	out := make(map[string]int64, 8)
	for name, s := range inj.stats() {
		out[name] = s.local.Load()
	}
	return out
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig("seed=s1,crash=segment.write.plane0,writeerr=7,shortwrite=5,syncerr=3,mmapfail,bitflip=9,drop=11,stall=13,stalldur=20ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: "s1", CrashPoint: segment.CrashWritePlane0,
		WriteErrEvery: 7, ShortWriteEvery: 5, SyncErrEvery: 3,
		MmapFail: true, BitFlipEvery: 9,
		DropEvery: 11, StallEvery: 13, Stall: 20 * time.Millisecond,
	}
	if cfg != want {
		t.Fatalf("got %+v, want %+v", cfg, want)
	}
	if c, err := ParseConfig("  "); err != nil || c != (Config{}) {
		t.Fatalf("empty spec: %+v, %v", c, err)
	}
	for _, bad := range []string{"drop", "drop=x", "drop=-1", "frobnicate=1", "stalldur=0s", "mmapfail=no", "crash=", "crash=segment.write.plane"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("spec %q: expected error", bad)
		}
	}
	// A mistyped crash point would arm a crash that never fires; the
	// error names the valid points.
	if _, err := ParseConfig("crash=segment.write.plane"); err == nil || !strings.Contains(err.Error(), segment.CrashWritePlane0) {
		t.Errorf("unknown crash point: error %v does not list the valid points", err)
	}
	for _, point := range segment.CrashPoints() {
		if cfg, err := ParseConfig("crash=" + point); err != nil || cfg.CrashPoint != point {
			t.Errorf("crash=%s: %+v, %v", point, cfg, err)
		}
	}
}

// TestTriggerDeterminism: same seed, same config, same op sequence ⇒
// identical fault pattern.
func TestTriggerDeterminism(t *testing.T) {
	pattern := func() []int {
		inj := New(Config{Seed: "det", DropEvery: 5})
		var fired []int
		for i := 0; i < 40; i++ {
			if inj.drop.hit() {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := pattern(), pattern()
	if len(a) != 8 {
		t.Fatalf("period 5 over 40 ops fired %d times, want 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic pattern: %v vs %v", a, b)
		}
	}
}

// testDB builds a small encrypted database + meta for segment writes.
func testDB(t *testing.T) (segment.Meta, *core.EncryptedDB) {
	t.Helper()
	p := bfv.ParamsToy()
	cfg := core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("fault-db"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 256)
	rng.NewSourceFromString("fault-data").Bytes(data)
	db, err := client.EncryptDatabase(data, len(data)*8)
	if err != nil {
		t.Fatal(err)
	}
	meta := segment.Meta{
		Name: "fault-tenant", RingDegree: p.N, Modulus: p.Q,
		Chunks: len(db.Chunks), BitLen: db.BitLen, NumSegments: db.NumSegments,
	}
	return meta, db
}

// save writes db as meta.Name's segment in dir through fsys, as the
// store does.
func save(t *testing.T, fsys segment.FS, dir string, meta segment.Meta, db *core.EncryptedDB) error {
	t.Helper()
	d, err := segment.OpenDirFS(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	return d.Save(meta, db)
}

// recoverDir runs the recovery scan a restarted store runs over dir on
// the real filesystem, at meta's geometry.
func recoverDir(t *testing.T, dir string, meta segment.Meta) ([]segment.Meta, []segment.Damaged) {
	t.Helper()
	d, err := segment.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	valid, damaged, err := d.Recover(meta.RingDegree, meta.Modulus)
	if err != nil {
		t.Fatal(err)
	}
	return valid, damaged
}

func TestFSCrashPointKillsFS(t *testing.T) {
	meta, db := testDB(t)
	dir := t.TempDir()
	path := filepath.Join(dir, segment.FileName(meta.Name))

	inj := New(Config{Seed: "crash", CrashPoint: segment.CrashWritePlane0})
	fsys := inj.FS(segment.OSFS{})
	if err := save(t, fsys, dir, meta, db); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Save: %v, want ErrCrashed", err)
	}
	if !inj.Crashed() {
		t.Fatal("injector not marked crashed")
	}
	// The torn tmp file survives (a dead FS cannot clean it up)...
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("torn tmp file missing: %v", err)
	}
	// ...no final segment exists...
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final segment should not exist: %v", err)
	}
	// ...and every further op on the dead FS fails.
	if _, err := fsys.ReadDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash ReadDir: %v", err)
	}
	// A fresh FS (the restarted process) prunes the tmp and boots clean.
	if valid, damaged := recoverDir(t, dir, meta); len(valid)+len(damaged) != 0 {
		t.Fatalf("recovered %+v, damaged %+v from torn write, want neither", valid, damaged)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale tmp not pruned: %v", err)
	}
}

func TestFSDiskFull(t *testing.T) {
	meta, db := testDB(t)
	dir := t.TempDir()
	path := filepath.Join(dir, segment.FileName(meta.Name))

	inj := New(Config{Seed: "enospc", WriteErrEvery: 1})
	if err := save(t, inj.FS(segment.OSFS{}), dir, meta, db); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Save: %v, want ErrNoSpace", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write must not leave a segment: %v", err)
	}
	if inj.Counters()["write_errors"] == 0 {
		t.Fatal("write_errors counter not incremented")
	}
}

func TestFSShortWriteLeavesTornPrefix(t *testing.T) {
	meta, db := testDB(t)
	dir := t.TempDir()

	// Let the header through, then tear a plane write.
	inj := New(Config{Seed: "short", ShortWriteEvery: 2})
	if err := save(t, inj.FS(segment.OSFS{}), dir, meta, db); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Save: %v, want ErrNoSpace", err)
	}
	// Recovery on the real FS sees no segment (tmp was cleaned up by the
	// still-alive writer) — the store stays consistent.
	if valid, damaged := recoverDir(t, dir, meta); len(valid)+len(damaged) != 0 {
		t.Fatalf("recovered %+v, damaged %+v, want neither", valid, damaged)
	}
}

func TestFSSyncError(t *testing.T) {
	meta, db := testDB(t)
	inj := New(Config{Seed: "sync", SyncErrEvery: 1})
	if err := save(t, inj.FS(segment.OSFS{}), t.TempDir(), meta, db); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("Save: %v, want ErrSyncFailed", err)
	}
}

func TestFSMmapFailFallsBackToCopy(t *testing.T) {
	meta, db := testDB(t)
	dir := t.TempDir()
	if err := save(t, segment.OSFS{}, dir, meta, db); err != nil {
		t.Fatal(err)
	}
	inj := New(Config{Seed: "mmap", MmapFail: true})
	d, err := segment.OpenDirFS(inj.FS(segment.OSFS{}), dir)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := d.Load(meta.Name, meta.RingDegree, meta.Modulus)
	if err != nil {
		t.Fatalf("Load under mmap failure: %v", err)
	}
	defer seg.Close()
	if inj.Counters()["mmap_fails"] == 0 {
		t.Fatal("mmap_fails counter not incremented")
	}
	got, err := seg.DB()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Arena(), db.Arena()) {
		t.Fatal("copy-load not bit-identical to the saved arena")
	}
}

func TestFSBitFlipCaughtByChecksum(t *testing.T) {
	meta, db := testDB(t)
	dir := t.TempDir()
	path := filepath.Join(dir, segment.FileName(meta.Name))
	if err := save(t, segment.OSFS{}, dir, meta, db); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in every read: whichever read path touches the planes,
	// the CRC verification must reject rather than serve corrupt data.
	inj := New(Config{Seed: "flip", BitFlipEvery: 1})
	seg, err := segment.OpenFS(inj.FS(segment.OSFS{}), path, meta.RingDegree, meta.Modulus)
	if err == nil {
		seg.Close()
		t.Fatal("OpenFS adopted bit-flipped planes")
	}
	if inj.Counters()["bit_flips"] == 0 {
		t.Fatal("bit_flips counter not incremented")
	}
}

func TestBindRegistry(t *testing.T) {
	inj := New(Config{Seed: "bind", WriteErrEvery: 1})
	inj.nWriteErr.inc() // pre-bind fault
	reg := metrics.NewRegistry()
	inj.Bind(reg)
	inj.nWriteErr.inc() // post-bind fault
	if got, ok := metrics.Lookup(reg.Snapshot(), "fault_write_errors_total"); !ok || got != 2 {
		t.Fatalf("fault_write_errors_total = %d (ok=%v), want 2", got, ok)
	}
}

func TestConnDropTearsMessage(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	inj := New(Config{Seed: "drop", DropEvery: 1})
	faulty := inj.Conn(client)

	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 64)
		n, _ := server.Read(buf)
		got <- buf[:n]
	}()
	msg := []byte(strings.Repeat("x", 32))
	n, err := faulty.Write(msg)
	if err == nil {
		t.Fatal("dropped write reported success")
	}
	if n >= len(msg) {
		t.Fatalf("dropped write wrote %d of %d bytes, want a strict prefix", n, len(msg))
	}
	select {
	case b := <-got:
		if len(b) >= len(msg) {
			t.Fatalf("peer received %d bytes, want a torn prefix", len(b))
		}
	case <-time.After(time.Second):
		t.Fatal("peer read did not complete")
	}
	if inj.Counters()["conn_drops"] == 0 {
		t.Fatal("conn_drops counter not incremented")
	}
}

func TestConnStall(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	inj := New(Config{Seed: "stall", StallEvery: 1, Stall: 30 * time.Millisecond})
	faulty := inj.Conn(client)

	go server.Write([]byte("pong")) //nolint:errcheck // test peer
	buf := make([]byte, 4)
	t0 := time.Now()
	if _, err := faulty.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 30*time.Millisecond {
		t.Fatalf("stalled read returned in %v, want ≥30ms", d)
	}
	if inj.Counters()["conn_stalls"] == 0 {
		t.Fatal("conn_stalls counter not incremented")
	}
}
