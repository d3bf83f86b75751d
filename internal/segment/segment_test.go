package segment

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/rng"
)

// fixtureDB builds a compacted toy-parameter encrypted database of
// dbBytes bytes.
func fixtureDB(tb testing.TB, seed string, dbBytes int) (bfv.Params, *core.EncryptedDB) {
	tb.Helper()
	p := bfv.ParamsToy()
	client, err := core.NewClient(core.Config{Params: p, Mode: core.ModeSeededMatch}, rng.NewSourceFromString(seed))
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, dbBytes)
	rng.NewSourceFromString(seed + "-data").Bytes(data)
	db, err := client.EncryptDatabase(data, dbBytes*8)
	if err != nil {
		tb.Fatal(err)
	}
	return p, db
}

func fixtureMeta(name string, p bfv.Params, db *core.EncryptedDB, spec core.EngineSpec) Meta {
	return Meta{
		Name:        name,
		RingDegree:  p.N,
		Modulus:     p.Q,
		Chunks:      len(db.Chunks),
		BitLen:      db.BitLen,
		NumSegments: db.NumSegments,
		Spec:        spec,
	}
}

func writeFixture(tb testing.TB, dir, name string, dbBytes int, spec core.EngineSpec) (string, bfv.Params, *core.EncryptedDB) {
	tb.Helper()
	p, db := fixtureDB(tb, "seg-"+name, dbBytes)
	path := filepath.Join(dir, FileName(name))
	if err := Write(path, fixtureMeta(name, p, db, spec), db); err != nil {
		tb.Fatal(err)
	}
	return path, p, db
}

func TestSegmentRoundtrip(t *testing.T) {
	dir := t.TempDir()
	spec := core.EngineSpec{Kind: core.EnginePool, Workers: 3}
	path, p, db := writeFixture(t, dir, "tenant/α", 160, spec)

	s, err := Open(path, p.N, p.Q)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Meta()
	if m.Name != "tenant/α" || m.RingDegree != p.N || m.Modulus != p.Q ||
		m.Chunks != len(db.Chunks) || m.BitLen != db.BitLen || m.NumSegments != db.NumSegments || m.Spec != spec {
		t.Fatalf("meta did not round-trip: %+v", m)
	}
	got, err := s.DB()
	if err != nil {
		t.Fatal(err)
	}
	if got.BitLen != db.BitLen || got.NumSegments != db.NumSegments || len(got.Chunks) != len(db.Chunks) {
		t.Fatalf("adopted database shape differs: %d chunks, BitLen %d", len(got.Chunks), got.BitLen)
	}
	for j, ct := range db.Chunks {
		for c := 0; c < 2; c++ {
			for i, v := range ct.C[c] {
				if got.Chunks[j].C[c][i] != v {
					t.Fatalf("chunk %d component %d coefficient %d: %d != %d", j, c, i, got.Chunks[j].C[c][i], v)
				}
			}
		}
	}
	if !got.Compacted() {
		t.Fatal("adopted database is not arena-backed")
	}
}

// TestSegmentSearchOverMapping proves an engine can run directly over
// the loaded arena: search results over the segment-backed database
// match the original heap database.
func TestSegmentSearchOverMapping(t *testing.T) {
	p := bfv.ParamsToy()
	client, err := core.NewClient(core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}, rng.NewSourceFromString("map-search"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 192)
	rng.NewSourceFromString("map-search-data").Bytes(data)
	db, err := client.EncryptDatabase(data, len(data)*8)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery([]byte{data[10], data[11], data[12], data[13]}, 32, len(data)*8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewCPUEngine(p, db, 1).SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), FileName("map-search"))
	if err := Write(path, fixtureMeta("map-search", p, db, core.EngineSpec{}), db); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, p.N, p.Q)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mdb, err := s.DB()
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.NewCPUEngine(p, mdb, 1).SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("segment-backed search found %v, heap %v", got.Candidates, want.Candidates)
	}
	for i := range got.Candidates {
		if got.Candidates[i] != want.Candidates[i] {
			t.Fatalf("segment-backed search found %v, heap %v", got.Candidates, want.Candidates)
		}
	}
}

// TestReservedShardWordIgnored: header offset 64 once held an engine
// shard count. Writers now leave it zero; a segment written while it was
// non-zero — its header CRC covering those bytes — must still load,
// decoding to the spec's kind and workers alone.
func TestReservedShardWordIgnored(t *testing.T) {
	dir := t.TempDir()
	spec := core.EngineSpec{Kind: core.EnginePool, Workers: 2}
	path, p, db := writeFixture(t, dir, "legacy", 160, spec)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(raw[64:]); got != 0 {
		t.Fatalf("reserved word written as %d, want 0", got)
	}
	// Rewrite it as an older writer would have, re-sealing the header
	// CRC the footer stores.
	binary.LittleEndian.PutUint32(raw[64:], 4)
	planeOff := headerLen + pad8(len("legacy"))
	crc := crc64.Checksum(raw[:planeOff], crcTable)
	binary.LittleEndian.PutUint64(raw[len(raw)-footerLen+16:], crc)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	meta, err := ReadMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Spec != spec {
		t.Fatalf("spec decoded as %+v, want %+v", meta.Spec, spec)
	}
	s, err := Open(path, p.N, p.Q)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.DB()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chunks) != len(db.Chunks) || got.BitLen != db.BitLen {
		t.Fatalf("legacy segment loaded %d chunks / %d bits, want %d / %d",
			len(got.Chunks), got.BitLen, len(db.Chunks), db.BitLen)
	}
}

// TestSegmentCorruption holds the loader to the distinct-error
// contract: every damage class maps to its own sentinel.
func TestSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	path, p, _ := writeFixture(t, dir, "corrupt", 160, core.EngineSpec{})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(t *testing.T, mutate func([]byte) []byte) error {
		t.Helper()
		mutated := mutate(append([]byte(nil), orig...))
		mp := filepath.Join(dir, "mutated.seg")
		if err := os.WriteFile(mp, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(mp, p.N, p.Q)
		if s != nil {
			s.Close()
		}
		return err
	}

	cases := []struct {
		name   string
		want   error
		mutate func([]byte) []byte
	}{
		{"wrong-magic", ErrBadMagic, func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"wrong-version", ErrBadVersion, func(b []byte) []byte { b[8] = 99; return b }},
		{"truncated-header", ErrTruncated, func(b []byte) []byte { return b[:60] }},
		{"truncated-plane", ErrTruncated, func(b []byte) []byte { return b[:len(b)-footerLen-17] }},
		{"trailing-garbage", ErrCorrupt, func(b []byte) []byte { return append(b, 0xAA) }},
		{"plane-bit-flip", ErrChecksum, func(b []byte) []byte { b[headerLen+pad8(len("corrupt"))+5] ^= 0x10; return b }},
		{"header-bit-flip", ErrChecksum, func(b []byte) []byte { b[44] ^= 0x01; return b }}, // reserved byte: only the CRC sees it
		{"footer-magic", ErrCorrupt, func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }},
		{"absurd-chunk-count", ErrCorrupt, func(b []byte) []byte { b[36] = 0xFF; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := reopen(t, tc.mutate)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("degree-mismatch", func(t *testing.T) {
		if _, err := Open(path, 2*p.N, p.Q); !errors.Is(err, ErrGeometry) {
			t.Fatalf("got %v, want ErrGeometry", err)
		}
		if _, err := Open(path, p.N, p.Q+1); !errors.Is(err, ErrGeometry) {
			t.Fatalf("got %v, want ErrGeometry", err)
		}
	})
	t.Run("intact-still-opens", func(t *testing.T) {
		s, err := Open(path, p.N, p.Q)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
}

// TestOpenAllocsConstant pins the zero-copy claim: loading a segment
// costs the same number of heap allocations whatever the chunk count.
func TestOpenAllocsConstant(t *testing.T) {
	dir := t.TempDir()
	pathSmall, p, _ := writeFixture(t, dir, "small", 160, core.EngineSpec{})    // 2 chunks at toy params
	pathLarge, _, dbL := writeFixture(t, dir, "large", 2048, core.EngineSpec{}) // 16 chunks
	if len(dbL.Chunks) < 16 {
		t.Fatalf("large fixture has only %d chunks", len(dbL.Chunks))
	}
	measure := func(path string) float64 {
		return testing.AllocsPerRun(20, func() {
			s, err := Open(path, p.N, p.Q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.DB(); err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
	}
	small, large := measure(pathSmall), measure(pathLarge)
	if small != large {
		t.Fatalf("allocations scale with chunk count: %v (2 chunks) vs %v (16 chunks)", small, large)
	}
	if small > 32 {
		t.Fatalf("segment load costs %v allocations, want a small constant", small)
	}
}

func TestDirRecovery(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	p, db1 := fixtureDB(t, "dir-a", 160)
	_, db2 := fixtureDB(t, "dir-b", 320)
	specB := core.EngineSpec{Kind: core.EnginePool, Workers: 2}
	if err := d.Save(fixtureMeta("alpha", p, db1, core.EngineSpec{}), db1); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(fixtureMeta("beta", p, db2, specB), db2); err != nil {
		t.Fatal(err)
	}
	// Leftover temp file and one damaged segment must not block reopen.
	if err := os.WriteFile(filepath.Join(root, "stale.seg.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "junk.seg"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Delete the manifest: the scan must rebuild everything from the
	// self-describing segment headers (crash before manifest write).
	if err := os.Remove(filepath.Join(root, ManifestName)); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	entries := d2.Entries()
	if len(entries) != 2 || entries[0].Meta.Name != "alpha" || entries[1].Meta.Name != "beta" {
		t.Fatalf("recovered entries: %+v", entries)
	}
	if entries[1].Meta.Spec != specB {
		t.Fatalf("beta engine spec not recovered: %+v", entries[1].Meta.Spec)
	}
	if entries[1].Meta.Chunks != len(db2.Chunks) || entries[1].Meta.BitLen != db2.BitLen {
		t.Fatalf("beta geometry not recovered: %+v", entries[1].Meta)
	}
	if dmg := d2.Damaged(); len(dmg) != 1 || dmg[0].File != "junk.seg" {
		t.Fatalf("damaged list: %+v", dmg)
	}
	if _, err := os.Stat(filepath.Join(root, "stale.seg.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived recovery")
	}
	if _, err := os.Stat(filepath.Join(root, ManifestName)); err != nil {
		t.Fatal("manifest not rewritten after recovery scan")
	}

	s, err := d2.Load("beta", p.N, p.Q)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := d2.Remove("beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Load("beta", p.N, p.Q); err == nil {
		t.Fatal("load after remove succeeded")
	}
	d3, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if entries := d3.Entries(); len(entries) != 1 || entries[0].Meta.Name != "alpha" {
		t.Fatalf("entries after remove+reopen: %+v", entries)
	}
}

// TestWriteReplaceAtomic checks that re-saving a name atomically
// replaces its segment and leaves no temp residue.
func TestWriteReplaceAtomic(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	p, db1 := fixtureDB(t, "replace-1", 160)
	_, db2 := fixtureDB(t, "replace-2", 320)
	if err := d.Save(fixtureMeta("tenant", p, db1, core.EngineSpec{}), db1); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(fixtureMeta("tenant", p, db2, core.EngineSpec{}), db2); err != nil {
		t.Fatal(err)
	}
	s, err := d.Load("tenant", p.N, p.Q)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Meta().Chunks != len(db2.Chunks) {
		t.Fatalf("replacement not visible: %d chunks, want %d", s.Meta().Chunks, len(db2.Chunks))
	}
	files, err := filepath.Glob(filepath.Join(root, "*.tmp"))
	if err != nil || len(files) != 0 {
		t.Fatalf("temp residue after save: %v (%v)", files, err)
	}
}
