package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/rng"
)

// fixtureDB builds an arena-backed toy-parameter encrypted database of
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
	if got.Arena() == nil {
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
	binary.LittleEndian.PutUint64(raw[len(raw)-footerLen+16:], checksum(raw[:planeOff]))
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

// noMmapFS is the real filesystem with mapping unavailable, which
// forces every load through the copying loader.
type noMmapFS struct{ OSFS }

func (noMmapFS) Mmap(File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }

// loaders are the two load paths every verification test runs through.
var loaders = []struct {
	name string
	fsys FS
}{{"mmap", OSFS{}}, {"copy", noMmapFS{}}}

// subtest names a corruption case per loader; the mmap loader keeps the
// bare case names it has always run under.
func subtest(loader, name string) string {
	if loader == "mmap" {
		return name
	}
	return loader + "/" + name
}

// TestSegmentCorruption holds both loaders to the distinct-error
// contract: every damage class maps to its own sentinel, and every
// burst of up to 64 bits in any checksummed section is caught.
func TestSegmentCorruption(t *testing.T) {
	// The checksum's halves give the standard check values,
	// CRC-32C("123456789") = E3069283 and CRC-32/IEEE = CBF43926, and
	// streaming in pieces changes nothing.
	t.Run("check-value", func(t *testing.T) {
		if got := checksum([]byte("123456789")); got != 0xE3069283_CBF43926 {
			t.Fatalf("checksum(\"123456789\") = %016x, want e3069283cbf43926", got)
		}
		buf := make([]byte, 3<<10+13)
		rng.NewSourceFromString("checksum-stream").Bytes(buf)
		var d digest
		for rest := buf; len(rest) > 0; {
			k := min(len(rest), 517)
			d.Write(rest[:k]) //nolint:errcheck // never fails
			rest = rest[k:]
		}
		if d.Sum64() != checksum(buf) {
			t.Fatalf("streamed %016x, one-shot %016x", d.Sum64(), checksum(buf))
		}
	})

	dir := t.TempDir()
	path, p, _ := writeFixture(t, dir, "corrupt", 160, core.EngineSpec{})
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	planeOff := headerLen + pad8(len("corrupt"))
	pb := (len(orig) - planeOff - footerLen) / 2
	foot := len(orig) - footerLen
	burst := func(off int) func([]byte) []byte {
		return func(b []byte) []byte {
			for i := off; i < off+8; i++ {
				b[i] ^= 0xFF
			}
			return b
		}
	}
	flip := func(off int) func([]byte) []byte {
		return func(b []byte) []byte { b[off] ^= 0x04; return b }
	}
	reopen := func(t *testing.T, fsys FS, mutate func([]byte) []byte) error {
		t.Helper()
		mutated := mutate(append([]byte(nil), orig...))
		mp := filepath.Join(dir, "mutated.seg")
		if err := os.WriteFile(mp, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFS(fsys, mp, p.N, p.Q)
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
		{"plane-bit-flip", ErrChecksum, flip(planeOff + 5)},
		{"c0-burst64", ErrChecksum, burst(planeOff + 3)},
		{"c1-burst64", ErrChecksum, burst(planeOff + pb + 37)},
		{"header-bit-flip", ErrChecksum, func(b []byte) []byte { b[44] ^= 0x01; return b }}, // reserved byte: only the CRC sees it
		{"name-bit-flip", ErrChecksum, flip(headerLen + 1)},
		{"c0-footer-slot", ErrChecksum, flip(foot + 2)},
		{"c1-footer-slot", ErrChecksum, flip(foot + 8 + 5)},
		{"footer-magic", ErrCorrupt, func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }},
		{"absurd-chunk-count", ErrCorrupt, func(b []byte) []byte { b[36] = 0xFF; return b }},
	}
	for _, ld := range loaders {
		for _, tc := range cases {
			t.Run(subtest(ld.name, tc.name), func(t *testing.T) {
				err := reopen(t, ld.fsys, tc.mutate)
				if !errors.Is(err, tc.want) {
					t.Fatalf("got %v, want %v", err, tc.want)
				}
			})
		}
	}

	t.Run("degree-mismatch", func(t *testing.T) {
		if _, err := Open(path, 2*p.N, p.Q); !errors.Is(err, ErrGeometry) {
			t.Fatalf("got %v, want ErrGeometry", err)
		}
		if _, err := Open(path, p.N, p.Q+1); !errors.Is(err, ErrGeometry) {
			t.Fatalf("got %v, want ErrGeometry", err)
		}
	})
	for _, ld := range loaders {
		t.Run(subtest(ld.name, "intact-still-opens"), func(t *testing.T) {
			s, err := OpenFS(ld.fsys, path, p.N, p.Q)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if mapped := ld.name == "mmap" && mmapSupported && nativeLittleEndian; s.Mapped() != mapped {
				t.Fatalf("Mapped() = %v, want %v", s.Mapped(), mapped)
			}
		})
	}
}

// TestOpenReportsFirstCorruptPlane: with both planes damaged, every
// loader and format version fails with ErrChecksum naming C0, as a
// serial check would, however the parallel plane hashes finish. The
// planes are large enough to hash in parallel, C0 is damaged at its
// end and C1 at its start.
func TestOpenReportsFirstCorruptPlane(t *testing.T) {
	p := bfv.ParamsToy()
	chunks := parallelHashBytes / (8 * p.N)
	db := core.NewCompactDB(p.N, chunks)
	rng.NewSourceFromString("first-corrupt").Bytes(u64Bytes(db.Arena()))
	meta := Meta{Name: "both-planes", RingDegree: p.N, Modulus: p.Q, Chunks: chunks}
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(meta.Name))
	if err := Write(path, meta, db); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	planeOff := headerLen + pad8(len(meta.Name))
	pb := int(meta.planeBytes())
	for _, version := range []int{1, Version} {
		raw := append([]byte(nil), orig...)
		if version == 1 {
			sealV1(raw, planeOff)
		}
		raw[planeOff+pb-3] ^= 0x10
		raw[planeOff+pb+2] ^= 0x01
		bad := filepath.Join(dir, fmt.Sprintf("v%d.seg", version))
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, ld := range loaders {
			t.Run(fmt.Sprintf("v%d/%s", version, ld.name), func(t *testing.T) {
				for i := 0; i < 8; i++ {
					s, err := OpenFS(ld.fsys, bad, p.N, p.Q)
					if s != nil {
						s.Close()
					}
					if !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), "C0 plane CRC") {
						t.Fatalf("open %d: got %v, want ErrChecksum naming C0", i, err)
					}
				}
			})
		}
	}
}

// v1Fixture is a version 1 (CRC-64/ECMA) segment written by the last
// release that wrote that version: ParamsToy, tenant "v1-tenant",
// engine pool:2, two chunks.
const v1Fixture = "testdata/v1-toy.seg"

// TestSegmentV1Compat: version 1 segments stay readable through both
// loaders, are still verified against their CRC-64 sums, and report
// PlaneCRCs in the current checksum, so the store's scrub finds a
// healthy version 1 tenant healthy.
func TestSegmentV1Compat(t *testing.T) {
	p := bfv.ParamsToy()
	orig, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(orig[8:]); v != 1 {
		t.Fatalf("fixture is version %d, want 1", v)
	}
	dir := t.TempDir()
	write := func(t *testing.T, raw []byte) string {
		t.Helper()
		path := filepath.Join(dir, "v1.seg")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	planeOff := headerLen + pad8(len("v1-tenant"))
	for _, ld := range loaders {
		t.Run(ld.name, func(t *testing.T) {
			path := write(t, orig)
			meta, err := ReadMetaFS(ld.fsys, path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := OpenFS(ld.fsys, path, p.N, p.Q)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			want := core.EngineSpec{Kind: core.EnginePool, Workers: 2}
			if m := s.Meta(); m != meta || m.Name != "v1-tenant" || m.Chunks != 2 || m.Spec != want {
				t.Fatalf("meta %+v (ReadMeta %+v)", m, meta)
			}
			if got, want := s.PlaneCRCs(), ArenaPlaneCRCs(s.Arena()); got != want {
				t.Fatalf("PlaneCRCs %016x, ArenaPlaneCRCs %016x", got, want)
			}
			if _, err := s.DB(); err != nil {
				t.Fatal(err)
			}

			flipped := append([]byte(nil), orig...)
			flipped[planeOff+11] ^= 0x20
			if _, err := OpenFS(ld.fsys, write(t, flipped), p.N, p.Q); !errors.Is(err, ErrChecksum) {
				t.Fatalf("plane bit flip: got %v, want ErrChecksum", err)
			}
			// The version field picks the checksum: the same bytes
			// relabelled version 2 fail their header check.
			relabelled := append([]byte(nil), orig...)
			binary.LittleEndian.PutUint32(relabelled[8:], Version)
			if _, err := OpenFS(ld.fsys, write(t, relabelled), p.N, p.Q); !errors.Is(err, ErrChecksum) {
				t.Fatalf("relabelled version: got %v, want ErrChecksum", err)
			}
		})
	}
}

// sealV1 rewrites a version 2 segment image the way version 1 sealed
// it: the version field, and all three footer sums as CRC-64/ECMA.
func sealV1(raw []byte, planeOff int) {
	binary.LittleEndian.PutUint32(raw[8:], 1)
	pb := (len(raw) - planeOff - footerLen) / 2
	foot := raw[len(raw)-footerLen:]
	binary.LittleEndian.PutUint64(foot[0:], crc64.Checksum(raw[planeOff:planeOff+pb], ecmaTable))
	binary.LittleEndian.PutUint64(foot[8:], crc64.Checksum(raw[planeOff+pb:planeOff+2*pb], ecmaTable))
	binary.LittleEndian.PutUint64(foot[16:], crc64.Checksum(raw[:planeOff], ecmaTable))
}

// BenchmarkOpen times the cold-reload path of one tenants_cold tenant —
// 2048 chunks at ParamsPaper, a 32 MiB page-cached segment — mapped and
// verified by Open, per format version.
func BenchmarkOpen(b *testing.B) {
	p := bfv.ParamsPaper()
	const chunks = 2048
	db := core.NewCompactDB(p.N, chunks)
	arena := db.Arena()
	src := rng.NewSourceFromString("bench-open")
	for i := range arena {
		arena[i] = src.Uint64() % p.Q
	}
	meta := Meta{Name: "tenant", RingDegree: p.N, Modulus: p.Q, Chunks: chunks, BitLen: chunks * p.N * 16, NumSegments: chunks * p.N}
	for _, version := range []int{1, Version} {
		b.Run(fmt.Sprintf("v%d", version), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), FileName(meta.Name))
			if err := Write(path, meta, db); err != nil {
				b.Fatal(err)
			}
			if version == 1 {
				raw, err := os.ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				sealV1(raw, headerLen+pad8(len(meta.Name)))
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(2 * meta.planeBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(path, p.N, p.Q)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkArenaPlaneCRCs times the plane checksums a durable upload
// seals and the scrub re-hashes, over the same 32 MiB arena as
// BenchmarkOpen but resident in memory: the CRC work alone.
func BenchmarkArenaPlaneCRCs(b *testing.B) {
	p := bfv.ParamsPaper()
	arena := core.NewCompactDB(p.N, 2048).Arena()
	rng.NewSourceFromString("bench-crcs").Bytes(u64Bytes(arena))
	b.SetBytes(int64(8 * len(arena)))
	for b.Loop() {
		ArenaPlaneCRCs(arena)
	}
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
