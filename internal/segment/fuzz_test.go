package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
)

// FuzzDecodeSegment is the persistence-layer sibling of the proto wire
// fuzzers: arbitrary file bytes must never panic the loader — only
// error — and anything that does load must satisfy the meta invariants
// the store relies on. Seeds are a valid segment of each format version
// plus truncations and bit flips at the structurally interesting offsets.
func FuzzDecodeSegment(f *testing.F) {
	p := bfv.ParamsToy()
	dir, err := os.MkdirTemp("", "segfuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	writeFixture(f, dir, "fuzz", 160, core.EngineSpec{Kind: core.EnginePool, Workers: 2})
	enc, err := os.ReadFile(filepath.Join(dir, FileName("fuzz")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	// The committed version 1 file, so the fuzzer explores both version
	// branches of the loader.
	v1, err := os.ReadFile(v1Fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add([]byte{})
	for _, cut := range []int{8, headerLen - 1, headerLen + 3, len(enc) / 2, len(enc) - footerLen, len(enc) - 1} {
		if cut >= 0 && cut < len(enc) {
			f.Add(enc[:cut])
		}
	}
	for _, off := range []int{0, 9, 17, 33, 57, headerLen, len(enc) / 2, len(enc) - 20, len(enc) - 4} {
		flipped := bytes.Clone(enc)
		flipped[off] ^= 0x40
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, p.N, p.Q)
		if err != nil {
			if s != nil {
				t.Fatal("Open returned both a segment and an error")
			}
			return
		}
		defer s.Close()
		m := s.meta
		if m.RingDegree != p.N || m.Modulus != p.Q {
			t.Fatalf("loaded segment violates geometry: %+v", m)
		}
		if m.Chunks < 1 || len(s.arena) != 2*m.Chunks*m.RingDegree {
			t.Fatalf("arena size %d inconsistent with %d chunks", len(s.arena), m.Chunks)
		}
		if len(m.Name) > MaxNameLen {
			t.Fatalf("loaded name of %d bytes", len(m.Name))
		}
		if _, err := s.DB(); err != nil {
			t.Fatalf("adopting a validated segment failed: %v", err)
		}
		// ReadMeta must agree with the full loader on anything Open
		// accepts.
		rm, err := ReadMeta(path)
		if err != nil || rm != m {
			t.Fatalf("ReadMeta disagrees with Open: %+v vs %+v (%v)", rm, m, err)
		}
	})
}
