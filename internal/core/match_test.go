package core

import (
	"slices"
	"strings"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/rng"
)

// plantQuery copies the query bits into db at bit offset o.
func plantQuery(db []byte, query []byte, queryBits, o int) {
	for j := 0; j < queryBits; j++ {
		mathutil.SetBit(db, o+j, mathutil.GetBit(query, j))
	}
}

func intsEqual(a, b []int) bool {
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

// runSearch performs an end-to-end search in the requested mode and returns
// the candidate offsets.
func runSearch(t *testing.T, mode IndexMode, seed string, db []byte, dbBits int, query []byte, queryBits, align int) []int {
	t.Helper()
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: align, Mode: mode}
	client, err := NewClient(cfg, rng.NewSourceFromString(seed))
	if err != nil {
		t.Fatal(err)
	}
	edb, err := client.EncryptDatabase(db, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(cfg.Params, edb)
	q, err := client.PrepareQuery(query, queryBits, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	if mode == ModeSeededMatch {
		ir, err := server.SearchAndIndex(q)
		if err != nil {
			t.Fatal(err)
		}
		return ir.Candidates
	}
	sr, err := server.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	hits := client.ExtractHits(q, sr)
	return Candidates(hits, dbBits, queryBits, align)
}

func TestEndToEndSingleChunk(t *testing.T) {
	src := rng.NewSourceFromString("e2e-db")
	db := make([]byte, 64) // 512 bits, one toy chunk (1024 bits)
	src.Bytes(db)
	query := []byte{0xDE, 0xAD, 0xBE, 0xEF} // 32 bits
	plantQuery(db, query, 32, 0)
	plantQuery(db, query, 32, 128)
	plantQuery(db, query, 32, 264) // byte-aligned, not segment-aligned

	for _, mode := range []IndexMode{ModeClientDecrypt, ModeSeededMatch} {
		got := runSearch(t, mode, "e2e", db, 512, query, 32, 8)
		want := ExpectedCandidates(db, 512, query, 32, 8)
		if !intsEqual(got, want) {
			t.Fatalf("mode %v: candidates %v != expected %v", mode, got, want)
		}
		// All planted (detectable) occurrences must be present.
		for _, o := range []int{0, 128, 264} {
			found := false
			for _, c := range got {
				if c == o {
					found = true
				}
			}
			if !found {
				t.Fatalf("mode %v: planted occurrence at %d missing from %v", mode, o, got)
			}
		}
	}
}

func TestEndToEndMultiChunkSpanningBoundary(t *testing.T) {
	// Toy chunk = 64 segments = 1024 bits. Use 2304 bits (3 chunks with
	// padding) and plant an occurrence straddling the chunk boundary.
	src := rng.NewSourceFromString("e2e-multi")
	db := make([]byte, 288) // 2304 bits
	src.Bytes(db)
	query := []byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC} // 48 bits
	plantQuery(db, query, 48, 1000)                     // spans windows 63..65 (chunks 0 and 1)
	plantQuery(db, query, 48, 2048)

	for _, mode := range []IndexMode{ModeClientDecrypt, ModeSeededMatch} {
		got := runSearch(t, mode, "e2e-multi", db, 2304, query, 48, 8)
		want := ExpectedCandidates(db, 2304, query, 48, 8)
		if !intsEqual(got, want) {
			t.Fatalf("mode %v: candidates %v != expected %v", mode, got, want)
		}
		for _, o := range []int{1000, 2048} {
			found := false
			for _, c := range got {
				if c == o {
					found = true
				}
			}
			if !found {
				t.Fatalf("mode %v: boundary occurrence at %d missing from %v", mode, o, got)
			}
		}
	}
}

func TestSegmentAlignedCandidatesAreExact(t *testing.T) {
	// For 16-aligned offsets and 16|y, every full window covers the whole
	// occurrence, so candidates equal true occurrences exactly.
	src := rng.NewSourceFromString("exact")
	db := make([]byte, 128) // 1024 bits
	src.Bytes(db)
	query := []byte{0xCA, 0xFE, 0xBA, 0xBE}
	plantQuery(db, query, 32, 64)
	plantQuery(db, query, 32, 512)

	got := runSearch(t, ModeClientDecrypt, "exact", db, 1024, query, 32, 16)
	truth := FindOccurrences(db, 1024, query, 32, 16)
	if !intsEqual(got, truth) {
		t.Fatalf("segment-aligned candidates %v != true occurrences %v", got, truth)
	}
}

func TestBitAlignedSearch(t *testing.T) {
	// Bit-level alignment: y = 32 (>= 31, so every offset is detectable).
	src := rng.NewSourceFromString("bitalign")
	db := make([]byte, 40) // 320 bits
	src.Bytes(db)
	query := []byte{0xF0, 0x0D, 0xFA, 0xCE}
	plantQuery(db, query, 32, 13) // arbitrary bit offset

	got := runSearch(t, ModeClientDecrypt, "bitalign", db, 320, query, 32, 1)
	want := ExpectedCandidates(db, 320, query, 32, 1)
	if !intsEqual(got, want) {
		t.Fatalf("candidates %v != expected %v", got, want)
	}
	found := false
	for _, c := range got {
		if c == 13 {
			found = true
		}
	}
	if !found {
		t.Fatalf("bit-offset occurrence at 13 missing from %v", got)
	}
}

func TestShortQueryUndetectableOffsets(t *testing.T) {
	// A 16-bit query at a non-segment-aligned offset has no full window
	// and must be (silently) undetectable — the documented limitation.
	db := make([]byte, 16)
	query := []byte{0x55, 0x66}
	plantQuery(db, query, 16, 4)

	got := runSearch(t, ModeClientDecrypt, "short", db, 128, query, 16, 1)
	for _, c := range got {
		if c == 4 {
			t.Fatal("offset 4 of a 16-bit query should be undetectable")
		}
	}
	if !Detectable(0, 16) || Detectable(4, 16) {
		t.Fatal("Detectable disagrees with the window model")
	}
}

func TestVerifyCandidatesFiltersFalsePositives(t *testing.T) {
	src := rng.NewSourceFromString("verify")
	db := make([]byte, 64)
	src.Bytes(db)
	query := []byte{0xAA, 0xBB, 0xCC}
	plantQuery(db, query, 24, 40)

	cands := runSearch(t, ModeClientDecrypt, "verify", db, 512, query, 24, 8)
	verified := VerifyCandidates(db, 512, query, 24, cands)
	truth := FindOccurrences(db, 512, query, 24, 8)
	// Every verified candidate is a true occurrence, and every detectable
	// true occurrence survives verification.
	for _, v := range verified {
		found := false
		for _, o := range truth {
			if o == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("verified candidate %d is not a true occurrence", v)
		}
	}
	for _, o := range truth {
		if !Detectable(o, 24) {
			continue
		}
		found := false
		for _, v := range verified {
			if v == o {
				found = true
			}
		}
		if !found {
			t.Fatalf("detectable occurrence %d lost in verification", o)
		}
	}
}

func TestSeededMatchAgreesWithClientDecrypt(t *testing.T) {
	src := rng.NewSourceFromString("agree-db")
	db := make([]byte, 96)
	src.Bytes(db)
	query := []byte{0x0F, 0xF0, 0x55}
	plantQuery(db, query, 24, 16)
	plantQuery(db, query, 24, 400)

	a := runSearch(t, ModeClientDecrypt, "agree", db, 768, query, 24, 8)
	b := runSearch(t, ModeSeededMatch, "agree", db, 768, query, 24, 8)
	if !intsEqual(a, b) {
		t.Fatalf("ClientDecrypt %v != SeededMatch %v", a, b)
	}
}

func TestDatabaseEncryptionDeterministicFromSeed(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy()}
	db := make([]byte, 32)
	rng.NewSourceFromString("d").Bytes(db)
	c1, _ := NewClient(cfg, rng.NewSourceFromString("same-seed"))
	c2, _ := NewClient(cfg, rng.NewSourceFromString("same-seed"))
	e1, _ := c1.EncryptDatabase(db, 256)
	e2, _ := c2.EncryptDatabase(db, 256)
	for j := range e1.Chunks {
		for k := range e1.Chunks[j].C {
			if !slices.Equal(e1.Chunks[j].C[k], e2.Chunks[j].C[k]) {
				t.Fatal("seeded database encryption is not deterministic")
			}
		}
	}
}

func TestQueryValidation(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy()}
	client, _ := NewClient(cfg, rng.NewSourceFromString("qv"))
	if _, err := client.PrepareQuery([]byte{0xFF}, 0, 128); err == nil {
		t.Error("accepted zero-length query")
	}
	if _, err := client.PrepareQuery([]byte{0xFF}, 9, 128); err == nil {
		t.Error("accepted queryBits beyond the query slice")
	}

	db := make([]byte, 16)
	edb, _ := client.EncryptDatabase(db, 128)
	server := NewServer(cfg.Params, edb)
	q, _ := client.PrepareQuery([]byte{0xFF, 0x00}, 16, 256) // wrong db size
	if _, err := server.Search(q); err == nil {
		t.Error("server accepted query for mismatched database size")
	}
	q2, _ := client.PrepareQuery([]byte{0xFF, 0x00}, 16, 128)
	if _, err := server.SearchAndIndex(q2); err == nil {
		t.Error("SearchAndIndex accepted query without tokens")
	}

	seeded, _ := NewClient(Config{Params: cfg.Params, Mode: ModeSeededMatch}, rng.NewSourceFromString("qv"))
	q3, _ := seeded.PrepareQuery([]byte{0xFF, 0x00}, 16, 128)
	if _, err := server.Search(q3); err == nil || !strings.Contains(err.Error(), "SearchAndIndex") {
		t.Errorf("Search on a seeded query: error %v, want one naming SearchAndIndex", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := Config{Params: bfv.ParamsToyMul()} // 8-bit packing width
	if _, err := NewClient(bad, rng.NewSourceFromString("x")); err == nil {
		t.Error("accepted non-16-bit packing width")
	}
	bad2 := Config{Params: bfv.ParamsToy(), AlignBits: -1}
	if _, err := NewClient(bad2, rng.NewSourceFromString("x")); err == nil {
		t.Error("accepted negative AlignBits")
	}
}

func TestSearchStats(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 16, Mode: ModeSeededMatch}
	client, _ := NewClient(cfg, rng.NewSourceFromString("stats"))
	db := make([]byte, 256) // 2048 bits = 2 toy chunks
	edb, _ := client.EncryptDatabase(db, 2048)
	server := NewServer(cfg.Params, edb)
	q, _ := client.PrepareQuery([]byte{0xAB, 0xCD}, 16, 2048)
	ir, err := server.SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}
	// 16-bit query, 16-bit alignment: one variant; 2 chunks -> 2 adds.
	if len(q.Residues) != 1 {
		t.Fatalf("residues = %v, want one", q.Residues)
	}
	if ir.Stats.HomAdds != 2 {
		t.Fatalf("HomAdds = %d, want 2", ir.Stats.HomAdds)
	}
	if ir.Stats.CoeffCompares != int64(2*cfg.Params.N) {
		t.Fatalf("CoeffCompares = %d", ir.Stats.CoeffCompares)
	}
}

func TestPropertyHEMatchesPlainReference(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in short mode")
	}
	seeds := []string{"p1", "p2", "p3", "p4"}
	for _, seed := range seeds {
		src := rng.NewSourceFromString("gen-" + seed)
		dbBytes := 32 + src.Intn(64)
		db := make([]byte, dbBytes)
		src.Bytes(db)
		qBytes := 2 + src.Intn(4)
		query := make([]byte, qBytes)
		src.Bytes(query)
		yBits := qBytes*8 - src.Intn(8)
		align := []int{1, 2, 8, 16}[src.Intn(4)]
		// Plant one occurrence at a random aligned, detectable offset.
		maxO := dbBytes*8 - yBits
		if maxO > 0 {
			o := (src.Intn(maxO) / align) * align
			plantQuery(db, query, yBits, o)
		}
		got := runSearch(t, ModeClientDecrypt, seed, db, dbBytes*8, query, yBits, align)
		want := ExpectedCandidates(db, dbBytes*8, query, yBits, align)
		if !intsEqual(got, want) {
			t.Fatalf("seed %s (db=%dB y=%d align=%d): HE candidates %v != plain %v",
				seed, dbBytes, yBits, align, got, want)
		}
	}
}
