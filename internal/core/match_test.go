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

// runSearch performs an end-to-end client-decrypt search and returns
// the candidate offsets.
func runSearch(t *testing.T, seed string, db []byte, dbBits int, query []byte, queryBits, align int) []int {
	t.Helper()
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: align, Mode: ModeClientDecrypt}
	client, err := NewClient(cfg, rng.NewSourceFromString(seed))
	if err != nil {
		t.Fatal(err)
	}
	edb, err := client.EncryptDatabase(db, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(query, queryBits, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewServer(cfg.Params, edb).Search(q)
	if err != nil {
		t.Fatal(err)
	}
	return Candidates(client.ExtractHits(q, sr), dbBits, queryBits, align)
}

func TestShortQueryUndetectableOffsets(t *testing.T) {
	// A 16-bit query at a non-segment-aligned offset has no full window
	// and must be (silently) undetectable — the documented limitation.
	db := make([]byte, 16)
	query := []byte{0x55, 0x66}
	plantQuery(db, query, 16, 4)

	if got := runSearch(t, "short", db, 128, query, 16, 1); slices.Contains(got, 4) {
		t.Fatal("offset 4 of a 16-bit query should be undetectable")
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

	cands := runSearch(t, "verify", db, 512, query, 24, 8)
	verified := VerifyCandidates(db, 512, query, 24, cands)
	truth := FindOccurrences(db, 512, query, 24, 8)
	// Every verified candidate is a true occurrence, and every detectable
	// true occurrence survives verification.
	for _, v := range verified {
		if !slices.Contains(truth, v) {
			t.Fatalf("verified candidate %d is not a true occurrence", v)
		}
	}
	for _, o := range truth {
		if Detectable(o, 24) && !slices.Contains(verified, o) {
			t.Fatalf("detectable occurrence %d lost in verification", o)
		}
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
