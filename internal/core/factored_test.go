package core

import (
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/rng"
)

// factoredFixture builds a client in seeded-match mode, an encrypted
// multi-chunk database with planted occurrences, and a query for the
// planted pattern.
func factoredFixture(t *testing.T) (Config, *EncryptedDB, *Query) {
	t.Helper()
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, rng.NewSourceFromString("factored"))
	if err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 384) // 3 chunks at toy n=64
	rng.NewSourceFromString("factored-data").Bytes(db)
	query := []byte{0xAB, 0xCD, 0xEF}
	plantQuery(db, query, 24, 48)
	plantQuery(db, query, 24, 1016) // spans the chunk-0/chunk-1 boundary
	plantQuery(db, query, 24, 2000)
	edb, err := client.EncryptDatabase(db, 3072)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(query, 24, 3072)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, edb, q
}

// TestSearchSingleArenaPass pins the acceptance invariant of the
// residue-fused kernel: one search streams each chunk exactly once —
// Stats.ChunkStreams == NumChunks — even though the query has multiple
// shift variants.
func TestSearchSingleArenaPass(t *testing.T) {
	cfg, edb, q := factoredFixture(t)
	if len(q.Residues) < 2 {
		t.Fatalf("fixture has %d residues; need >1 for the invariant to bite", len(q.Residues))
	}
	eng := NewSerialEngine(cfg.Params, edb)
	ir, err := eng.SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ir.Candidates) == 0 {
		t.Fatal("fixture found nothing")
	}
	if want := int64(len(edb.Chunks)); ir.Stats.ChunkStreams != want {
		t.Fatalf("ChunkStreams = %d, want %d (one arena pass)", ir.Stats.ChunkStreams, want)
	}
	if ir.Stats.HomAdds != len(edb.Chunks) {
		t.Fatalf("HomAdds = %d, want %d (one ring op per chunk)", ir.Stats.HomAdds, len(edb.Chunks))
	}
	// CoeffCompares still covers every residue: fusing the passes
	// does not skip comparisons.
	if want := int64(len(q.Residues)) * int64(len(edb.Chunks)) * int64(cfg.Params.N); ir.Stats.CoeffCompares != want {
		t.Fatalf("CoeffCompares = %d, want %d", ir.Stats.CoeffCompares, want)
	}
}

// TestBatchSharedPlaneSingleArenaPass: batch members prepared by the
// same client share one DBTok plane after dedup, so the whole batch
// costs one arena pass — ChunkStreams across members == NumChunks.
func TestBatchSharedPlaneSingleArenaPass(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, rng.NewSourceFromString("batch-pass"))
	if err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 256) // 2 chunks
	rng.NewSourceFromString("batch-pass-data").Bytes(db)
	edb, err := client.EncryptDatabase(db, 2048)
	if err != nil {
		t.Fatal(err)
	}
	prepare := func(pat []byte) *Query {
		q, err := client.PrepareQuery(pat, len(pat)*8, 2048)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	bq := NewBatchQuery(
		prepare([]byte{0xAB, 0xCD, 0xEF}),
		prepare([]byte{0x01, 0x02, 0x03, 0x04}),
		prepare([]byte{0xAB, 0xCD, 0xEF}), // duplicate content
	)
	// Dedup must collapse the three members' DBTok planes to one.
	for mi := 1; mi < 3; mi++ {
		if &bq.Queries[mi].DBTok[0][0] != &bq.Queries[0].DBTok[0][0] {
			t.Fatalf("member %d DBTok not deduplicated", mi)
		}
	}
	eng := NewSerialEngine(cfg.Params, edb)
	irs, err := eng.SearchAndIndexBatch(bq)
	if err != nil {
		t.Fatal(err)
	}
	var streams int64
	for _, ir := range irs {
		streams += ir.Stats.ChunkStreams
	}
	if want := int64(len(edb.Chunks)); streams != want {
		t.Fatalf("batch ChunkStreams = %d, want %d (one arena pass for the whole batch)", streams, want)
	}
}

// TestEncryptC0CallCounts pins the client-side token derivation cost:
// PrepareQuery runs EncryptC0 once per chunk plus once per phase — NOT
// once per (residue, chunk).
func TestEncryptC0CallCounts(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, rng.NewSourceFromString("c0-count"))
	if err != nil {
		t.Fatal(err)
	}
	dbBits := 3 * cfg.Params.N * SegmentBits // 3 chunks
	start := encryptC0Calls.Load()
	q, err := client.PrepareQuery([]byte{0xDE, 0xAD, 0xBE}, 24, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	got := encryptC0Calls.Load() - start
	chunks, phases, residues := int64(q.NumChunks), int64(len(q.RHS)), int64(len(q.Residues))
	if want := chunks + phases; got != want {
		t.Fatalf("PrepareQuery ran EncryptC0 %d times, want chunks+phases = %d", got, want)
	}
	if perResidue := residues*chunks + phases; got >= perResidue {
		t.Fatalf("token builder (%d calls) does not beat the per-residue derivation (%d)", got, perResidue)
	}
}
