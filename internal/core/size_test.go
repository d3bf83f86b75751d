package core

import (
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/rng"
)

// TestQuerySizeAccounting pins down the communication-volume arithmetic:
// client-decrypt queries ship one ciphertext per pattern phase;
// seeded-match queries ship the factored tokens only — one polynomial
// per chunk (DBTok) plus one per phase (RHS), pattern ciphertexts
// staying home.
func TestQuerySizeAccounting(t *testing.T) {
	p := bfv.ParamsToy()
	dbBits := 2048 // 2 toy chunks
	polyBytes := int64(p.N * p.QBytes())

	plain := Config{Params: p, AlignBits: 16, Mode: ModeClientDecrypt}
	c1, _ := NewClient(plain, rng.NewSourceFromString("size"))
	q1, err := c1.PrepareQuery([]byte{0xAA, 0xBB}, 16, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	wantPatterns := int64(len(q1.Patterns)) * int64(p.CiphertextBytes())
	if got := q1.SizeBytes(p); got != wantPatterns {
		t.Fatalf("ClientDecrypt query size = %d, want %d", got, wantPatterns)
	}

	seeded := Config{Params: p, AlignBits: 16, Mode: ModeSeededMatch}
	c2, _ := NewClient(seeded, rng.NewSourceFromString("size"))
	q2, err := c2.PrepareQuery([]byte{0xAA, 0xBB}, 16, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	wantFactored := int64(len(q2.DBTok)+len(q2.RHS)) * polyBytes
	if got := q2.SizeBytes(p); got != wantFactored {
		t.Fatalf("SeededMatch query size = %d, want %d", got, wantFactored)
	}
}

// TestEncryptedDBSize pins the 4x-per-full-chunk footprint at the API
// level.
func TestEncryptedDBSize(t *testing.T) {
	p := bfv.ParamsToy()
	client, _ := NewClient(Config{Params: p}, rng.NewSourceFromString("dbsize"))
	data := make([]byte, p.N*16/8) // exactly one chunk of packed bits
	db, err := client.EncryptDatabase(data, len(data)*8)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Chunks) != 1 {
		t.Fatalf("chunks = %d, want 1", len(db.Chunks))
	}
	if got, want := db.SizeBytes(p), int64(p.CiphertextBytes()); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
	if ratio := float64(db.SizeBytes(p)) / float64(len(data)); ratio != 4.0 {
		t.Fatalf("expansion = %v, want 4 (§4.2.1)", ratio)
	}
}
