package core

import (
	"slices"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/rng"
)

func TestYasudaHammingDistanceExact(t *testing.T) {
	p := bfv.ParamsToyMul() // n=64, t=2^8
	src := rng.NewSourceFromString("yasuda-hd")
	m, err := NewYasudaMatcher(p, 16, src)
	if err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 8) // 64 bits: exactly one chunk
	src.Bytes(db)
	query := []byte{0xB7, 0x21}
	edb, err := m.EncryptDatabase(db, 64, src.Fork("db"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.PrepareQuery(query, 16, src.Fork("q"))
	if err != nil {
		t.Fatal(err)
	}
	hds, stats, err := m.HammingDistances(edb, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HomMuls != 2*len(edb.Chunks) || stats.HomAdds != 3*len(edb.Chunks) {
		t.Fatalf("op counts: %+v, want 2 muls + 3 adds per chunk", stats)
	}
	pt := m.decryptorForTest().Decrypt(hds[0])
	for k := 0; k+16 <= 64; k++ {
		want := uint64(0)
		for j := 0; j < 16; j++ {
			dbBit := uint64(db[(k+j)/8] >> (7 - uint((k+j)%8)) & 1)
			qBit := uint64(query[j/8] >> (7 - uint(j%8)) & 1)
			want += dbBit ^ qBit
		}
		if pt.Coeffs[k] != want {
			t.Fatalf("HD at window %d: got %d, want %d", k, pt.Coeffs[k], want)
		}
	}
}

// decryptorForTest exposes the decryptor to whitebox tests.
func (m *YasudaMatcher) decryptorForTest() *bfv.Decryptor { return m.decryptor }

func TestYasudaSearchFindsPlantedOccurrences(t *testing.T) {
	p := bfv.ParamsToyMul()
	src := rng.NewSourceFromString("yasuda-search")
	m, err := NewYasudaMatcher(p, 16, src)
	if err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 24) // 192 bits: multiple overlapping chunks (n=64)
	src.Bytes(db)
	query := []byte{0x5A, 0xC3}
	plantQuery(db, query, 16, 3) // arbitrary bit offset: Yasuda is exact
	plantQuery(db, query, 16, 100)

	edb, err := m.EncryptDatabase(db, 192, src.Fork("db"))
	if err != nil {
		t.Fatal(err)
	}
	if len(edb.Chunks) < 3 {
		t.Fatalf("expected overlapping chunks, got %d", len(edb.Chunks))
	}
	q, err := m.PrepareQuery(query, 16, src.Fork("q"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := m.Search(edb, q)
	if err != nil {
		t.Fatal(err)
	}
	want := FindOccurrences(db, 192, query, 16, 1)
	if !slices.Equal(got, want) {
		t.Fatalf("Yasuda search %v != ground truth %v", got, want)
	}
}

func TestYasudaQuerySizeLimit(t *testing.T) {
	// Table 1: the arithmetic approach supports only bounded query sizes.
	p := bfv.ParamsToyMul()
	src := rng.NewSourceFromString("yasuda-limit")
	m, err := NewYasudaMatcher(p, 16, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PrepareQuery(make([]byte, 4), 32, src); err == nil {
		t.Error("accepted query beyond maxQueryBits")
	}
	// Hamming distances must fit the plaintext modulus.
	if _, err := NewYasudaMatcher(p, 200, src); err == nil {
		t.Error("accepted maxQueryBits with HD overflow risk (2*200 > t=256)")
	}
}

func TestBooleanMatcherXNORAndTree(t *testing.T) {
	p := bfv.ParamsBoolean()
	src := rng.NewSourceFromString("bool-gates")
	m, err := NewBooleanMatcher(p, src)
	if err != nil {
		t.Fatal(err)
	}
	db := []byte{0xA5, 0x3C} // 16 bits
	query := []byte{0xA5}    // 8 bits
	dbCT, err := m.EncryptBits(db, 16, src.Fork("db"))
	if err != nil {
		t.Fatal(err)
	}
	qCT, err := m.EncryptBits(query, 8, src.Fork("q"))
	if err != nil {
		t.Fatal(err)
	}
	var stats BooleanStats
	hit, err := m.MatchAt(dbCT, qCT, 0, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.decryptor.Decrypt(hit).Coeffs[0]; got != 1 {
		t.Fatalf("match at 0: got %d, want 1", got)
	}
	miss, err := m.MatchAt(dbCT, qCT, 4, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.decryptor.Decrypt(miss).Coeffs[0]; got != 0 {
		t.Fatalf("match at 4: got %d, want 0", got)
	}
	// 8-bit window: 8 XNORs + 7 ANDs per position.
	if stats.XNORGates != 16 || stats.ANDGates != 14 {
		t.Fatalf("gate counts %+v, want 16 XNOR / 14 AND for two positions", stats)
	}
}

func TestBooleanSearchMatchesGroundTruth(t *testing.T) {
	p := bfv.ParamsBoolean()
	src := rng.NewSourceFromString("bool-search")
	m, err := NewBooleanMatcher(p, src)
	if err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 5) // 40 bits
	src.Bytes(db)
	query := []byte{0xE7}
	plantQuery(db, query, 8, 16)
	dbCT, err := m.EncryptBits(db, 40, src.Fork("db"))
	if err != nil {
		t.Fatal(err)
	}
	qCT, err := m.EncryptBits(query, 8, src.Fork("q"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := m.Search(dbCT, qCT, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := FindOccurrences(db, 40, query, 8, 8)
	if !slices.Equal(got, want) {
		t.Fatalf("Boolean search %v != ground truth %v", got, want)
	}
}

func TestBooleanMatcherRequiresT2(t *testing.T) {
	if _, err := NewBooleanMatcher(bfv.ParamsToy(), rng.NewSourceFromString("x")); err == nil {
		t.Error("accepted t != 2")
	}
}

func TestBoolean16BitDepth(t *testing.T) {
	// Depth-4 AND tree (16-bit query) must stay within noise budget.
	p := bfv.ParamsBoolean()
	src := rng.NewSourceFromString("bool-depth")
	m, err := NewBooleanMatcher(p, src)
	if err != nil {
		t.Fatal(err)
	}
	db := []byte{0x13, 0x37, 0x00}
	query := []byte{0x13, 0x37}
	dbCT, _ := m.EncryptBits(db, 24, src.Fork("db"))
	qCT, _ := m.EncryptBits(query, 16, src.Fork("q"))
	var stats BooleanStats
	hit, err := m.MatchAt(dbCT, qCT, 0, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.decryptor.Decrypt(hit).Coeffs[0]; got != 1 {
		t.Fatalf("16-bit match: got %d, want 1 (noise budget exhausted?)", got)
	}
}
