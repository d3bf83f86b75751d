package workload

import (
	"bytes"
	"testing"

	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/rng"
)

// DecodeBases unpacks a 2-bit stream back to ASCII bases.
func DecodeBases(packed []byte, numBases int) []byte {
	out := make([]byte, numBases)
	for i := range out {
		shift := uint(6 - 2*(i%4))
		code := (packed[i/4] >> shift) & 3
		out[i] = Bases[code]
	}
	return out
}

func TestEncodeDecodeBases(t *testing.T) {
	bases := []byte("ACGTACGTTGCA")
	packed, bits, err := EncodeBases(bases)
	if err != nil {
		t.Fatal(err)
	}
	if bits != 24 {
		t.Fatalf("bits = %d, want 24", bits)
	}
	if got := DecodeBases(packed, len(bases)); !bytes.Equal(got, bases) {
		t.Fatalf("roundtrip %q != %q", got, bases)
	}
	// Spot-check the 2-bit MSB-first layout: "ACGT" = 00 01 10 11 = 0x1B.
	first4, _, _ := EncodeBases([]byte("ACGT"))
	if first4[0] != 0x1B {
		t.Fatalf("ACGT packs to %#x, want 0x1B", first4[0])
	}
}

func TestEncodeBasesLowercaseAndInvalid(t *testing.T) {
	if _, _, err := EncodeBases([]byte("acgt")); err != nil {
		t.Errorf("lowercase bases rejected: %v", err)
	}
	if _, _, err := EncodeBases([]byte("ACGN")); err == nil {
		t.Error("invalid base accepted")
	}
}

func TestRandomGenomeAndReads(t *testing.T) {
	src := rng.NewSourceFromString("genome")
	g := RandomGenome(1000, src)
	if len(g) != 1000 {
		t.Fatal("genome length")
	}
	for _, b := range g {
		if !bytes.ContainsRune([]byte(Bases), rune(b)) {
			t.Fatalf("invalid base %q", b)
		}
	}
	read, err := ExtractRead(g, 100, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read, g[100:132]) {
		t.Fatal("read extraction wrong")
	}
	if _, err := ExtractRead(g, 990, 32); err == nil {
		t.Error("out-of-range read accepted")
	}
}

func TestEncodedReadAppearsInEncodedGenome(t *testing.T) {
	// The bit stream of a read planted at base position p must equal the
	// genome bit stream at bit offset 2p — the property the DNA search
	// example relies on.
	src := rng.NewSourceFromString("align")
	g := RandomGenome(200, src)
	read, _ := ExtractRead(g, 53, 16)
	gBits, gLen, _ := EncodeBases(g)
	rBits, rLen, _ := EncodeBases(read)
	_ = gLen
	for j := 0; j < rLen; j++ {
		if mathutil.GetBit(gBits, 2*53+j) != mathutil.GetBit(rBits, j) {
			t.Fatalf("bit %d of read disagrees with genome", j)
		}
	}
}

func TestRecordsFlattenAndQuery(t *testing.T) {
	layout := RecordLayout{KeyBytes: 8, ValueBytes: 24}
	src := rng.NewSourceFromString("records")
	recs := RandomRecords(10, layout, src)
	if len(recs) != 10 {
		t.Fatal("record count")
	}
	flat, err := Flatten(recs, layout)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != 10*32 {
		t.Fatalf("flat length = %d", len(flat))
	}
	// Record 3's key sits at byte 96.
	if string(flat[96:96+len(recs[3].Key)]) != recs[3].Key {
		t.Fatal("key placement wrong")
	}
	q, bits, err := KeyQuery(recs[3].Key, layout)
	if err != nil {
		t.Fatal(err)
	}
	if bits != 64 || len(q) != 8 {
		t.Fatalf("query shape: %d bits, %d bytes", bits, len(q))
	}
	idx, boundary := RecordIndex(96*8, layout)
	if idx != 3 || !boundary {
		t.Fatalf("RecordIndex = (%d, %v)", idx, boundary)
	}
	idx, boundary = RecordIndex(96*8+8, layout)
	if idx != 3 || boundary {
		t.Fatalf("mid-record RecordIndex = (%d, %v)", idx, boundary)
	}
}

func TestFlattenValidation(t *testing.T) {
	layout := RecordLayout{KeyBytes: 4, ValueBytes: 4}
	if _, err := Flatten([]Record{{Key: "toolongkey"}}, layout); err == nil {
		t.Error("oversized key accepted")
	}
	if _, err := Flatten([]Record{{Key: "k", Value: "waytoolongvalue"}}, layout); err == nil {
		t.Error("oversized value accepted")
	}
	if _, _, err := KeyQuery("toolongkey", layout); err == nil {
		t.Error("oversized query key accepted")
	}
}
