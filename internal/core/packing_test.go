package core

import (
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/rng"
)

func TestPackSegmentsBasic(t *testing.T) {
	data := []byte{0xAB, 0xCD, 0xEF, 0x01}
	segs := PackSegments(data, 32)
	if len(segs) != 2 || segs[0] != 0xABCD || segs[1] != 0xEF01 {
		t.Fatalf("PackSegments = %#v", segs)
	}
}

func TestPackSegmentsTailMasking(t *testing.T) {
	// 20 bits: the final segment must zero-pad below bit 4, even when the
	// storage bytes contain garbage there.
	data := []byte{0xAB, 0xCD, 0xFF}
	segs := PackSegments(data, 20)
	if len(segs) != 2 {
		t.Fatalf("expected 2 segments, got %d", len(segs))
	}
	if segs[0] != 0xABCD {
		t.Fatalf("segs[0] = %#x", segs[0])
	}
	if segs[1] != 0xF000 {
		t.Fatalf("segs[1] = %#x, want 0xF000", segs[1])
	}
}

func TestPackSegmentsEmpty(t *testing.T) {
	if segs := PackSegments(nil, 0); len(segs) != 0 {
		t.Fatalf("PackSegments(nil) = %v", segs)
	}
}

func TestChunkPlaintexts(t *testing.T) {
	p := bfv.ParamsToy() // n = 64
	segs := make([]uint16, 100)
	for i := range segs {
		segs[i] = uint16(i + 1)
	}
	pts, err := ChunkPlaintexts(segs, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("expected 2 chunks, got %d", len(pts))
	}
	if pts[0].Coeffs[0] != 1 || pts[0].Coeffs[63] != 64 {
		t.Fatal("chunk 0 contents wrong")
	}
	if pts[1].Coeffs[0] != 65 || pts[1].Coeffs[35] != 100 {
		t.Fatal("chunk 1 contents wrong")
	}
	for i := 36; i < 64; i++ {
		if pts[1].Coeffs[i] != 0 {
			t.Fatal("chunk padding not zero")
		}
	}
	// Empty input still yields one (zero) chunk.
	pts, err = ChunkPlaintexts(nil, p)
	if err != nil || len(pts) != 1 {
		t.Fatalf("empty input: %v, %d chunks", err, len(pts))
	}
}

// TestFootprintRatios measures the encrypted databases the three packings
// actually build, for exactly one CIPHERMATCH ciphertext worth of data:
// the ratios hit the paper's lower bounds of §4.2.1 (4× for CIPHERMATCH,
// 64× for Yasuda's single-bit packing) and the Boolean blow-up of §3.1.
func TestFootprintRatios(t *testing.T) {
	p := bfv.ParamsPaper()
	data := make([]byte, p.N*16/8)
	bits := len(data) * 8
	src := rng.NewSourceFromString("footprint")

	client, err := NewClient(Config{Params: p}, src.Fork("cm"))
	if err != nil {
		t.Fatal(err)
	}
	cm, err := client.EncryptDatabase(data, bits)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(cm.SizeBytes(p)) / float64(len(data)); got != 4.0 {
		t.Errorf("CIPHERMATCH expansion = %v, want 4", got)
	}

	ym, err := NewYasudaMatcher(p, 1, src.Fork("yasuda"))
	if err != nil {
		t.Fatal(err)
	}
	ydb, err := ym.EncryptDatabase(data, bits, src.Fork("ydb"))
	if err != nil {
		t.Fatal(err)
	}
	var yBytes int64
	for _, ct := range ydb.Chunks {
		yBytes += int64(ct.SizeBytes(p))
	}
	if got := float64(yBytes) / float64(len(data)); got != 64.0 {
		t.Errorf("Yasuda expansion = %v, want 64", got)
	}

	// Boolean packing spends one ciphertext per bit; one byte suffices.
	bp := bfv.ParamsBoolean()
	bm, err := NewBooleanMatcher(bp, src.Fork("bool"))
	if err != nil {
		t.Fatal(err)
	}
	cts, err := bm.EncryptBits(data[:1], 8, src.Fork("bits"))
	if err != nil {
		t.Fatal(err)
	}
	var boolBytes int64
	for _, ct := range cts {
		boolBytes += int64(ct.SizeBytes(bp))
	}
	if got := float64(boolBytes); got <= 200 {
		t.Errorf("Boolean expansion = %v, want > 200 (paper §3.1)", got)
	}
}

func TestFullWindowsAndDetectable(t *testing.T) {
	cases := []struct {
		o, y   int
		w0, w1 int
	}{
		{0, 16, 0, 1},
		{0, 32, 0, 2},
		{16, 16, 1, 2},
		{1, 16, 1, 1},  // undetectable: no full window
		{1, 32, 1, 2},  // one full window
		{15, 31, 1, 2}, // worst-case offset, 31 bits: exactly one window
		{17, 30, 2, 2}, // 30 bits can be undetectable
	}
	for _, c := range cases {
		w0, w1 := FullWindows(c.o, c.y)
		if w0 != c.w0 || w1 != c.w1 {
			t.Errorf("FullWindows(%d,%d) = (%d,%d), want (%d,%d)", c.o, c.y, w0, w1, c.w0, c.w1)
		}
		if got := Detectable(c.o, c.y); got != (c.w1 > c.w0) {
			t.Errorf("Detectable(%d,%d) = %v", c.o, c.y, got)
		}
	}
	// y >= 31 is detectable at every offset.
	for o := 0; o < 64; o++ {
		if !Detectable(o, 31) {
			t.Errorf("31-bit query undetectable at offset %d", o)
		}
	}
}

func TestFindOccurrences(t *testing.T) {
	db := []byte{0xAA, 0xBB, 0xAA, 0xBB}
	q := []byte{0xAA, 0xBB}
	got := FindOccurrences(db, 32, q, 16, 8)
	want := []int{0, 16}
	if len(got) != len(want) {
		t.Fatalf("occurrences = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrences = %v, want %v", got, want)
		}
	}
	// Bit-aligned search finds the self-overlapping occurrence at 8 too?
	// db bits: AA BB AA BB; at offset 8 the 16 bits are 0xBBAA != q.
	got = FindOccurrences(db, 32, q, 16, 1)
	if len(got) != 2 {
		t.Fatalf("bit-aligned occurrences = %v", got)
	}
}
