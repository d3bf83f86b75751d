package mathutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTranspose32Identity(t *testing.T) {
	// A matrix with a single set bit (r, c) must transpose to (c, r).
	for r := 0; r < 32; r++ {
		for c := 0; c < 32; c++ {
			var a [32]uint32
			a[r] = 1 << uint(c)
			transpose32(&a)
			for i := 0; i < 32; i++ {
				want := uint32(0)
				if i == c {
					want = 1 << uint(r)
				}
				if a[i] != want {
					t.Fatalf("transpose32 bit (%d,%d): row %d = %#x, want %#x", r, c, i, a[i], want)
				}
			}
		}
	}
}

func TestTranspose32Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var a, orig [32]uint32
		for i := range a {
			a[i] = rng.Uint32()
		}
		orig = a
		transpose32(&a)
		transpose32(&a)
		if a != orig {
			t.Fatal("transpose32 applied twice is not the identity")
		}
	}
}

func TestBitPlanesRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 31, 32, 33, 64, 100, 1024, 1025} {
		coeffs := make([]uint32, n)
		for i := range coeffs {
			coeffs[i] = rng.Uint32()
		}
		planes := make([][]uint64, 32)
		for i := range planes {
			planes[i] = make([]uint64, WordsPerPlane(n))
		}
		TransposeToBitPlanes(coeffs, planes)
		got := make([]uint32, n)
		TransposeFromBitPlanes(planes, got)
		for i := range coeffs {
			if got[i] != coeffs[i] {
				t.Fatalf("n=%d: coeff %d roundtrip %#x != %#x", n, i, got[i], coeffs[i])
			}
		}
	}
}

func TestBitPlanesLayout(t *testing.T) {
	// Coefficient j with only bit i set must appear in plane i at bit j.
	n := 70
	coeffs := make([]uint32, n)
	coeffs[65] = 1 << 9
	planes := make([][]uint64, 32)
	for i := range planes {
		planes[i] = make([]uint64, WordsPerPlane(n))
	}
	TransposeToBitPlanes(coeffs, planes)
	for i := range planes {
		for w := range planes[i] {
			want := uint64(0)
			if i == 9 && w == 1 {
				want = 1 << 1 // coefficient 65 = word 1, bit 1
			}
			if planes[i][w] != want {
				t.Fatalf("plane %d word %d = %#x, want %#x", i, w, planes[i][w], want)
			}
		}
	}
}

func TestBitPlanesProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		planes := make([][]uint64, 32)
		for i := range planes {
			planes[i] = make([]uint64, WordsPerPlane(len(raw)))
		}
		TransposeToBitPlanes(raw, planes)
		got := make([]uint32, len(raw))
		TransposeFromBitPlanes(planes, got)
		for i := range raw {
			if got[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordsPerPlane(t *testing.T) {
	cases := map[int]int{1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 1024: 16}
	for n, want := range cases {
		if got := WordsPerPlane(n); got != want {
			t.Errorf("WordsPerPlane(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBitStream(t *testing.T) {
	s := []byte{0b10110000, 0b00000001}
	if GetBit(s, 0) != 1 || GetBit(s, 1) != 0 || GetBit(s, 2) != 1 || GetBit(s, 15) != 1 {
		t.Fatal("GetBit MSB-first convention broken")
	}
	SetBit(s, 1, 1)
	if s[0] != 0b11110000 {
		t.Fatalf("SetBit produced %#b", s[0])
	}
	SetBit(s, 0, 0)
	if s[0] != 0b01110000 {
		t.Fatalf("SetBit clear produced %#b", s[0])
	}
}

func TestSegment16(t *testing.T) {
	s := []byte{0xAB, 0xCD, 0xEF}
	if got := Segment16(s, 0); got != 0xABCD {
		t.Fatalf("Segment16(0) = %#x", got)
	}
	if got := Segment16(s, 4); got != 0xBCDE {
		t.Fatalf("Segment16(4) = %#x", got)
	}
	if got := Segment16(s, 8); got != 0xCDEF {
		t.Fatalf("Segment16(8) = %#x", got)
	}
	// Past-the-end bits read as zero.
	if got := Segment16(s, 16); got != 0xEF00 {
		t.Fatalf("Segment16(16) = %#x", got)
	}
	// Every offset, including ones running off the end, matches a
	// bit-by-bit read.
	r := rand.New(rand.NewSource(16))
	stream := make([]byte, 7)
	r.Read(stream)
	for off := 0; off < 8*len(stream)+8; off++ {
		var want uint16
		for i := 0; i < 16; i++ {
			want <<= 1
			if off+i < 8*len(stream) {
				want |= uint16(GetBit(stream, off+i))
			}
		}
		if got := Segment16(stream, off); got != want {
			t.Fatalf("Segment16(%d) = %#x, bitwise %#x", off, got, want)
		}
	}
}
