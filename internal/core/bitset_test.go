package core

import (
	"math/bits"
	"testing"

	"ciphermatch/internal/rng"
)

func randomBitset(t *testing.T, src *rng.Source, n int) (*Bitset, []bool) {
	t.Helper()
	b := NewBitset(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if src.Uniform(3) == 0 {
			b.Set(i)
			ref[i] = true
		}
	}
	return b, ref
}

// onesCount is the bitset tests' popcount oracle over the packed words.
func onesCount(b *Bitset) int {
	total := 0
	for _, w := range b.Words() {
		total += bits.OnesCount64(w)
	}
	return total
}

func TestBitsetSetGetCount(t *testing.T) {
	src := rng.NewSourceFromString("bitset")
	for _, n := range []int{1, 63, 64, 65, 128, 1000, 4096} {
		b, ref := randomBitset(t, src, n)
		ones := 0
		for i, want := range ref {
			if b.Get(i) != want {
				t.Fatalf("n=%d bit %d: got %v, want %v", n, i, b.Get(i), want)
			}
			if want {
				ones++
			}
		}
		if got := onesCount(b); got != ones {
			t.Fatalf("n=%d: %d bits set in the words, want %d", n, got, ones)
		}
		if b.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, b.Len())
		}
	}
}

func TestBitsetAllSet(t *testing.T) {
	src := rng.NewSourceFromString("bitset-allset")
	for trial := 0; trial < 200; trial++ {
		n := 1 + int(src.Uniform(300))
		b, ref := randomBitset(t, src, n)
		lo := int(src.Uniform(uint64(n + 1)))
		hi := lo + int(src.Uniform(uint64(n-lo+1)))
		want := true
		for w := lo; w < hi; w++ {
			if !ref[w] {
				want = false
				break
			}
		}
		if got := b.AllSet(lo, hi); got != want {
			t.Fatalf("n=%d AllSet(%d,%d)=%v, want %v", n, lo, hi, got, want)
		}
	}
	b := NewBitset(64)
	if b.AllSet(0, 65) {
		t.Fatal("AllSet accepted out-of-range hi")
	}
	if b.AllSet(-1, 4) {
		t.Fatal("AllSet accepted negative lo")
	}
	if !b.AllSet(5, 5) {
		t.Fatal("AllSet on empty range should be vacuous")
	}
}

// TestBitsetPoolReuse checks that a released bitset comes back zeroed
// regardless of its previous contents.
func TestBitsetPoolReuse(t *testing.T) {
	b := NewBitset(256)
	for i := 0; i < 256; i++ {
		b.Set(i)
	}
	b.Release()
	for trial := 0; trial < 10; trial++ {
		c := NewBitset(128)
		if onesCount(c) != 0 {
			t.Fatal("pooled bitset not zeroed")
		}
		c.Release()
	}
}

// TestCandidatesEmptyFastPath pins the early exit: all-empty bitmaps
// must produce no candidates without scanning, and a single planted
// window run must still be found.
func TestCandidatesEmptyFastPath(t *testing.T) {
	hits := HitBitmaps{0: NewBitset(64), 8: NewBitset(64)}
	if got := Candidates(hits.Sparse(), 1024, 32, 8); got != nil {
		t.Fatalf("empty bitmaps produced candidates %v", got)
	}
	// Windows 2,3 set for residue 0: offset 32 has full windows [2,4).
	hits[0].Set(2)
	hits[0].Set(3)
	got := Candidates(hits.Sparse(), 1024, 32, 8)
	found := false
	for _, o := range got {
		if o == 32 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted candidate 32 missing from %v", got)
	}
}
