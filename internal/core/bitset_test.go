package core

import (
	"maps"
	"math/bits"
	"slices"
	"testing"

	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

// bitset is the dense hit bitmap the per-offset oracle reads, a test
// helper only: one bit per 16-bit database window, 64 windows per word.
// Every producer emits hit records (HitWords); the oracle tests build
// bitmaps and hand Candidates their records.
type bitset struct {
	words []uint64
	n     int
}

// newBitset returns a zeroed bitset of n bits.
func newBitset(n int) *bitset {
	return &bitset{words: make([]uint64, (n+63)/64), n: n}
}

// get reports whether bit i is set.
func (b *bitset) get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// set sets bit i.
func (b *bitset) set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// allSet reports whether every bit in [lo, hi) is set, scanning whole
// words with an early exit on the first miss. Out-of-range windows
// count as misses (the candidate loop's boundary guard).
func (b *bitset) allSet(lo, hi int) bool {
	if lo < 0 || hi > b.n {
		return false
	}
	if lo >= hi {
		return true
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if wLo == wHi {
		m := first & last
		return b.words[wLo]&m == m
	}
	if b.words[wLo]&first != first {
		return false
	}
	for w := wLo + 1; w < wHi; w++ {
		if b.words[w] != ^uint64(0) {
			return false
		}
	}
	return b.words[wHi]&last == last
}

// hitBitmaps maps a residue to its dense hit bitmap.
type hitBitmaps map[int]*bitset

// records converts dense bitmaps into the records Candidates reads, in
// canonical order: rows in ascending residue order, and only the bits
// below each bitmap's length, so a window past a bitmap's end reads as
// a miss exactly as allSet treats it.
func (h hitBitmaps) records() *HitWords {
	out := &HitWords{Residues: slices.Sorted(maps.Keys(h))}
	numWords := 0
	for _, bm := range h {
		numWords = max(numWords, len(bm.words))
	}
	for wi := 0; wi < numWords; wi++ {
		for row, res := range out.Residues {
			bm := h[res]
			if wi >= len(bm.words) {
				continue
			}
			w := bm.words[wi]
			if valid := bm.n - 64*wi; valid < 64 {
				w &= 1<<max(valid, 0) - 1
			}
			if w != 0 {
				out.Words = append(out.Words, ring.HitWord{Word: uint32(wi), Row: uint32(row), Mask: w})
			}
		}
	}
	return out
}

func randomBitset(t *testing.T, src *rng.Source, n int) (*bitset, []bool) {
	t.Helper()
	b := newBitset(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if src.Uniform(3) == 0 {
			b.set(i)
			ref[i] = true
		}
	}
	return b, ref
}

// onesCount is the bitset tests' popcount oracle over the packed words.
func onesCount(b *bitset) int {
	total := 0
	for _, w := range b.words {
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
			if b.get(i) != want {
				t.Fatalf("n=%d bit %d: got %v, want %v", n, i, b.get(i), want)
			}
			if want {
				ones++
			}
		}
		if got := onesCount(b); got != ones {
			t.Fatalf("n=%d: %d bits set in the words, want %d", n, got, ones)
		}
		if b.n != n {
			t.Fatalf("n=%d: length %d", n, b.n)
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
		if got := b.allSet(lo, hi); got != want {
			t.Fatalf("n=%d allSet(%d,%d)=%v, want %v", n, lo, hi, got, want)
		}
	}
	b := newBitset(64)
	if b.allSet(0, 65) {
		t.Fatal("allSet accepted out-of-range hi")
	}
	if b.allSet(-1, 4) {
		t.Fatal("allSet accepted negative lo")
	}
	if !b.allSet(5, 5) {
		t.Fatal("allSet on empty range should be vacuous")
	}
}

// TestCandidatesEmptyFastPath pins the early exit: all-empty bitmaps
// must produce no candidates without scanning, and a single planted
// window run must still be found.
func TestCandidatesEmptyFastPath(t *testing.T) {
	hits := hitBitmaps{0: newBitset(64), 8: newBitset(64)}
	if got := Candidates(hits.records(), 1024, 32, 8); got != nil {
		t.Fatalf("empty bitmaps produced candidates %v", got)
	}
	// Windows 2,3 set for residue 0: offset 32 has full windows [2,4).
	hits[0].set(2)
	hits[0].set(3)
	if got := Candidates(hits.records(), 1024, 32, 8); !slices.Contains(got, 32) {
		t.Fatalf("planted candidate 32 missing from %v", got)
	}
}
