package core

import "sync"

// Bitset is a packed dense window-hit bitmap: one bit per 16-bit
// database window, 64 windows per word. It is the hit form of the
// producers that build whole planes anyway — the client-decrypt path,
// whose ring.CmpEqScalarBits writes hit bits directly into Words(), and
// the in-flash controller — which reach Candidates through
// HitBitmaps.Sparse. The CPU engine never builds one: its kernel emits
// sparse records (HitWords).
type Bitset struct {
	words []uint64
	n     int
}

// bitsetPool recycles the word storage of released bitsets, so the
// dense producers stop allocating bitmap backing arrays under steady
// load.
var bitsetPool = sync.Pool{New: func() any { return &Bitset{} }}

// NewBitset returns a zeroed bitset of n bits, reusing pooled storage
// when some earlier bitset of sufficient capacity has been Released.
//
//cm:pooled
func NewBitset(n int) *Bitset {
	b := bitsetPool.Get().(*Bitset)
	nw := (n + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	} else {
		b.words = b.words[:nw]
		clear(b.words)
	}
	b.n = n
	return b
}

// Release returns the bitset's storage to the pool. The caller must not
// use b afterwards. Releasing is optional — an unreleased bitset is
// ordinary garbage — but engines release their transient bitmaps to
// keep the steady-state search loop allocation-free.
func (b *Bitset) Release() {
	if b == nil {
		return
	}
	bitsetPool.Put(b)
}

// Len returns the number of bits (windows) the bitset covers.
func (b *Bitset) Len() int { return b.n }

// Words exposes the packed backing words for kernels that set bits
// directly (64 windows per word, bit i of word w is window 64w+i).
func (b *Bitset) Words() []uint64 { return b.words }

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// AllSet reports whether every bit in [lo, hi) is set, scanning whole
// words with an early exit on the first miss. Out-of-range windows
// count as misses (the candidate loop's boundary guard).
func (b *Bitset) AllSet(lo, hi int) bool {
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
