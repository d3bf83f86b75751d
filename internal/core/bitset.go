package core

import (
	"math/bits"
	"sync"
)

// Bitset is the packed window-hit bitmap of an index result: one bit
// per 16-bit database window, 64 windows per word. It replaces the
// 1-byte-per-window []bool representation, shrinking results 8× and
// letting candidate generation scan a word (64 windows) per comparison.
// The fused search kernels (ring.SubCmpMultiBits, ring.CmpEqScalarBits)
// write hit bits directly into Words(), so the bitmap is also the
// kernel's only output store.
//
// Concurrent writers are safe only on disjoint word ranges; the pool
// engine aligns its chunk-range jobs so every 64-bit word belongs to
// exactly one job (see PoolEngine.batchSize).
type Bitset struct {
	words []uint64
	n     int
}

// bitsetPool recycles the word storage of transient bitsets (per-shard
// sub-results, released index results), so a server under steady
// multi-user load stops allocating bitmap backing arrays entirely.
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

// OnesCount returns the number of set bits.
func (b *Bitset) OnesCount() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// None reports whether no bit is set.
func (b *Bitset) None() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether b and o cover the same bits with the same
// values.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
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

// NextSet returns the index of the first set bit at or after i, or -1
// when none remains — the word-level scan behind sparse hit iteration.
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	w := i >> 6
	cur := b.words[w] >> (uint(i) & 63)
	if cur != 0 {
		n := i + bits.TrailingZeros64(cur)
		if n < b.n {
			return n
		}
		return -1
	}
	for w++; w < len(b.words); w++ {
		if b.words[w] != 0 {
			n := w<<6 + bits.TrailingZeros64(b.words[w])
			if n < b.n {
				return n
			}
			return -1
		}
	}
	return -1
}

// OrAt ORs src into b starting at bit offset off: b[off+i] |= src[i].
// The sharded engine merges per-shard bitmaps with it; chunk offsets
// are word-aligned for every supported ring degree, so the common path
// is a straight word-wise OR.
func (b *Bitset) OrAt(src *Bitset, off int) {
	if off < 0 || off+src.n > b.n {
		panic("core: Bitset.OrAt out of range")
	}
	if off&63 == 0 {
		w0 := off >> 6
		for i, w := range src.words {
			if w != 0 {
				b.words[w0+i] |= w
			}
		}
		return
	}
	for i := src.NextSet(0); i >= 0; i = src.NextSet(i + 1) {
		b.Set(off + i)
	}
}
