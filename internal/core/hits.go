package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"ciphermatch/internal/ring"
)

// HitWords is the one hit form: one ring.HitWord record per nonzero
// 64-window word of a residue's hits, in canonical order, ascending by
// word and then by row. Every producer emits it: the CPU engine's
// kernel, the in-flash controller (internal/ssd) and the client-decrypt
// ExtractHits. A record's Row indexes Residues: bit k of its Mask is
// set iff residue Residues[Row] hit window 64·Word+k. Words no residue
// hits cost nothing, so a dna_scan search carries about a thousand
// records where dense bitmaps would hold 8 MiB.
type HitWords struct {
	Residues []int
	Words    []ring.HitWord
}

// hitWordsPool recycles the record storage of released results, so a
// server under steady load stops allocating it.
var hitWordsPool = sync.Pool{New: func() any { return new(HitWords) }}

// NewHitWords returns an empty record list for residues, reusing the
// storage of a released one.
//
//cm:pooled
func NewHitWords(residues []int) *HitWords {
	h := hitWordsPool.Get().(*HitWords)
	h.Residues, h.Words = residues, h.Words[:0]
	return h
}

// Release returns the records' storage to the pool. The caller must not
// use h afterwards. Safe on nil.
func (h *HitWords) Release() {
	if h == nil {
		return
	}
	h.Residues = nil
	hitWordsPool.Put(h)
}

// Equal reports whether h and o hold the same records in the same
// order, each on the same residue.
func (h *HitWords) Equal(o *HitWords) bool {
	if len(h.Words) != len(o.Words) {
		return false
	}
	for i, a := range h.Words {
		b := o.Words[i]
		if a.Word != b.Word || a.Mask != b.Mask || h.Residues[a.Row] != o.Residues[b.Row] {
			return false
		}
	}
	return true
}

// wordOffsets is the number of offsets whose first full window lies in
// one 64-window word.
const wordOffsets = 64 * SegmentBits

// hitKey orders records by word, then row.
func hitKey(h ring.HitWord) uint64 { return uint64(h.Word)<<32 | uint64(h.Row) }

// Candidates converts a search's hit records, in the canonical order
// every producer emits, into candidate occurrence offsets: every
// aligned offset whose full windows are all hits. See
// DESIGN.md on boundary bits: candidates agree with the query on every
// full window; up to 15 bits on each side are unverified.
//
// The scan is record-driven. An offset o is a candidate only if its
// residue o mod yBits hit every window of FullWindows(o) = [w0, w1),
// w1 > w0 — in particular w0 = ⌈o/16⌉, so o is found from the record
// holding w0. Per record, the scan walks the residue's congruence class
// over the offsets whose first full window lies in the record's word
// (at most 1024/yBits + 1 of them), jumping to the class offset of each
// set bit of the mask, and checks each aligned one against the mask
// and, past the word, against the residue's following records. A
// word's candidates collect in a 1 024-bit set covering exactly the
// offsets whose first window lies in it, so the output ascends without
// a sort. Cost is O(records·(1 + 1024/yBits)) plus the lookups;
// nothing is sized from yBits or alignBits, which arrive off the wire.
// Non-positive yBits or alignBits, and records whose residue is outside
// [0, yBits), yield no candidates.
func Candidates(hits *HitWords, dbBits, yBits, alignBits int) []int {
	if hits == nil || yBits < 1 || alignBits < 1 {
		return nil
	}
	ws := hits.Words
	maxO := dbBits - yBits // last offset whose span fits the database
	yAlign := yBits % alignBits
	var out []int
	for s := 0; s < len(ws); {
		word := int(ws[s].Word)
		e := s + 1
		for e < len(ws) && int(ws[e].Word) == word {
			e++
		}
		// The offsets whose first full window lies in this word:
		// base+[0, wordOffsets), o = base+b at bit b of found.
		base := SegmentBits*(64*word-1) + 1
		lo, hi := max(base, 0), min(base+wordOffsets-1, maxO)
		var found [wordOffsets / 64]uint64
		for i := s; i < e && lo <= hi; i++ {
			h := ws[i]
			if int(h.Row) >= len(hits.Residues) {
				continue
			}
			res := hits.Residues[h.Row]
			if res < 0 || res >= yBits {
				continue
			}
			o := lo + ((res-lo)%yBits+yBits)%yBits
			am := o % alignBits
			for o <= hi {
				w0, w1 := FullWindows(o, yBits)
				rest := h.Mask >> uint(w0&63) // this word's windows from w0 on
				if rest == 0 {
					break
				}
				if skip := bits.TrailingZeros64(rest); skip > 0 {
					// Jump to the class's first offset whose first window
					// is the record's next hit.
					next := SegmentBits*(w0+skip-1) + 1
					o += (next - o + yBits - 1) / yBits * yBits
					am = o % alignBits
					continue
				}
				// Windows [w0, w1) of this word must be in the record's
				// mask; later ones in the row's following records.
				m := ^uint64(0) >> uint(64-min(w1-64*word, 64)+w0&63)
				if am == 0 && w1 > w0 && rest&m == m && (w1 <= 64*word+64 || hitsThrough(ws, i, w1)) {
					found[(o-base)>>6] |= 1 << uint((o-base)&63)
				}
				o += yBits
				if am += yAlign; am >= alignBits {
					am -= alignBits
				}
			}
		}
		for k, f := range found {
			for ; f != 0; f &= f - 1 {
				out = append(out, base+64*k+bits.TrailingZeros64(f))
			}
		}
		s = e
	}
	return out
}

// hitsThrough reports whether record i's row hits every window from
// the word after record i's through window w1-1, where ws is in
// canonical order: the row's later words are found by binary search
// for their records.
func hitsThrough(ws []ring.HitWord, i, w1 int) bool {
	for h := ws[i]; 64*(int(h.Word)+1) < w1; {
		j, found := slices.BinarySearchFunc(ws[i+1:], hitKey(h)+1<<32, func(x ring.HitWord, k uint64) int {
			return cmp.Compare(hitKey(x), k)
		})
		if !found {
			return false
		}
		i += 1 + j
		h = ws[i]
		if m := ^uint64(0) >> uint(64-min(w1-64*int(h.Word), 64)); h.Mask&m != m {
			return false
		}
	}
	return true
}
