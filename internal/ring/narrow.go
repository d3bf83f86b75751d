package ring

import "encoding/binary"

// This file implements the narrow compare kernel of the seeded search.
// The hit test of SubCmpMultiBits is a 64-bit equality
//
//	D == rhs[v][i],   D = (a[i] - d[i]) mod q
//
// but for a power-of-two q = 2^(s+16) it splits exactly at bit s:
//
//	D == rhs  ⇔  D >> s == rhs >> s   and   D mod 2^s == rhs mod 2^s
//
// A seeded query's comparands all carry the same low part (the client
// mask M mod Δ, Δ = 2^s; DESIGN §4.3), so the low half is one guard per
// coefficient shared by every comparand, and the per-comparand compare
// runs on 16-bit lanes: a quarter of the comparand bytes and four times
// the lanes per vector op. The guard keeps the split exact for any a
// and d — a coefficient whose low part misses the shared one can never
// hit — so the kernel is bit-identical to SubCmpMultiBits over the
// comparands the narrow rows were cut from.
//
// The kernel has four dispatch paths (kernel.go); SubCmpMultiBits is
// the one-loop reference they are tested against. It shares that
// reference's scalar prologue/epilogue shape and branchless coefficient
// loops, but its output is sparse: one HitWord record per word that
// holds a hit, so a search writes nothing for the words it misses.
//
// The subtrahend d is a token row: little-endian lanes of LaneBytes
// each, the byte layout a query's token plane has from the client's
// memo through the wire to this kernel, so a server slices its rows out
// of the request payload and sweeps them with no decode pass. A row may
// start at any byte offset: the Go legs read it with encoding/binary
// and the assembly with unaligned loads, never through a converted
// pointer.

// HitWord is one record of SubCmpNarrowBits' sparse output: bit k of
// Mask is set iff comparand Row hit window 64·Word+k.
type HitWord struct {
	Word, Row uint32
	Mask      uint64
}

// HitRoom returns how many records one SubCmpNarrowBits call over n
// coefficients and rows comparands can emit: one per comparand for
// every bitset word the call touches, at most ⌈n/64⌉+1 of them.
func HitRoom(n, rows int) int {
	return rows * ((n+63)/64 + 1)
}

// NarrowBits is the lane width of SubCmpNarrowBits: log2 t of every
// served parameter set.
const NarrowBits = 16

// NarrowShift returns s = log2 q − NarrowBits, the number of coefficient
// bits below the narrow lane, and whether SubCmpNarrowBits applies to
// this ring at all: q must be a power of two of at least 2^NarrowBits.
func (r *Ring) NarrowShift() (uint, bool) {
	return r.narrowShift, r.narrowOK
}

// LaneBytes returns the width of one coefficient in a token row, the
// layout of SubCmpNarrowBits' subtrahend: LaneBytesFor(q).
func (r *Ring) LaneBytes() int { return r.laneBytes }

// LaneBytesFor returns the token-row lane width of modulus q: 4 bytes
// when q ≤ 2^32, else 8.
func LaneBytesFor(q uint64) int {
	if q <= 1<<32 {
		return 4
	}
	return 8
}

// PutLanes stores p as a token row in dst: len(p) little-endian lanes
// of LaneBytes each. Coefficients must be below q.
func (r *Ring) PutLanes(dst []byte, p Poly) {
	if r.laneBytes == 4 {
		dst = dst[:4*len(p)]
		for i, c := range p {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(c))
		}
		return
	}
	dst = dst[:8*len(p)]
	for i, c := range p {
		binary.LittleEndian.PutUint64(dst[8*i:], c)
	}
}

// WidenLanes is the inverse of PutLanes: it loads the first len(dst)
// lanes of the token row d into dst.
//
//cm:hotpath
func (r *Ring) WidenLanes(dst Poly, d []byte) {
	if r.laneBytes == 4 {
		d = d[:4*len(dst)]
		for i := range dst {
			dst[i] = uint64(binary.LittleEndian.Uint32(d[4*i:]))
		}
		return
	}
	d = d[:8*len(dst)]
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(d[8*i:])
	}
}

// CutNarrow stores the narrow lanes of p, uint16(p[i] >> s), in top and
// reports whether p's low part (below bit s, see NarrowShift) equals
// low's at every coefficient: the precondition under which
// SubCmpNarrowBits with this low row and these lanes sets exactly the
// bits SubCmpMultiBits sets for p. The ring must satisfy NarrowShift.
func (r *Ring) CutNarrow(p, low Poly, top []uint16) bool {
	s, lm := r.narrowShift, r.lowMask
	top, low = top[:len(p)], low[:len(p)]
	var diff uint64
	for i, c := range p {
		top[i] = uint16(c >> s)
		diff |= (c ^ low[i]) & lm
	}
	return diff == 0
}

// SubCmpNarrowBits finds, for every comparand v and coefficient i,
// whether
//
//	D mod 2^s == low[i] mod 2^s   and   D >> s == top[v][i]
//
// where D = (a[i] - d_i) mod q, d_i is lane i of the token row d (see
// LaneBytes) and s comes from NarrowShift, and
// reports the hits as window base+i of comparand v: it writes HitWord
// records to out and returns how many. For comparands rhs[v] that share
// low's low part and top[v] cut from them (CutNarrow), the hit windows
// are exactly the bits SubCmpMultiBits sets for rhs.
//
// Records come in ascending word order, comparands ascending within a
// word. A word covered by a whole 64-coefficient block is emitted only
// if it holds a hit; the partial words at the edges of an unaligned
// call (base or base+len(a) not a multiple of 64) are emitted for every
// comparand, empty or not, so consecutive calls may emit the same
// (word, comparand) twice, with disjoint masks.
//
// The ring must satisfy NarrowShift. d must hold len(a) lanes, low and
// every top[v] len(a) entries, and out must have room for
// HitRoom(len(a), len(top)) records.
//
//cm:hotpath
func (r *Ring) SubCmpNarrowBits(a Poly, d []byte, low Poly, top [][]uint16, out []HitWord, base int) int {
	switch KernelPath(activeKernel.Load()) {
	case KernelAVX512:
		return r.subCmpNarrowAsm(a, d, low, top, out, base, true)
	case KernelAVX2:
		return r.subCmpNarrowAsm(a, d, low, top, out, base, false)
	case KernelUnrolled:
		return r.subCmpNarrowUnrolled(a, d, low, top, out, base)
	default:
		return r.subCmpNarrowGeneric(a, d, low, top, out, base)
	}
}

// subCmpNarrowGeneric is the portable word-at-a-time reference: the
// guard word and the 64 narrow differences of a block are computed
// once, then each comparand folds its 64 lane compares into one word,
// ANDed with the guard and emitted only when some window hit.
//
//cm:hotpath
func (r *Ring) subCmpNarrowGeneric(a Poly, d []byte, low Poly, top [][]uint16, out []HitWord, base int) int {
	n, lb := len(a), r.laneBytes
	i, nw := 0, 0
	if rem := base & 63; rem != 0 {
		i = min(64-rem, n)
		nw = r.subCmpNarrowScalar(a, d, low, top, out, nw, base, 0, i)
	}
	s, lm := r.narrowShift, r.lowMask
	var diff [64]uint16
	var dd [64]uint64
	for ; i+64 <= n; i += 64 {
		r.WidenLanes(dd[:], d[i*lb:])
		aa, ll := a[i:i+64], low[i:i+64]
		var g uint64
		for k := range aa {
			t := aa[k] - dd[k]
			g |= eqMaskBit(t&lm, ll[k]&lm) << uint(k)
			diff[k] = uint16(t >> s)
		}
		wi := uint32((base + i) >> 6)
		for v, tv := range top {
			tt := tv[i : i+64]
			var w uint64
			for k := range tt {
				// A lane XOR is below 2^16, so subtracting 1 borrows
				// into the top bit iff the lanes are equal.
				w |= (uint64(diff[k]^tt[k]) - 1) >> 63 << uint(k)
			}
			w &= g
			//cm:allow ctbranch -- aggregated hit-word emission: reveals only word-granular occupancy, and is the kernel's read-stream guarantee
			if w != 0 {
				out[nw].Word, out[nw].Row, out[nw].Mask = wi, uint32(v), w
				nw++
			}
		}
	}
	return r.subCmpNarrowScalar(a, d, low, top, out, nw, base, i, n)
}

// lanes16Lo is the low 15 bits of each 16-bit lane of a uint64.
const lanes16Lo = 0x7FFF_7FFF_7FFF_7FFF

// zeroLanes16 returns a 4-bit word whose bit k is set iff 16-bit lane k
// of x is zero, without branching: adding lanes16Lo to the low 15 bits
// carries into a lane's top bit iff they are non-zero (never across
// lanes), and the multiply gathers the four lane flags at bits 16k into
// bits 48..51 with no overlapping partial products.
//
//cm:hotpath
func zeroLanes16(x uint64) uint64 {
	nz := (x&lanes16Lo + lanes16Lo) | x
	z := ^nz >> 15 & 0x0001_0001_0001_0001
	return z * (1<<48 | 1<<33 | 1<<18 | 1<<3) >> 48
}

// subCmpNarrowUnrolled is the portable SWAR path: the block's narrow
// differences are packed four lanes to a uint64, and each comparand
// compares four lanes per XOR (zeroLanes16), a quarter of the compares
// of the generic path.
//
//cm:hotpath
func (r *Ring) subCmpNarrowUnrolled(a Poly, d []byte, low Poly, top [][]uint16, out []HitWord, base int) int {
	n, lb := len(a), r.laneBytes
	i, nw := 0, 0
	if rem := base & 63; rem != 0 {
		i = min(64-rem, n)
		nw = r.subCmpNarrowScalar(a, d, low, top, out, nw, base, 0, i)
	}
	s, lm := r.narrowShift, r.lowMask
	var diff [16]uint64
	var dd [64]uint64
	for ; i+64 <= n; i += 64 {
		r.WidenLanes(dd[:], d[i*lb:])
		var g uint64
		for k := 0; k < 64; k += 4 {
			a4 := a[i+k : i+k+4 : i+k+4]
			d4 := dd[k : k+4 : k+4]
			l4 := low[i+k : i+k+4 : i+k+4]
			t0, t1, t2, t3 := a4[0]-d4[0], a4[1]-d4[1], a4[2]-d4[2], a4[3]-d4[3]
			g |= (eqMaskBit(t0&lm, l4[0]&lm) |
				eqMaskBit(t1&lm, l4[1]&lm)<<1 |
				eqMaskBit(t2&lm, l4[2]&lm)<<2 |
				eqMaskBit(t3&lm, l4[3]&lm)<<3) << uint(k)
			diff[k>>2] = uint64(uint16(t0>>s)) | uint64(uint16(t1>>s))<<16 |
				uint64(uint16(t2>>s))<<32 | uint64(uint16(t3>>s))<<48
		}
		wi := uint32((base + i) >> 6)
		for v, tv := range top {
			tt := tv[i : i+64 : i+64]
			var w uint64
			for k := 0; k < 16; k++ {
				t4 := tt[4*k : 4*k+4 : 4*k+4]
				x := uint64(t4[0]) | uint64(t4[1])<<16 | uint64(t4[2])<<32 | uint64(t4[3])<<48
				w |= zeroLanes16(diff[k]^x) << uint(4*k)
			}
			w &= g
			//cm:allow ctbranch -- aggregated hit-word emission: reveals only word-granular occupancy, and is the kernel's read-stream guarantee
			if w != 0 {
				out[nw].Word, out[nw].Row, out[nw].Mask = wi, uint32(v), w
				nw++
			}
		}
	}
	return r.subCmpNarrowScalar(a, d, low, top, out, nw, base, i, n)
}

// subCmpNarrowScalar is the coefficient-at-a-time edge path of
// SubCmpNarrowBits over coefficients [lo, hi), which lie in one bitset
// word, shared by every dispatch path: it computes the guard bits and
// narrow differences once, then writes the word's record for every
// comparand, hit or not, at out[nw:], and returns the new record count.
//
//cm:hotpath
func (r *Ring) subCmpNarrowScalar(a Poly, d []byte, low Poly, top [][]uint16, out []HitWord, nw, base, lo, hi int) int {
	if lo == hi {
		return nw
	}
	s, lm := r.narrowShift, r.lowMask
	var diff [64]uint16
	var dd [64]uint64
	r.WidenLanes(dd[:hi-lo], d[lo*r.laneBytes:])
	var g uint64
	for i := lo; i < hi; i++ {
		t := a[i] - dd[i-lo]
		diff[i-lo] = uint16(t >> s)
		_, m := bitsetWord(base + i)
		g |= m & -eqMaskBit(t&lm, low[i]&lm)
	}
	wi := uint32((base + lo) >> 6)
	for v, tv := range top {
		var w uint64
		for i := lo; i < hi; i++ {
			_, m := bitsetWord(base + i)
			w |= m & -eqMaskBit(uint64(diff[i-lo]), uint64(tv[i]))
		}
		out[nw].Word, out[nw].Row, out[nw].Mask = wi, uint32(v), w&g
		nw++
	}
	return nw
}
