package ring

import (
	"encoding/binary"
	"errors"
)

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
// One call sweeps a tile of chunks in two stages (DESIGN §4.4). Stage 1
// narrows: it writes each chunk's 16-bit lanes uint16(D >> s) and its
// 64-bit guard words into a stack scratch sized to L1d. Stage 2 compares
// lane rows against comparand rows: a filter pass takes, per block of
// 64 lanes, the lane-wise minimum over the comparands of lanes XOR row
// (a zero lane is a possible hit) and ANDs the result with the guard,
// visiting one block position across the whole tile so its comparand
// slices stay in L1; the exact per-comparand compare then runs only on
// the blocks the filter flagged. Stage 2 reads lanes and guard words,
// never a coefficient or a token row.
//
// The kernel has three dispatch paths (kernel.go); SubCmpMultiBits is
// the one-loop reference they are tested against. It works on whole
// bitset words only: every chunk holds a multiple of 64 coefficients
// and starts on a word. Its output is sparse: one HitWord record per
// word that holds a hit, so a search writes nothing for the words it
// misses.
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

// HitRoom returns how many records SubCmpNarrowBits can emit for one
// chunk of n coefficients and rows comparands: one per comparand for
// each of the chunk's n/64 bitset words. A tile needs the sum over its
// chunks.
func HitRoom(n, rows int) int {
	return rows * (n / 64)
}

// errSubWord is SubCmpNarrowBits' panic value for a tile off whole
// bitset words: a sentinel, so the hot path boxes nothing.
var errSubWord = errors.New("ring: SubCmpNarrowBits needs whole bitset words: chunks of n ≥ 64 coefficients, n and base multiples of 64")

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

// NarrowChunk is one chunk of a SubCmpNarrowBits tile: its first
// ciphertext component A, its token row D (len(A) lanes of LaneBytes
// each) and its comparand rows Top (len(A) narrow lanes each). The
// filter reads one 128-byte slice of every row per block position and
// keeps them in L1 across the tile only if they fall in different L1
// sets: rows a power-of-two multiple of 2 KiB apart do not, so callers
// lay them out with a gap (core's cutNarrow adds 64 lanes).
type NarrowChunk struct {
	A   Poly
	D   []byte
	Top [][]uint16
}

const (
	// tileBlocks is the capacity of stage 1's scratch in 64-lane
	// blocks: 16 KiB of lanes and 3 KiB of guard, flags and rows
	// words, under half of a 48 KiB L1d, which leaves room for the
	// comparand slices one block position reads across the tile
	// (R·128 B, 4 KiB at R = 32). Tiles of 64 and 256 blocks measured
	// the same on the dna_scan sweep.
	tileBlocks = 128
	// MaxTileChunks bounds TileChunks, so callers can hold a tile's
	// chunk descriptors in a fixed array.
	MaxTileChunks = 16
)

// TileChunks returns how many chunks of n coefficients a caller should
// hand SubCmpNarrowBits at once: as many as stage 1's lane scratch
// holds (8 at n = 1024, 4 at n = 2048), between 1 and MaxTileChunks.
//
//cm:hotpath
func TileChunks(n int) int {
	return min(max(64*tileBlocks/max(n, 1), 1), MaxTileChunks)
}

// laneTile is SubCmpNarrowBits' scratch, one per call on the caller's
// stack: stage 1 writes block x's 64 narrow lanes to lanes[64x:] and
// its guard word to guard[x], and the filter writes the block's
// possible-hit word (guard AND some comparand equal) to flags[x]. Block
// k of a pass's chunk s is block k·spans+s, so one block position of
// every chunk is one run of blocks. The assembly addresses guard, flags
// and rows at fixed offsets from the base (kernel_amd64.s).
type laneTile struct {
	lanes [64 * tileBlocks]uint16
	guard [tileBlocks]uint64
	flags [tileBlocks]uint64
	// rows marks, for the avx512 exact compare, which of the first 64
	// comparands hit a flagged block (narrowHitRowsAVX512).
	rows [tileBlocks]uint64
}

// SubCmpNarrowBits finds, for every chunk c of the tile, comparand v
// and coefficient i, whether
//
//	D mod 2^s == low[i] mod 2^s   and   D >> s == Top[v][i]
//
// where D = (A[i] - d_i) mod q, d_i is lane i of the chunk's token row
// D (see LaneBytes) and s comes from NarrowShift, and reports the hits
// as window base + c·n + i of comparand v: it writes HitWord records to
// out and returns how many. For comparands rhs[v] that share low's low
// part and Top[v] cut from them (CutNarrow), the hit windows are
// exactly the bits SubCmpMultiBits sets for rhs, chunk by chunk.
//
// Records come chunk by chunk in ascending word order, comparands
// ascending within a word, and a word is emitted only if it holds a
// hit.
//
// The ring must satisfy NarrowShift. Every chunk holds the same number
// n of coefficients, a multiple of 64, and base is a multiple of 64, so
// every chunk covers whole bitset words; any other tile panics with
// errSubWord. D must hold n lanes, low and every Top[v] n entries, and
// out must have room for HitRoom(n, len(Top)) records per chunk. Any
// tile length works; TileChunks(n) chunks fill the scratch.
//
//cm:hotpath
func (r *Ring) SubCmpNarrowBits(tile []NarrowChunk, low Poly, out []HitWord, base int) int {
	if len(tile) == 0 {
		return 0
	}
	n := len(tile[0].A)
	if n < 64 || (n|base)&63 != 0 {
		panic(errSubWord)
	}
	leg := KernelPath(activeKernel.Load())
	var sc laneTile
	nb, nw := n>>6, 0
	for c := 0; c < len(tile); {
		// As many chunks as the scratch holds share one pass; a chunk
		// larger than the scratch runs alone, one scratch of blocks at
		// a time.
		chunks := tile[c : c+max(min(len(tile)-c, tileBlocks/nb), 1)]
		for i := 0; i < n; i += 64 * tileBlocks {
			m := min(nb-i>>6, tileBlocks)
			r.sweepTile(leg, &sc, chunks, low, i, m)
			for s := range chunks {
				nw = exactSpan(leg, &sc, s, len(chunks), m, chunks[s].Top, i, out, nw, uint32((base+(c+s)*n+i)>>6))
			}
		}
		c += len(chunks)
	}
	return nw
}

// sweepTile runs stage 1 and the filter over the m blocks from
// coefficient i of every chunk of chunks, one block position at a time:
// it narrows the position's block of every chunk into one run of
// scratch blocks, then filters the run against the position's
// comparand slices, which stay in L1 from the first chunk to the last.
// Alternating the stages block by block keeps the coefficient and
// token streams flowing while the compares run.
//
//cm:hotpath
func (r *Ring) sweepTile(leg KernelPath, sc *laneTile, chunks []NarrowChunk, low Poly, i, m int) {
	hi, lb := i+64*m, r.laneBytes
	_ = low[i:hi]
	for _, ch := range chunks { // the assembly reads operands unchecked
		_, _ = ch.A[i:hi], ch.D[i*lb:hi*lb]
		for _, tv := range ch.Top {
			_ = tv[i:hi]
		}
	}
	for k := 0; k < m; k++ {
		o, x := i+64*k, k*len(chunks)
		switch leg {
		case KernelAVX512, KernelAVX2:
			r.sweepAsm(sc, chunks, x, o, low, leg == KernelAVX512)
		default:
			for s, ch := range chunks {
				r.narrowGo(sc.lanes[64*(x+s):64*(x+s+1)], &sc.guard[x+s], ch.A[o:o+64], ch.D[o*lb:(o+64)*lb], low[o:o+64])
			}
			filterGo(sc, chunks, x, o)
		}
	}
}

// narrowGo is stage 1 of one block on the portable paths: the narrow
// lanes of D = a − d, and the guard word, bit k set iff D's low part
// at coefficient k matches low's.
//
//cm:hotpath
func (r *Ring) narrowGo(lanes []uint16, guard *uint64, a Poly, d []byte, low Poly) {
	s, lm := r.narrowShift, r.lowMask
	var dd [64]uint64
	r.WidenLanes(dd[:], d)
	a, low, lanes = a[:64], low[:64], lanes[:64]
	var g uint64
	for k := range dd {
		t := a[k] - dd[k]
		g |= eqMaskBit(t&lm, low[k]&lm) << uint(k)
		lanes[k] = uint16(t >> s)
	}
	*guard = g
}

// lanes16Lo is the low 15 bits of each 16-bit lane of a uint64.
const lanes16Lo = 0x7FFF_7FFF_7FFF_7FFF

// nonzeroLanes16 sets the top bit of each 16-bit lane of x that is
// non-zero, without branching: adding lanes16Lo to the low 15 bits
// carries into a lane's top bit iff they are non-zero, never across
// lanes. Other bits are garbage.
//
//cm:hotpath
func nonzeroLanes16(x uint64) uint64 {
	return (x&lanes16Lo + lanes16Lo) | x
}

// clearTops16 gathers the four lane flags of a nonzeroLanes16 result
// into a 4-bit word, bit k set iff lane k's top bit is clear: the
// multiply moves the flags at bits 16k into bits 48..51 with no
// overlapping partial products.
//
//cm:hotpath
func clearTops16(nz uint64) uint64 {
	z := ^nz >> 15 & 0x0001_0001_0001_0001
	return z * (1<<48 | 1<<33 | 1<<18 | 1<<3) >> 48
}

// zeroLanes16 returns a 4-bit word whose bit k is set iff 16-bit lane k
// of x is zero.
//
//cm:hotpath
func zeroLanes16(x uint64) uint64 {
	return clearTops16(nonzeroLanes16(x))
}

// lanes4 packs four consecutive 16-bit lanes into a uint64, lane 0 in
// the low bits.
//
//cm:hotpath
func lanes4(l []uint16) uint64 {
	l = l[:4:4]
	return uint64(l[0]) | uint64(l[1])<<16 | uint64(l[2])<<32 | uint64(l[3])<<48
}

// filterGo is the filter on the generic path over scratch blocks x …
// of chunks, comparand rows read from coefficient o, in SWAR: four
// lanes per uint64, and per comparand one XOR and nonzeroLanes16 ANDed
// into the block's accumulator, whose lane tops end up clear exactly
// where some comparand equals.
//
//cm:hotpath
func filterGo(sc *laneTile, chunks []NarrowChunk, x, o int) {
	for s, ch := range chunks {
		ln := sc.lanes[64*(x+s) : 64*(x+s+1) : 64*(x+s+1)]
		var pk, acc [16]uint64
		for q := range pk {
			pk[q], acc[q] = lanes4(ln[4*q:]), ^uint64(0)
		}
		for _, tv := range ch.Top {
			tt := tv[o : o+64 : o+64]
			for q := range acc {
				acc[q] &= nonzeroLanes16(pk[q] ^ lanes4(tt[4*q:]))
			}
		}
		var w uint64
		for q, a := range acc {
			w |= clearTops16(a) << uint(4*q)
		}
		sc.flags[x+s] = w & sc.guard[x+s]
	}
}

// exactSpan is stage 2's exact compare over one chunk's m scratch
// blocks x, x+step, …, coefficients i… of a chunk with comparand rows
// top: for every flagged block it compares each comparand and emits the
// records of the nonzero words, the first block's as word w0, at
// out[nw:], and returns the new record count.
//
//cm:hotpath
func exactSpan(leg KernelPath, sc *laneTile, x, step, m int, top [][]uint16, i int, out []HitWord, nw int, w0 uint32) int {
	if len(top) == 0 {
		return nw
	}
	dst := out[nw : nw+m*len(top)] // the assembly writes records unchecked
	if leg == KernelAVX512 || leg == KernelAVX2 {
		return nw + exactAsm(dst, sc, x, step, m, top, i, w0, leg == KernelAVX512)
	}
	return nw + exactGo(dst, sc, x, step, m, top, i, w0)
}

// exactGo is the exact compare on the generic path, four lanes per XOR
// (zeroLanes16).
//
//cm:hotpath
func exactGo(out []HitWord, sc *laneTile, x, step, m int, top [][]uint16, i int, w0 uint32) int {
	nw := 0
	var pk [16]uint64
	for k := 0; k < m; k++ {
		b := x + k*step
		f := sc.flags[b]
		//cm:allow ctbranch -- aggregated hit-word emission: reveals only word-granular occupancy, and is the kernel's read-stream guarantee
		if f == 0 {
			continue
		}
		ln, o := sc.lanes[64*b:64*b+64:64*b+64], i+64*k
		for q := range pk {
			pk[q] = lanes4(ln[4*q:])
		}
		for v, tv := range top {
			tt := tv[o : o+64 : o+64]
			var w uint64
			for q := range pk {
				w |= zeroLanes16(pk[q]^lanes4(tt[4*q:])) << uint(4*q)
			}
			w &= f
			//cm:allow ctbranch -- aggregated hit-word emission: reveals only word-granular occupancy, and is the kernel's read-stream guarantee
			if w != 0 {
				out[nw].Word, out[nw].Row, out[nw].Mask = w0+uint32(k), uint32(v), w
				nw++
			}
		}
	}
	return nw
}
