package ring

import (
	"fmt"
	"testing"

	"ciphermatch/internal/rng"
)

// narrowRows cuts the narrow comparand rows of rhs for SubCmpNarrowBits.
func narrowRows(r *Ring, rhs []Poly) [][]uint16 {
	top := make([][]uint16, len(rhs))
	for v, p := range rhs {
		top[v] = make([]uint16, len(p))
		r.CutNarrow(p, p, top[v])
	}
	return top
}

// paddedRows copies rows into one block at the engine's layout (core's
// cutNarrow): each row 64 lanes past the end of the one before, so the
// rows' slices of one block position fall in different L1 sets.
func paddedRows(rows [][]uint16) [][]uint16 {
	out := make([][]uint16, len(rows))
	if len(rows) == 0 {
		return out
	}
	n := len(rows[0])
	block := make([]uint16, len(rows)*(n+64))
	for v, row := range rows {
		out[v] = block[v*(n+64) : v*(n+64)+n : v*(n+64)+n]
		copy(out[v], row)
	}
	return out
}

// laneRow stores d as a token row (PutLanes) that starts off bytes into
// its buffer, so the kernels read rows at any alignment, as they do rows
// sliced out of a request payload.
func laneRow(r *Ring, d Poly, off int) []byte {
	buf := make([]byte, off+len(d)*r.LaneBytes())
	r.PutLanes(buf[off:], d)
	return buf[off:]
}

// tileRoom is the record room of a tile: HitRoom per chunk.
func tileRoom(tile []NarrowChunk) int {
	room := 0
	for _, ch := range tile {
		room += HitRoom(len(ch.A), len(ch.Top))
	}
	return room
}

// narrowRecords runs SubCmpNarrowBits over tile with exactly its room.
func narrowRecords(r *Ring, tile []NarrowChunk, low Poly, base int) []HitWord {
	out := make([]HitWord, tileRoom(tile))
	return out[:r.SubCmpNarrowBits(tile, low, out, base)]
}

// narrowRefused reports whether SubCmpNarrowBits refuses tile at base,
// panicking with errSubWord.
func narrowRefused(r *Ring, tile []NarrowChunk, low Poly, base int) (refused bool) {
	defer func() { refused = recover() == errSubWord }()
	narrowRecords(r, tile, low, base)
	return false
}

// wantNarrowRecords is the oracle of SubCmpNarrowBits' record stream,
// built one chunk at a time from SubCmpMultiBits on the widened token
// row against the comparands the narrow operands stand for, Top[v]'s
// lanes over low's low part: per chunk its words ascending, comparands
// ascending within a word, a word only when it holds a hit.
func wantNarrowRecords(r *Ring, tile []NarrowChunk, low Poly, base int) []HitWord {
	s, _ := r.NarrowShift()
	lm := uint64(1)<<s - 1
	var out []HitWord
	for c, ch := range tile {
		n := len(ch.A)
		b := base + c*n
		d := make(Poly, n)
		r.WidenLanes(d, ch.D)
		first, last := b>>6, (b+n-1)>>6
		cmp := make([]Poly, len(ch.Top))
		bits := make([][]uint64, len(ch.Top))
		for v, tv := range ch.Top {
			cmp[v], bits[v] = make(Poly, n), make([]uint64, last+1)
			for i, x := range tv {
				cmp[v][i] = uint64(x)<<s | low[i]&lm
			}
		}
		r.SubCmpMultiBits(ch.A, d, cmp, bits, b)
		for w := first; w <= last; w++ {
			for v := range cmp {
				if m := bits[v][w]; m != 0 {
					out = append(out, HitWord{Word: uint32(w), Row: uint32(v), Mask: m})
				}
			}
		}
	}
	return out
}

// firstDiff returns the index of the first record where got and want
// differ, or -1 when they are equal.
func firstDiff(got, want []HitWord) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// recordAt formats record i of hs, or "none" past its end.
func recordAt(hs []HitWord, i int) string {
	if i >= len(hs) {
		return "none"
	}
	return fmt.Sprintf("(word %d, row %d, %#x)", hs[i].Word, hs[i].Row, hs[i].Mask)
}

// runNarrow runs SubCmpNarrowBits on a one-chunk tile with exactly
// HitRoom records of room and scatters its records into len(top) dense
// bitsets of words words: the conversion through which the tests
// compare its hits with SubCmpMultiBits' words. It fails unless the
// records ascend by word and comparand inside the call's words and
// every mask holds a hit.
func runNarrow(t testing.TB, r *Ring, a Poly, d []byte, low Poly, top [][]uint16, base, words int) [][]uint64 {
	t.Helper()
	out := narrowRecords(r, []NarrowChunk{{A: a, D: d, Top: top}}, low, base)
	bits := make([][]uint64, len(top))
	for v := range bits {
		bits[v] = make([]uint64, words)
	}
	first, last := base>>6, (base+len(a)-1)>>6
	for i, h := range out {
		w := int(h.Word)
		switch {
		case w < first || w > last || int(h.Row) >= len(top):
			t.Fatalf("record %d (word %d, row %d) outside the call's %d words from %d and %d rows", i, w, h.Row, last-first+1, first, len(top))
		case i > 0 && (out[i-1].Word > h.Word || out[i-1].Word == h.Word && out[i-1].Row >= h.Row):
			t.Fatalf("record %d (word %d, row %d) does not ascend from (word %d, row %d)", i, w, h.Row, out[i-1].Word, out[i-1].Row)
		case h.Mask == 0:
			t.Fatalf("record %d: empty mask for word %d", i, w)
		}
		bits[h.Row][w] |= h.Mask
	}
	return bits
}

// narrowFamilies are the rings SubCmpNarrowBits serves and the edges of
// its split: the paper's q = 2^32 (16 low bits) at degrees on both
// sides of the word body (n = 16, below it, the kernel refuses),
// ParamsN2048's q = 2^54 (38 low bits), q = 2^20, and q = 2^16, where
// the low part is empty.
var narrowFamilies = []struct {
	name string
	n    int
	q    uint64
}{
	{"q32-n64", 64, 1 << 32},
	{"q32-n1024", 1024, 1 << 32},
	{"q32-n16", 16, 1 << 32},
	{"q54-n2048", 2048, 1 << 54},
	{"q20-n128", 128, 1 << 20},
	{"q16-n64", 64, 1 << 16},
}

// newNarrowCase builds a seeded-search-shaped workload: R comparands
// that share one low part L (below bit s), with hits planted at ~1/4
// of the coefficients, low-only mismatches (the high part planted but L
// off the difference's low part) at ~1/16, and a low row that carries L
// under random high bits, which the kernel must mask off.
func newNarrowCase(src *rng.Source, n int, q uint64, R int) (r *Ring, a, d, low Poly, rhs []Poly) {
	r = MustNew(n, q)
	s, _ := r.NarrowShift()
	lm := uint64(1)<<s - 1
	a, d = r.NewPoly(), r.NewPoly()
	r.UniformPoly(src, a)
	r.UniformPoly(src, d)
	for i := range d {
		if src.Uniform(8) == 0 {
			d[i] = a[i]
		}
	}
	diff := r.NewPoly()
	r.Sub(a, d, diff)
	lo := make([]uint64, n)
	for i := range lo {
		lo[i] = diff[i] & lm
		if src.Uniform(4) == 0 {
			lo[i] = src.Uint64() & lm
		}
	}
	low = r.NewPoly()
	r.UniformPoly(src, low)
	for i := range low {
		low[i] = low[i]&^lm | lo[i]
	}
	rhs = make([]Poly, R)
	for v := range rhs {
		rhs[v] = r.NewPoly()
		r.UniformPoly(src, rhs[v])
		for i := range rhs[v] {
			hi := rhs[v][i] >> s
			if src.Uniform(3) == 0 {
				hi = diff[i] >> s
			}
			rhs[v][i] = hi<<s | lo[i]
		}
	}
	return r, a, d, low, rhs
}

// TestSubCmpNarrowMatchesMultiBits is the differential property test of
// the narrow kernel: on every available path, for comparands that share
// their low bits, SubCmpNarrowBits sets exactly the bits SubCmpMultiBits
// sets — planted hits, low-only mismatches and random differences alike
// — at word-aligned bases and comparand counts on both sides of a
// 64-comparand group, and refuses unaligned bases and sub-word degrees.
func TestSubCmpNarrowMatchesMultiBits(t *testing.T) {
	src := rng.NewSourceFromString("narrow-vs-wide")
	for _, fam := range narrowFamilies {
		t.Run(fam.name, func(t *testing.T) {
			hits := 0
			for trial := 0; trial < 4; trial++ {
				for _, R := range []int{1, 4, 32, 65} {
					r, a, d, low, rhs := newNarrowCase(src, fam.n, fam.q, R)
					top := narrowRows(r, rhs)
					lanes := laneRow(r, d, trial*R%64)
					for _, base := range []int{0, 37, 64, 64*5 + 63} {
						words := (base + fam.n + 63) / 64
						wide := make([][]uint64, R)
						for v := range wide {
							wide[v] = make([]uint64, words)
						}
						r.SubCmpMultiBits(a, d, rhs, wide, base)
						for _, p := range AvailableKernels() {
							withKernel(t, p, func() {
								if base&63 != 0 || fam.n < 64 {
									if !narrowRefused(r, []NarrowChunk{{A: a, D: lanes, Top: top}}, low, base) {
										t.Fatalf("path %s: n=%d base %d off whole words accepted", p, fam.n, base)
									}
									return
								}
								narrow := runNarrow(t, r, a, lanes, low, top, base, words)
								for v := range wide {
									for w := range wide[v] {
										if narrow[v][w] != wide[v][w] {
											t.Fatalf("path %s trial %d R=%d base %d: rhs %d word %d = %#x, SubCmpMultiBits %#x",
												p, trial, R, base, v, w, narrow[v][w], wide[v][w])
										}
										hits += popcount(wide[v][w])
									}
								}
							})
						}
					}
				}
			}
			if hits == 0 && fam.n >= 64 {
				t.Fatal("no planted hit survived; the cases test nothing")
			}
		})
	}
}

// TestSubCmpNarrowGuard pins the guard on its own: a comparand whose
// high part matches every difference but whose low part is one off
// never hits, on any path — a token plane that breaks the shared low
// part cannot produce a hit the 64-bit compare would not.
func TestSubCmpNarrowGuard(t *testing.T) {
	src := rng.NewSourceFromString("narrow-guard")
	r, a, d, _, _ := newNarrowCase(src, 128, 1<<32, 0)
	diff := r.NewPoly()
	r.Sub(a, d, diff)
	off := r.NewPoly()
	for i := range off {
		off[i] = diff[i] ^ 1 // flip bit 0: inside the low part
	}
	top := narrowRows(r, []Poly{diff})
	if r.CutNarrow(diff, off, make([]uint16, len(diff))) {
		t.Fatal("CutNarrow reports a shared low part for rows one bit apart")
	}
	lanes := laneRow(r, d, 1)
	for _, p := range AvailableKernels() {
		withKernel(t, p, func() {
			bits := runNarrow(t, r, a, lanes, off, top, 64, 3)
			if bits[0][0]|bits[0][1]|bits[0][2] != 0 {
				t.Fatalf("path %s: low-part mismatch produced hits %#x", p, bits[0])
			}
			bits = runNarrow(t, r, a, lanes, diff, top, 64, 3)
			if got := popcount(bits[0][0]) + popcount(bits[0][1]) + popcount(bits[0][2]); got != 128 {
				t.Fatalf("path %s: %d of 128 exact comparands hit", p, got)
			}
		})
	}
}

// TestZeroLanes16 holds the SWAR lane test to a per-lane reference over
// random words with lanes forced to zero and to single set bits.
func TestZeroLanes16(t *testing.T) {
	src := rng.NewSourceFromString("zero-lanes")
	for trial := 0; trial < 20000; trial++ {
		x := src.Uint64()
		for k := 0; k < 4; k++ {
			switch src.Uniform(4) {
			case 0:
				x &^= 0xFFFF << (16 * k)
			case 1:
				x = x&^(0xFFFF<<(16*k)) | 1<<(16*uint64(k)+src.Uniform(16))
			}
		}
		var want uint64
		for k := 0; k < 4; k++ {
			if x>>(16*k)&0xFFFF == 0 {
				want |= 1 << k
			}
		}
		if got := zeroLanes16(x); got != want {
			t.Fatalf("zeroLanes16(%#016x) = %#x, want %#x", x, got, want)
		}
	}
}

// TestSubCmpNarrowTiles holds every path to its record oracle at the
// tile shapes the engine and odd callers produce: a chunk count that is
// not a multiple of the scratch's, a phase period of 3 (neighbouring
// chunks on different comparand rows), 8-byte lanes, a chunk larger
// than the whole scratch (processed in pieces), nonzero word-aligned
// bases, and comparand counts past one register group. The shapes off
// whole words — sub-word chunks, unaligned bases — every path must
// refuse.
func TestSubCmpNarrowTiles(t *testing.T) {
	src := rng.NewSourceFromString("narrow-tiles")
	for _, tc := range []struct {
		n              int
		q              uint64
		chunks, period int
		base, R        int
	}{
		{1024, 1 << 32, 8, 1, 0, 32},
		{1024, 1 << 32, 19, 3, 0, 5},
		{1024, 1 << 32, 9, 2, 37, 3},
		{1024, 1 << 32, 9, 2, 64 * 3, 3},
		{64, 1 << 32, 131, 3, 0, 2},
		{64, 1 << 32, 130, 1, 5, 1},
		{64, 1 << 32, 130, 1, 64, 1},
		{16, 1 << 32, 21, 3, 0, 4},
		{32, 1 << 32, 9, 2, 48, 3},
		{2048, 1 << 54, 6, 2, 0, 32},
		{2048, 1 << 54, 5, 1, 64*3 + 1, 2},
		{2048, 1 << 54, 5, 1, 64 * 3, 2},
		{16384, 1 << 32, 2, 2, 0, 3},
		{16384, 1 << 32, 1, 1, 37, 2},
		{16384, 1 << 32, 1, 1, 64, 2},
		{128, 1 << 20, 70, 3, 64, 65},
	} {
		name := fmt.Sprintf("n%d-q%d-chunks%d-period%d-base%d-R%d", tc.n, tc.q, tc.chunks, tc.period, tc.base, tc.R)
		t.Run(name, func(t *testing.T) {
			kc := newKernelCase(src, tc.n, tc.q, tc.R, tc.base, tc.chunks%7, tc.chunks, tc.period)
			tile := kc.tile()
			if tc.n < 64 || tc.base&63 != 0 {
				for _, p := range AvailableKernels() {
					withKernel(t, p, func() {
						if !narrowRefused(kc.r, tile, kc.low, tc.base) {
							t.Fatalf("path %s accepted a tile off whole words", p)
						}
					})
				}
				return
			}
			want := wantNarrowRecords(kc.r, tile, kc.low, tc.base)
			hits := 0
			for _, h := range want {
				hits += popcount(h.Mask)
			}
			if hits == 0 && tc.R > 0 {
				t.Fatal("no planted hit survived; the case tests nothing")
			}
			for _, p := range AvailableKernels() {
				withKernel(t, p, func() {
					got := narrowRecords(kc.r, tile, kc.low, tc.base)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("path %s: record %d of %d/%d: %s, want %s", p, i, len(got), len(want), recordAt(got, i), recordAt(want, i))
					}
				})
			}
		})
	}
}

// TestSubCmpNarrowSparseHits holds every path to its record oracle on
// the shape of a real search: every difference carries low's low part,
// so the guard passes everywhere, random lanes almost never hit, and
// one hit is planted per block, in the low half of some blocks and the
// high half of others, for one comparand each — the blocks the avx512
// hit-row pass compares in one half only. Comparand counts on both
// sides of the 64 that pass marks.
func TestSubCmpNarrowSparseHits(t *testing.T) {
	for _, tc := range []struct {
		n, chunks, R int
		q            uint64
	}{
		{1024, 11, 40, 1 << 32},
		{1024, 9, 70, 1 << 32},
		{2048, 5, 32, 1 << 54},
	} {
		t.Run(fmt.Sprintf("n%d-R%d-q%d", tc.n, tc.R, tc.q), func(t *testing.T) {
			r := MustNew(tc.n, tc.q)
			src := rng.NewSourceFromString("narrow-sparse")
			s, _ := r.NarrowShift()
			lm := uint64(1)<<s - 1
			low := r.NewPoly()
			r.UniformPoly(src, low)
			rhs := make([]Poly, tc.R)
			for v := range rhs {
				rhs[v] = r.NewPoly()
				r.UniformPoly(src, rhs[v])
			}
			top := paddedRows(narrowRows(r, rhs))
			tile := make([]NarrowChunk, tc.chunks)
			for c := range tile {
				a, diff, d := r.NewPoly(), r.NewPoly(), r.NewPoly()
				r.UniformPoly(src, a)
				r.UniformPoly(src, diff)
				for i := range diff {
					diff[i] = diff[i]&^lm | low[i]&lm
				}
				r.Sub(a, diff, d)
				for k := 0; k < tc.n/64; k++ {
					i := 64*k + (c*7+k*13)%64
					top[(c+k)%tc.R][i] = uint16(diff[i] >> s)
				}
				tile[c] = NarrowChunk{A: a, D: laneRow(r, d, c%5), Top: top}
			}
			want := wantNarrowRecords(r, tile, low, 0)
			if len(want) < tc.chunks*tc.n/64/2 {
				t.Fatalf("only %d records for %d blocks; the planted hits did not survive", len(want), tc.chunks*tc.n/64)
			}
			for _, p := range AvailableKernels() {
				withKernel(t, p, func() {
					got := narrowRecords(r, tile, low, 0)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("path %s: record %d of %d/%d: %s, want %s", p, i, len(got), len(want), recordAt(got, i), recordAt(want, i))
					}
				})
			}
		})
	}
}

// TestSubCmpNarrowRejectsSubWords pins the kernel's precondition: on
// every path, a tile of chunks below one bitset word (n = 32) or at a
// base off a word boundary (37) panics with the sentinel errSubWord
// instead of emitting records.
func TestSubCmpNarrowRejectsSubWords(t *testing.T) {
	src := rng.NewSourceFromString("narrow-sub-word")
	for _, tc := range []struct{ n, base int }{{32, 0}, {32, 64}, {1024, 37}, {64, 32}} {
		kc := newKernelCase(src, tc.n, 1<<32, 2, tc.base, 0, 3, 1)
		for _, p := range AvailableKernels() {
			withKernel(t, p, func() {
				if !narrowRefused(kc.r, kc.tile(), kc.low, tc.base) {
					t.Fatalf("path %s: n=%d base %d accepted, want a panic with errSubWord", p, tc.n, tc.base)
				}
			})
		}
	}
}

// TestSubCmpNarrowBitsZeroAllocs pins 0 allocs per call on every path
// and family, at two word-aligned bases; below a word (n = 16) it pins
// the refusal: the panic carries a sentinel, so it allocates nothing
// either.
func TestSubCmpNarrowBitsZeroAllocs(t *testing.T) {
	for _, p := range AvailableKernels() {
		t.Run(p.String(), func(t *testing.T) {
			for _, fam := range narrowFamilies {
				t.Run(fam.name, func(t *testing.T) {
					kc := newKernelCase(rng.NewSourceFromString("narrow-allocs"), fam.n, fam.q, 3, 0, 3, scratchChunks(fam.n)+1, 2)
					tile := kc.tile()
					out := make([]HitWord, tileRoom(tile))
					withKernel(t, p, func() {
						if fam.n < 64 {
							refused := false
							if avg := testing.AllocsPerRun(100, func() {
								defer func() { refused = recover() == errSubWord }()
								kc.r.SubCmpNarrowBits(tile, kc.low, out, 0)
							}); avg != 0 || !refused {
								t.Fatalf("sub-word SubCmpNarrowBits: refused %v, %.1f allocs per call, want a refusal and 0", refused, avg)
							}
							return
						}
						for _, base := range []int{0, 64} {
							if avg := testing.AllocsPerRun(100, func() {
								kc.r.SubCmpNarrowBits(tile, kc.low, out, base)
							}); avg != 0 {
								t.Fatalf("SubCmpNarrowBits (base %d) allocates %.1f times per call, want 0", base, avg)
							}
						}
					})
				})
			}
		})
	}
}

func popcount(w uint64) int {
	c := 0
	for ; w != 0; w &= w - 1 {
		c++
	}
	return c
}
