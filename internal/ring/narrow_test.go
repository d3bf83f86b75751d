package ring

import (
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

// laneRow stores d as a token row (PutLanes) that starts off bytes into
// its buffer, so the kernels read rows at any alignment, as they do rows
// sliced out of a request payload.
func laneRow(r *Ring, d Poly, off int) []byte {
	buf := make([]byte, off+len(d)*r.LaneBytes())
	r.PutLanes(buf[off:], d)
	return buf[off:]
}

// runNarrow runs SubCmpNarrowBits with exactly HitRoom records of room
// and scatters its records into len(top) dense bitsets of words words:
// the conversion through which the tests compare its hits with
// SubCmpMultiBits' words. It fails unless the records ascend by word
// and comparand inside the call's words and only the call's partial
// edge words carry empty masks.
func runNarrow(t testing.TB, r *Ring, a Poly, d []byte, low Poly, top [][]uint16, base, words int) [][]uint64 {
	t.Helper()
	out := make([]HitWord, HitRoom(len(a), len(top)))
	k := r.SubCmpNarrowBits(a, d, low, top, out, base)
	bits := make([][]uint64, len(top))
	for v := range bits {
		bits[v] = make([]uint64, words)
	}
	first, last := base>>6, (base+len(a)-1)>>6
	for i, h := range out[:k] {
		w := int(h.Word)
		edge := w == first && base&63 != 0 || w == last && (base+len(a))&63 != 0
		switch {
		case w < first || w > last || int(h.Row) >= len(top):
			t.Fatalf("record %d (word %d, row %d) outside the call's %d words from %d and %d rows", i, w, h.Row, last-first+1, first, len(top))
		case i > 0 && (out[i-1].Word > h.Word || out[i-1].Word == h.Word && out[i-1].Row >= h.Row):
			t.Fatalf("record %d (word %d, row %d) does not ascend from (word %d, row %d)", i, w, h.Row, out[i-1].Word, out[i-1].Row)
		case h.Mask == 0 && !edge:
			t.Fatalf("record %d: empty mask for whole word %d", i, w)
		}
		bits[h.Row][w] |= h.Mask
	}
	return bits
}

// narrowFamilies are the rings SubCmpNarrowBits serves and the edges of
// its split: the paper's q = 2^32 (16 low bits) at degrees on both
// sides of the word body, ParamsN2048's q = 2^54 (38 low bits), q =
// 2^20, and q = 2^16, where the low part is empty.
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
// — at aligned and unaligned bases and comparand counts on both sides
// of a 64-comparand group.
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
			if hits == 0 {
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
			bits := runNarrow(t, r, a, lanes, off, top, 5, 3)
			if bits[0][0]|bits[0][1]|bits[0][2] != 0 {
				t.Fatalf("path %s: low-part mismatch produced hits %#x", p, bits[0])
			}
			bits = runNarrow(t, r, a, lanes, diff, top, 5, 3)
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

func TestSubCmpNarrowBitsZeroAllocs(t *testing.T) {
	for _, p := range AvailableKernels() {
		t.Run(p.String(), func(t *testing.T) {
			for _, fam := range narrowFamilies {
				t.Run(fam.name, func(t *testing.T) {
					r, a, d, low, rhs := newNarrowCase(rng.NewSourceFromString("narrow-allocs"), fam.n, fam.q, 3)
					top := narrowRows(r, rhs)
					lanes := laneRow(r, d, 3)
					out := make([]HitWord, HitRoom(fam.n, len(top)))
					withKernel(t, p, func() {
						for _, base := range []int{0, 37} {
							if avg := testing.AllocsPerRun(100, func() {
								r.SubCmpNarrowBits(a, lanes, low, top, out, base)
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
