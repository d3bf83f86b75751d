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
					for _, base := range []int{0, 37, 64, 64*5 + 63} {
						words := (base + fam.n + 63) / 64
						wide := make([][]uint64, R)
						for v := range wide {
							wide[v] = make([]uint64, words)
						}
						r.SubCmpMultiBits(a, d, rhs, wide, base)
						for _, p := range AvailableKernels() {
							withKernel(t, p, func() {
								narrow := make([][]uint64, R)
								for v := range narrow {
									narrow[v] = make([]uint64, words)
								}
								r.SubCmpNarrowBits(a, d, low, top, narrow, base)
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
	for _, p := range AvailableKernels() {
		withKernel(t, p, func() {
			bits := [][]uint64{make([]uint64, 3)}
			r.SubCmpNarrowBits(a, d, off, top, bits, 5)
			if bits[0][0]|bits[0][1]|bits[0][2] != 0 {
				t.Fatalf("path %s: low-part mismatch produced hits %#x", p, bits[0])
			}
			r.SubCmpNarrowBits(a, d, diff, top, bits, 5)
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
					bits := make([][]uint64, len(rhs))
					for v := range bits {
						bits[v] = make([]uint64, (64+fam.n+63)/64)
					}
					withKernel(t, p, func() {
						for _, base := range []int{0, 37} {
							if avg := testing.AllocsPerRun(100, func() {
								r.SubCmpNarrowBits(a, d, low, top, bits, base)
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
