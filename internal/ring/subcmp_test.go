package ring

import (
	"testing"

	"ciphermatch/internal/rng"
)

// TestSubCmpMultiBitsMatchesSubCompare is the property test of the
// residue-fused kernel: for every comparand, SubCmpMultiBits must agree
// bit for bit with the unfused subtract-then-compare pipeline on random
// polynomials, at aligned and unaligned base offsets, for both modulus
// families, with 1..5 comparands per call.
func TestSubCmpMultiBitsMatchesSubCompare(t *testing.T) {
	for _, fam := range kernelFamilies {
		t.Run(fam.name, func(t *testing.T) {
			r := MustNew(fam.n, fam.q)
			src := rng.NewSourceFromString("subcmp-" + fam.name)
			for trial := 0; trial < 24; trial++ {
				a, d := r.NewPoly(), r.NewPoly()
				r.UniformPoly(src, a)
				r.UniformPoly(src, d)
				diff := r.NewPoly()
				r.Sub(a, d, diff)
				numRHS := 1 + int(src.Uniform(5))
				rhs := make([]Poly, numRHS)
				for v := range rhs {
					rhs[v] = r.NewPoly()
					r.UniformPoly(src, rhs[v])
					// Force hits at random positions: a random comparand
					// rarely equals the difference, so plant exact matches.
					for i := range rhs[v] {
						if src.Uniform(4) == 0 {
							rhs[v][i] = diff[i]
						}
					}
				}
				for _, base := range []int{0, 64, fam.n, 37} {
					bits := make([][]uint64, numRHS)
					for v := range bits {
						bits[v] = make([]uint64, (base+fam.n+63)/64)
					}
					r.SubCmpMultiBits(a, d, rhs, bits, base)
					for v := 0; v < numRHS; v++ {
						for i := 0; i < fam.n; i++ {
							want := diff[i] == rhs[v][i]
							got := bits[v][(base+i)>>6]&(1<<(uint(base+i)&63)) != 0
							if got != want {
								t.Fatalf("trial %d rhs %d base %d coeff %d: fused=%v, sub+compare=%v",
									trial, v, base, i, got, want)
							}
						}
						// No bit outside [base, base+n) may be touched.
						for w := range bits[v] {
							for bit := 0; bit < 64; bit++ {
								idx := w*64 + bit
								if idx >= base && idx < base+fam.n {
									continue
								}
								if bits[v][w]&(1<<uint(bit)) != 0 {
									t.Fatalf("trial %d rhs %d base %d: stray bit %d set", trial, v, base, idx)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestSubCmpMultiBitsAccumulates: bits already set must survive calls
// over other base ranges (the kernels accumulate chunk by chunk), and
// calls with zero comparands must be no-ops.
func TestSubCmpMultiBitsAccumulates(t *testing.T) {
	r := MustNew(64, 1<<32)
	src := rng.NewSourceFromString("subcmp-acc")
	a, d := r.NewPoly(), r.NewPoly()
	r.UniformPoly(src, a)
	r.UniformPoly(src, d)
	rhs := r.NewPoly()
	r.Sub(a, d, rhs) // every coefficient hits
	bits := [][]uint64{make([]uint64, 2)}
	r.SubCmpMultiBits(a, d, []Poly{rhs}, bits, 0)
	r.SubCmpMultiBits(a, d, []Poly{rhs}, bits, 64)
	for w := 0; w < 2; w++ {
		if bits[0][w] != ^uint64(0) {
			t.Fatalf("word %d = %#x after accumulating two full-hit ranges", w, bits[0][w])
		}
	}
	r.SubCmpMultiBits(a, d, nil, nil, 0) // zero comparands: must not panic
}

// TestSubCmpMultiBitsUnalignedBases sweeps every base alignment within a
// word (plus a few word offsets) and checks the prologue + word body +
// epilogue decomposition against a reference scalar evaluation. This
// pins the unaligned fast path: before the prologue existed, any
// unaligned base fell back to the fully scalar loop (correct but slow),
// so only correctness was covered — now the word body must also engage
// mid-polynomial without setting or dropping a single bit.
func TestSubCmpMultiBitsUnalignedBases(t *testing.T) {
	for _, fam := range kernelFamilies {
		t.Run(fam.name, func(t *testing.T) {
			r := MustNew(fam.n, fam.q)
			src := rng.NewSourceFromString("subcmp-unaligned-" + fam.name)
			a, d := r.NewPoly(), r.NewPoly()
			r.UniformPoly(src, a)
			r.UniformPoly(src, d)
			diff := r.NewPoly()
			r.Sub(a, d, diff)
			rhs := []Poly{r.NewPoly(), r.NewPoly()}
			for v := range rhs {
				r.UniformPoly(src, rhs[v])
				for i := range rhs[v] {
					if src.Uniform(3) == 0 {
						rhs[v][i] = diff[i]
					}
				}
			}
			bases := make([]int, 0, 70)
			for b := 0; b < 66; b++ {
				bases = append(bases, b)
			}
			bases = append(bases, 127, 128, 1000, 64*37+13)
			for _, base := range bases {
				words := (base + fam.n + 63) / 64
				bits := make([][]uint64, len(rhs))
				for v := range bits {
					bits[v] = make([]uint64, words)
				}
				r.SubCmpMultiBits(a, d, rhs, bits, base)
				for v := range rhs {
					for i := 0; i < fam.n; i++ {
						want := diff[i] == rhs[v][i]
						got := bits[v][(base+i)>>6]&(1<<(uint(base+i)&63)) != 0
						if got != want {
							t.Fatalf("base %d rhs %d coeff %d: got %v want %v", base, v, i, got, want)
						}
					}
					// Words below the base range must stay untouched.
					for w := 0; w < base>>6; w++ {
						if bits[v][w] != 0 {
							t.Fatalf("base %d rhs %d: word %d below base written", base, v, w)
						}
					}
				}
			}
		})
	}
}

// BenchmarkSubCmpMultiBits measures the residue-fused kernel at the
// comparand counts that matter for serving (R shift variants per query),
// reporting coefficients/sec — the figure of merit for ROADMAP item 1's
// vectorized-kernel work, where ns/op alone hides the multi-lane
// amortisation. The aligned case is the arena hot path; the unaligned
// case exercises the scalar-prologue + word-body split.
func BenchmarkSubCmpMultiBits(b *testing.B) {
	const n = 4096
	r := MustNew(n, 1<<32)
	src := rng.NewSourceFromString("subcmp-bench")
	a, d := r.NewPoly(), r.NewPoly()
	r.UniformPoly(src, a)
	r.UniformPoly(src, d)
	const maxR = 16
	rhs := make([]Poly, maxR)
	for v := range rhs {
		rhs[v] = r.NewPoly()
		r.UniformPoly(src, rhs[v])
	}
	for _, R := range []int{1, 4, 16} {
		for _, base := range []int{0, 37} {
			name := "R=" + itoa(R)
			if base != 0 {
				name += "/unaligned"
			}
			b.Run(name, func(b *testing.B) {
				bits := make([][]uint64, R)
				for v := range bits {
					bits[v] = make([]uint64, (base+n+63)/64)
				}
				b.SetBytes(2 * n * 8) // a and d, each streamed once per call
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.SubCmpMultiBits(a, d, rhs[:R], bits, base)
				}
				coeffs := float64(n) * float64(R) * float64(b.N)
				b.ReportMetric(coeffs/b.Elapsed().Seconds(), "coeffs/s")
			})
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
