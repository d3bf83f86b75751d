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

// BenchmarkSubCmpMultiBits times the 64-bit reference kernel at the
// comparand counts that matter for serving (R = 1, 8 for the storm and
// tenant workloads, 32 for the 2-bit DNA alphabet), reporting
// coefficients/sec — one row per R, as the kernel runs one loop on
// every path. BenchmarkSubCmpNarrowBits is the per-path table of the
// kernel searches run.
//
//	go test -run '^$' -bench 'BenchmarkSubCmpMultiBits$' ./internal/ring
func BenchmarkSubCmpMultiBits(b *testing.B) {
	const n = 4096
	r := MustNew(n, 1<<32)
	src := rng.NewSourceFromString("subcmp-bench")
	a, d := r.NewPoly(), r.NewPoly()
	r.UniformPoly(src, a)
	r.UniformPoly(src, d)
	const maxR = 32
	rhs := make([]Poly, maxR)
	for v := range rhs {
		rhs[v] = r.NewPoly()
		r.UniformPoly(src, rhs[v])
	}
	for _, R := range []int{1, 8, maxR} {
		b.Run("R="+itoa(R), func(b *testing.B) {
			bits := make([][]uint64, R)
			for v := range bits {
				bits[v] = make([]uint64, n/64)
			}
			b.SetBytes(2 * n * 8) // a and d, each streamed once per call
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.SubCmpMultiBits(a, d, rhs[:R], bits, 0)
			}
			coeffs := float64(n) * float64(R) * float64(b.N)
			b.ReportMetric(coeffs/b.Elapsed().Seconds(), "coeffs/s")
		})
	}
	b.Run("dna_scan", benchDNAScanSweep)
}

// benchDNAScanSweep sweeps the bench's dna_scan geometry through the
// narrow kernel on every available path, plus one row of the 64-bit
// reference: 2 048 chunks of 1 024 coefficients at q = 2^32 and R = 32
// comparands that share their low bits, as a seeded query's do. The
// token plane is derived as a seeded query's is: every difference D =
// C0 − token carries low's low part, so the guard passes at every
// coefficient, and D's random high part hits some comparand at about
// one lane in 2 048 (≈ 1 000 records a sweep, reported as records/op).
// Those are the narrow rows. The saturated rows plant one hit in every
// 64-coefficient block, the worst case of a kernel that filters blocks
// before it compares them exactly. Calls go tile by tile (TileChunks),
// over comparand rows laid out as the engine lays them out. The narrow kernel reads the token plane in
// its 4-byte lanes (8 MiB), the reference as a widened Poly (16 MiB);
// with the 16 MiB arena both are far larger than any cache, so one op
// is one DRAM-resident search sweep and the reported MB/s is the stream
// rate over what each reads.
//
//	go test -run '^$' -bench 'BenchmarkSubCmpMultiBits$/dna_scan' ./internal/ring
func benchDNAScanSweep(b *testing.B) {
	const chunks, n, R = 2048, 1024, 32
	const q32 = 1<<32 - 1
	r := MustNew(n, 1<<32)
	src := rng.NewSourceFromString("dna-scan-sweep")
	low := r.NewPoly()
	r.UniformPoly(src, low)
	rhs := make([]Poly, R)
	for v := range rhs {
		rhs[v] = r.NewPoly()
		r.UniformPoly(src, rhs[v])
		for i := range rhs[v] {
			rhs[v][i] = rhs[v][i]&^0xFFFF | low[i]&0xFFFF
		}
	}
	top := paddedRows(narrowRows(r, rhs))
	arena, plane, hot := make(Poly, chunks*n), make(Poly, chunks*n), make(Poly, chunks*n)
	for i := range arena {
		j := i % n
		arena[i] = src.Uint64() & q32
		plane[i] = (arena[i] - (src.Uint64()&^0xFFFF | low[j]&0xFFFF)) & q32
		hot[i] = plane[i]
		if blk := i >> 6; i&63 == blk*7&63 {
			hot[i] = (arena[i] - rhs[blk%R][j]) & q32
		}
	}
	lb := n * r.LaneBytes()
	lanes, hotLanes := make([]byte, chunks*lb), make([]byte, chunks*lb)
	r.PutLanes(lanes, plane)
	r.PutLanes(hotLanes, hot)
	per := TileChunks(n)
	out := make([]HitWord, per*HitRoom(n, R)) // one tile's records, overwritten per call
	sweep := func(d []byte) int {
		var tile [MaxTileChunks]NarrowChunk
		records := 0
		for j := 0; j < chunks; j += per {
			for c := range tile[:per] {
				k := j + c
				tile[c] = NarrowChunk{A: arena[k*n : (k+1)*n], D: d[k*lb : (k+1)*lb], Top: top}
			}
			records += r.SubCmpNarrowBits(tile[:per], low, out, j*n)
		}
		return records
	}
	for _, p := range AvailableKernels() {
		for _, row := range []struct {
			name string
			d    []byte
		}{{"narrow", lanes}, {"saturated", hotLanes}} {
			b.Run(p.String()+"/"+row.name, func(b *testing.B) {
				withKernel(b, p, func() {
					b.SetBytes(int64(chunks * n * (8 + r.LaneBytes())))
					records := 0
					for i := 0; i < b.N; i++ {
						records = sweep(row.d)
					}
					b.ReportMetric(float64(records), "records/op")
				})
			})
		}
	}
	bits := make([][]uint64, R)
	for v := range bits {
		bits[v] = make([]uint64, chunks*n/64)
	}
	b.Run("wide", func(b *testing.B) {
		b.SetBytes(2 * chunks * n * 8)
		for i := 0; i < b.N; i++ {
			for j := 0; j < chunks; j++ {
				r.SubCmpMultiBits(arena[j*n:(j+1)*n], plane[j*n:(j+1)*n], rhs, bits, j*n)
			}
		}
	})
}

// BenchmarkSubCmpNarrowBits is the per-dispatch-path kernel table of
// the kernel searches run: every available path on the same
// L2-resident n = 4096 poly at q = 2^32 (4-byte token lanes) and the
// same comparand counts as BenchmarkSubCmpMultiBits, plus one R = 32
// row at ParamsN2048's q = 2^54 (8-byte lanes); hits are planted at a
// third of the lanes, so every block reaches the exact compare. It
// reports
// coefficients/sec — the figure of merit for ROADMAP item 1's
// vectorized-kernel work, where ns/op alone hides the multi-lane
// amortisation.
//
//	go test -run '^$' -bench 'BenchmarkSubCmpNarrowBits$' ./internal/ring
func BenchmarkSubCmpNarrowBits(b *testing.B) {
	const n, maxR = 4096, 32
	type shape struct {
		name string
		q    uint64
		rs   []int
	}
	shapes := []shape{{"", 1 << 32, []int{1, 8, maxR}}, {"q54/", 1 << 54, []int{maxR}}}
	for _, p := range AvailableKernels() {
		b.Run(p.String(), func(b *testing.B) {
			withKernel(b, p, func() {
				for _, sh := range shapes {
					r, a, d, low, rhs := newNarrowCase(rng.NewSourceFromString("narrow-bench"), n, sh.q, maxR)
					top := narrowRows(r, rhs)
					lanes := laneRow(r, d, 0)
					for _, R := range sh.rs {
						b.Run(sh.name+"R="+itoa(R), func(b *testing.B) {
							tile := []NarrowChunk{{A: a, D: lanes, Top: top[:R]}}
							out := make([]HitWord, HitRoom(n, R))
							b.SetBytes(int64(n * (8 + r.LaneBytes())))
							for i := 0; i < b.N; i++ {
								r.SubCmpNarrowBits(tile, low, out, 0)
							}
							coeffs := float64(n) * float64(R) * float64(b.N)
							b.ReportMetric(coeffs/b.Elapsed().Seconds(), "coeffs/s")
						})
					}
				}
			})
		})
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
