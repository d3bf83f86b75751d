package ring

import (
	"testing"

	"ciphermatch/internal/rng"
)

// The search kernels are cmvet //cm:hotpath functions: the hotpath
// analyzer proves there are no allocation *sites* in their bodies, and
// these tests close the loop at runtime — zero allocations per call,
// for both modulus families, so a regression that sneaks an allocation
// past the static check (e.g. an interface conversion in a callee)
// still fails CI.

func allocFixture(t *testing.T, n int, q uint64, numRHS int) (*Ring, Poly, Poly, []Poly, [][]uint64) {
	t.Helper()
	r := MustNew(n, q)
	src := rng.NewSourceFromString("ring-allocs")
	a, d := r.NewPoly(), r.NewPoly()
	r.UniformPoly(src, a)
	r.UniformPoly(src, d)
	rhs := make([]Poly, numRHS)
	bits := make([][]uint64, numRHS)
	for v := range rhs {
		rhs[v] = r.NewPoly()
		r.UniformPoly(src, rhs[v])
		// Sized for the unaligned-base calls below: base+n bits.
		bits[v] = make([]uint64, (64+n+63)/64)
	}
	return r, a, d, rhs, bits
}

// The pins run under every available dispatch path (generic, unrolled,
// and avx2 where the host supports it): the unrolled path must not let
// a re-slice escape, and the assembly drivers' 64-word stack buffers
// must stay stack-allocated (//go:noescape on the stubs).

func TestSubCmpMultiBitsZeroAllocs(t *testing.T) {
	for _, p := range AvailableKernels() {
		t.Run(p.String(), func(t *testing.T) {
			for _, fam := range kernelFamilies {
				t.Run(fam.name, func(t *testing.T) {
					r, a, d, rhs, bits := allocFixture(t, fam.n, fam.q, 3)
					withKernel(t, p, func() {
						if avg := testing.AllocsPerRun(100, func() {
							r.SubCmpMultiBits(a, d, rhs, bits, 0)
						}); avg != 0 {
							t.Fatalf("SubCmpMultiBits allocates %.1f times per call, want 0", avg)
						}
						// Unaligned base takes the scalar prologue/epilogue path too.
						if avg := testing.AllocsPerRun(100, func() {
							r.SubCmpMultiBits(a, d, rhs, bits, 37)
						}); avg != 0 {
							t.Fatalf("SubCmpMultiBits (unaligned) allocates %.1f times per call, want 0", avg)
						}
					})
				})
			}
		})
	}
}

func TestCmpEqScalarBitsZeroAllocs(t *testing.T) {
	for _, p := range AvailableKernels() {
		t.Run(p.String(), func(t *testing.T) {
			for _, fam := range kernelFamilies {
				t.Run(fam.name, func(t *testing.T) {
					_, a, _, rhs, bits := allocFixture(t, fam.n, fam.q, 1)
					withKernel(t, p, func() {
						if avg := testing.AllocsPerRun(100, func() {
							CmpEqScalarBits(a, rhs[0][0], bits[0], 5)
						}); avg != 0 {
							t.Fatalf("CmpEqScalarBits allocates %.1f times per call, want 0", avg)
						}
					})
				})
			}
		})
	}
}
