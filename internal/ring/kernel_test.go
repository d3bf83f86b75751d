package ring

import (
	"encoding/binary"
	"testing"

	"ciphermatch/internal/rng"
)

// withKernel runs f under the named dispatch path and restores the
// previous one, so tests can't leak a forced path into the rest of the
// suite.
func withKernel(t testing.TB, p KernelPath, f func()) {
	t.Helper()
	prev := ActiveKernel()
	if err := SetKernel(p); err != nil {
		t.Fatalf("SetKernel(%s): %v", p, err)
	}
	defer func() {
		if err := SetKernel(prev); err != nil {
			t.Fatalf("restoring kernel path %s: %v", prev, err)
		}
	}()
	f()
}

func TestKernelPathNames(t *testing.T) {
	for _, p := range []KernelPath{KernelGeneric, KernelUnrolled, KernelAVX2} {
		got, err := ParseKernelPath(p.String())
		if err != nil {
			t.Fatalf("ParseKernelPath(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParseKernelPath(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := ParseKernelPath("sse9"); err == nil {
		t.Fatal("ParseKernelPath accepted an unknown path")
	}
	if err := SetKernelByName("neon"); err == nil {
		t.Fatal("SetKernelByName accepted an unknown path")
	}
}

func TestSetKernelAvailability(t *testing.T) {
	prev := ActiveKernel()
	defer SetKernel(prev)
	if err := SetKernel(KernelUnrolled); err != nil {
		t.Fatalf("unrolled must always be available: %v", err)
	}
	if err := SetKernel(KernelGeneric); err != nil {
		t.Fatalf("generic must always be available: %v", err)
	}
	if AVX2Supported() {
		if err := SetKernel(KernelAVX2); err != nil {
			t.Fatalf("avx2 reported supported but SetKernel refused: %v", err)
		}
	} else if err := SetKernel(KernelAVX2); err == nil {
		t.Fatal("SetKernel(avx2) must refuse on a machine without AVX2")
	}
	if err := SetKernel(KernelPath(99)); err == nil {
		t.Fatal("SetKernel accepted an unknown path value")
	}
	avail := AvailableKernels()
	if len(avail) < 2 || avail[0] != KernelGeneric || avail[1] != KernelUnrolled {
		t.Fatalf("AvailableKernels() = %v, want generic and unrolled first", avail)
	}
	if AVX2Supported() != (len(avail) == 3 && avail[2] == KernelAVX2) {
		t.Fatalf("AvailableKernels() = %v inconsistent with AVX2Supported()=%v", avail, AVX2Supported())
	}
}

func TestGodebugDisablesAVX2(t *testing.T) {
	for _, tc := range []struct {
		godebug string
		want    bool
	}{
		{"", false},
		{"cpu.avx2=off", true},
		{"gctrace=1,cpu.avx2=off", true},
		{"gctrace=1, cpu.avx2=off ,x=1", true},
		{"cpu.avx2=on", false},
		{"cpu.avx512=off", false},
	} {
		if got := godebugDisablesAVX2(tc.godebug); got != tc.want {
			t.Errorf("godebugDisablesAVX2(%q) = %v, want %v", tc.godebug, got, tc.want)
		}
	}
}

// kernelCase is one randomised kernel workload shared by the
// cross-path property test and the differential fuzzer.
type kernelCase struct {
	r    *Ring
	a, d Poly   // subcmp operands
	rhs  []Poly // subcmp comparands
	base int
}

// newKernelCase builds polynomials with hits planted at ~1/4 of the
// coefficients so the verdict words are neither all-zero nor all-one.
func newKernelCase(src *rng.Source, n int, q uint64, R, base int) kernelCase {
	r := MustNew(n, q)
	a, d := r.NewPoly(), r.NewPoly()
	r.UniformPoly(src, a)
	r.UniformPoly(src, d)
	diff := r.NewPoly()
	r.Sub(a, d, diff)
	rhs := make([]Poly, R)
	for v := range rhs {
		rhs[v] = r.NewPoly()
		r.UniformPoly(src, rhs[v])
		for i := range rhs[v] {
			if src.Uniform(4) == 0 {
				rhs[v][i] = diff[i]
			}
		}
	}
	return kernelCase{r: r, a: a, d: d, rhs: rhs, base: base}
}

// runAllKernels executes the two exported kernels under every
// available dispatch path and fails the test unless each path's
// bitsets are bit-identical to the generic baseline's.
func runAllKernels(t testing.TB, tc kernelCase) {
	t.Helper()
	words := (tc.base + tc.r.N() + 63) / 64
	type result struct {
		sub   [][]uint64
		cmpeq []uint64
	}
	results := make(map[KernelPath]result)
	for _, p := range AvailableKernels() {
		withKernel(t, p, func() {
			res := result{
				sub:   make([][]uint64, len(tc.rhs)),
				cmpeq: make([]uint64, words),
			}
			for v := range res.sub {
				res.sub[v] = make([]uint64, words)
			}
			tc.r.SubCmpMultiBits(tc.a, tc.d, tc.rhs, res.sub, tc.base)
			CmpEqScalarBits(tc.a, tc.a[0], res.cmpeq, tc.base)
			results[p] = res
		})
	}
	ref := results[KernelGeneric]
	for _, p := range AvailableKernels() {
		if p == KernelGeneric {
			continue
		}
		got := results[p]
		for v := range ref.sub {
			for w := range ref.sub[v] {
				if got.sub[v][w] != ref.sub[v][w] {
					t.Fatalf("SubCmpMultiBits path %s: rhs %d word %d = %#x, generic %#x (n=%d q=%d base=%d)",
						p, v, w, got.sub[v][w], ref.sub[v][w], tc.r.N(), tc.r.Q(), tc.base)
				}
			}
		}
		for w := range ref.cmpeq {
			if got.cmpeq[w] != ref.cmpeq[w] {
				t.Fatalf("CmpEqScalarBits path %s: word %d = %#x, generic %#x (n=%d q=%d base=%d)",
					p, w, got.cmpeq[w], ref.cmpeq[w], tc.r.N(), tc.r.Q(), tc.base)
			}
		}
	}
}

// TestKernelPathsBitIdentical is the deterministic cross-path property
// test: every available dispatch path must agree with the generic
// baseline bit for bit, across modulus families, degrees on both sides
// of the 64-coefficient word body, aligned and unaligned bases, and
// comparand counts bracketing the serving R.
func TestKernelPathsBitIdentical(t *testing.T) {
	src := rng.NewSourceFromString("kernel-paths")
	for _, fam := range kernelFamilies {
		t.Run(fam.name, func(t *testing.T) {
			for _, base := range []int{0, 37, 64, 64*5 + 63} {
				for _, R := range []int{1, 4} {
					for trial := 0; trial < 6; trial++ {
						runAllKernels(t, newKernelCase(src, fam.n, fam.q, R, base))
					}
				}
			}
		})
	}
}

// fuzzQs are the modulus grid of FuzzKernelPaths: the paper's 2^32,
// another power of two, and generic moduli spanning small primes to
// just under the 2^57 cap.
var fuzzQs = []uint64{
	1 << 32,
	1 << 20,
	12289,
	(1 << 40) + 15,
	(1 << 56) + 7,
}

// fuzzNs are the degree grid: both sides of the 64-coefficient word
// body, plus the paper's n=1024.
var fuzzNs = []int{16, 64, 128, 1024}

// FuzzKernelPaths is the differential fuzzer of the dispatch layer:
// random modulus family, degree, base alignment, comparand count and
// coefficient streams, asserting the generic, unrolled and (where
// present) avx2 paths produce bit-identical hit bitsets for both
// kernels. A divergence here is a miscompare in a rewritten kernel —
// exactly the bug class that must be impossible before a new path can
// ship.
func FuzzKernelPaths(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0), uint8(1))
	f.Add(uint64(2), uint8(2), uint8(1), uint16(37), uint8(4))
	f.Add(uint64(3), uint8(3), uint8(2), uint16(63), uint8(3))
	f.Add(uint64(4), uint8(4), uint8(3), uint16(129), uint8(5))
	f.Add(uint64(5), uint8(1), uint8(1), uint16(64), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, qSel, nSel uint8, baseRaw uint16, rRaw uint8) {
		q := fuzzQs[int(qSel)%len(fuzzQs)]
		n := fuzzNs[int(nSel)%len(fuzzNs)]
		base := int(baseRaw) % (3 * 64)
		R := 1 + int(rRaw)%5
		var seedBytes [32]byte
		binary.LittleEndian.PutUint64(seedBytes[:8], seed)
		src := rng.NewSource(seedBytes)
		runAllKernels(t, newKernelCase(src, n, q, R, base))
	})
}
