package ring

import (
	"encoding/binary"
	"math/big"
	"sync"
	"testing"

	"ciphermatch/internal/rng"
)

// mulSmallQs spans the modulus families the auxiliary-prime arm must get
// right: powers of two up to the 2^63 cap (the paper's 2^32 among them),
// an NTT-ready prime, odd moduli on both sides of the auxiliary prime, and
// a tiny one.
var mulSmallQs = []uint64{1 << 32, 1 << 44, 1 << 54, 1 << 63, 12289, (1 << 40) + 15, (1 << 56) + 7, 3}

var mulSmallNs = []int{4, 16, 64, 256}

// boundedPoly draws centred coefficients of magnitude at most
// min(2^bits - 1, q/2): uniform (mode 0), all +bound (1), all -bound (2),
// or a single random nonzero coefficient (3).
func boundedPoly(r *Ring, src *rng.Source, bits uint8, mode uint8) Poly {
	q := r.Q()
	bound := min(uint64(1)<<(bits%64)-1, q/2)
	p := r.NewPoly()
	draw := func() int64 { return int64(src.Uniform(2*bound+1)) - int64(bound) }
	switch mode % 4 {
	case 0:
		for i := range p {
			p[i] = r.fromSmall(draw())
		}
	case 1:
		for i := range p {
			p[i] = bound
		}
	case 2:
		for i := range p {
			p[i] = r.fromSmall(-int64(bound))
		}
	case 3:
		p[src.Intn(len(p))] = r.fromSmall(draw())
	}
	return p
}

// expectExact reports, with big-integer arithmetic independent of the
// implementation, whether n·max(‖a‖,1)·max(‖b‖,1) ≤ (p-1)/2.
func expectExact(r *Ring, a, b Poly) bool {
	na := new(big.Int).SetUint64(max(r.InfNormCentered(a), 1))
	nb := new(big.Int).SetUint64(max(r.InfNormCentered(b), 1))
	lhs := new(big.Int).Mul(na, nb)
	lhs.Mul(lhs, big.NewInt(int64(r.N())))
	limit := new(big.Int).SetUint64((r.aux().p - 1) / 2)
	return lhs.Cmp(limit) <= 0
}

// checkMulSmall runs both entry points of the auxiliary-prime arm against
// MulSchoolbook: the products must be identical, and the exact arm must be
// taken exactly when the norm bound admits it.
func checkMulSmall(t *testing.T, r *Ring, a, b Poly) {
	t.Helper()
	want := r.NewPoly()
	r.MulSchoolbook(a, b, want)
	exact := expectExact(r, a, b)

	got := r.NewPoly()
	if took := r.mulSmall(a, b, got); took != exact {
		t.Fatalf("n=%d q=%d: mulSmall took=%v, bound says %v", r.N(), r.Q(), took, exact)
	} else if took && !r.Equal(got, want) {
		t.Fatalf("n=%d q=%d: mulSmall != MulSchoolbook", r.N(), r.Q())
	}
	r.Mul(a, b, got)
	if !r.Equal(got, want) {
		t.Fatalf("n=%d q=%d: Mul != MulSchoolbook", r.N(), r.Q())
	}
	if took := r.MulTransformed(r.NewOperand(a), r.Transform(b, r.NewPoly()), got); took != exact {
		t.Fatalf("n=%d q=%d: MulTransformed took=%v, bound says %v", r.N(), r.Q(), took, exact)
	}
	if !r.Equal(got, want) {
		t.Fatalf("n=%d q=%d: MulTransformed != MulSchoolbook", r.N(), r.Q())
	}
}

// FuzzMulSmall is the differential fuzzer of the auxiliary-prime product:
// random modulus, degree, operand magnitudes and shapes (uniform, all
// +bound, all -bound, single coefficient), against MulSchoolbook.
func FuzzMulSmall(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(32), uint8(1), uint8(0), uint8(0))  // pk × ternary at q = 2^32
	f.Add(uint64(2), uint8(0), uint8(3), uint8(32), uint8(1), uint8(1), uint8(2))  // all q/2 × all -1
	f.Add(uint64(3), uint8(5), uint8(1), uint8(41), uint8(8), uint8(0), uint8(0))  // odd q, 8-bit digits
	f.Add(uint64(4), uint8(2), uint8(3), uint8(54), uint8(1), uint8(0), uint8(0))  // bound fails: fallback
	f.Add(uint64(5), uint8(3), uint8(1), uint8(63), uint8(63), uint8(3), uint8(3)) // q = 2^63 extremes
	f.Add(uint64(6), uint8(7), uint8(0), uint8(2), uint8(2), uint8(0), uint8(1))   // q = 3
	f.Add(uint64(7), uint8(0), uint8(2), uint8(0), uint8(32), uint8(0), uint8(0))  // zero operand
	f.Fuzz(func(t *testing.T, seed uint64, qSel, nSel, aBits, bBits, aMode, bMode uint8) {
		r := MustNew(mulSmallNs[int(nSel)%len(mulSmallNs)], mulSmallQs[int(qSel)%len(mulSmallQs)])
		var seedBytes [32]byte
		binary.LittleEndian.PutUint64(seedBytes[:8], seed)
		src := rng.NewSource(seedBytes)
		a := boundedPoly(r, src, aBits, aMode)
		b := boundedPoly(r, src, bBits, bMode)
		checkMulSmall(t, r, a, b)
	})
}

// TestMulTransformedZeroAllocs pins the encryption-shaped product (a fixed
// operand times a ternary factor transformed into caller scratch) at zero
// allocations.
func TestMulTransformedZeroAllocs(t *testing.T) {
	r := MustNew(1024, 1<<32)
	src := rng.NewSourceFromString("aux-allocs")
	pk, u := randomPoly(r, src), r.NewPoly()
	r.TernaryPoly(src, u)
	op := r.NewOperand(pk)
	hat, out := r.NewPoly(), r.NewPoly()
	if avg := testing.AllocsPerRun(50, func() {
		if !r.MulTransformed(op, r.Transform(u, hat), out) {
			t.Fatal("pk × ternary at q = 2^32 did not take the exact arm")
		}
	}); avg != 0 {
		t.Fatalf("Transform + MulTransformed allocate %.1f times per call, want 0", avg)
	}
}

// TestNTTFirstUseConcurrent makes the first products on a fresh NTT-ready
// ring from 8 goroutines at once. The tables are built on first use; under
// -race this fails if that build is not synchronised.
func TestNTTFirstUseConcurrent(t *testing.T) {
	q, err := FindNTTPrime(45, 1024)
	if err != nil {
		t.Fatal(err)
	}
	r := MustNew(1024, q)
	src := rng.NewSourceFromString("ntt-first-use")
	a, b := randomPoly(r, src), randomPoly(r, src)
	want := r.NewPoly()
	r.MulSchoolbook(a, b, want)
	outs := make([]Poly, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range outs {
		outs[g] = r.NewPoly()
		wg.Add(1)
		go func(out Poly) {
			defer wg.Done()
			<-start
			r.Mul(a, b, out)
		}(outs[g])
	}
	close(start)
	wg.Wait()
	for g, out := range outs {
		if !r.Equal(out, want) {
			t.Fatalf("goroutine %d: Mul != MulSchoolbook", g)
		}
	}
}
