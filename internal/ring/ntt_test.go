package ring

import (
	"testing"

	"ciphermatch/internal/rng"
)

func nttTestRing(t *testing.T, n int) *Ring {
	t.Helper()
	q, err := FindNTTPrime(45, n)
	if err != nil {
		t.Fatal(err)
	}
	r := MustNew(n, q)
	if !r.NTTAvailable() {
		t.Fatalf("NTT unavailable for q=%d, n=%d", q, n)
	}
	return r
}

func TestFindNTTPrime(t *testing.T) {
	for _, n := range []int{64, 1024, 2048} {
		q, err := FindNTTPrime(45, n)
		if err != nil {
			t.Fatal(err)
		}
		if (q-1)%uint64(2*n) != 0 {
			t.Fatalf("q=%d not ≡ 1 mod %d", q, 2*n)
		}
	}
	if _, err := FindNTTPrime(8, 64); err == nil {
		t.Error("accepted undersized bit length")
	}
}

func TestNTTUnavailableForPow2(t *testing.T) {
	r := MustNew(64, 1<<32)
	if r.NTTAvailable() {
		t.Fatal("NTT must be unavailable for power-of-two moduli")
	}
}

func TestNTTForwardInverseRoundtrip(t *testing.T) {
	r := nttTestRing(t, 64)
	src := rng.NewSourceFromString("ntt-rt")
	a := randomPoly(r, src)
	orig := r.Clone(a)
	tbl := r.nativeNTT()
	tbl.forward(a)
	for i := range a { // lazy [0, 4p) forward output → inverse's [0, 2p) input
		a[i] = condSub(a[i], 2*tbl.p)
	}
	tbl.inverse(a)
	tbl.scaleReduce(a)
	if !r.Equal(a, orig) {
		t.Fatal("NTT followed by INTT is not the identity")
	}
}

func TestMulNTTAgainstSchoolbook(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		r := nttTestRing(t, n)
		src := rng.NewSourceFromString("ntt-mul")
		for trial := 0; trial < 3; trial++ {
			a := randomPoly(r, src)
			b := randomPoly(r, src)
			want := r.NewPoly()
			r.MulSchoolbook(a, b, want)
			got := r.NewPoly()
			r.MulNTT(a, b, got)
			if !r.Equal(got, want) {
				t.Fatalf("n=%d trial %d: MulNTT != MulSchoolbook", n, trial)
			}
			// The default dispatch must pick NTT for this ring and agree.
			viaMul := r.NewPoly()
			r.Mul(a, b, viaMul)
			if !r.Equal(viaMul, want) {
				t.Fatalf("n=%d: Mul dispatch wrong for NTT ring", n)
			}
		}
	}
}

func TestNTTNegacyclicProperty(t *testing.T) {
	// X^(n-1) * X = X^n = -1: the transform must honour the negacyclic
	// wrap, not the cyclic one.
	r := nttTestRing(t, 64)
	a := r.NewPoly()
	a[r.N()-1] = 1
	x := r.NewPoly()
	x[1] = 1
	out := r.NewPoly()
	r.MulNTT(a, x, out)
	want := r.NewPoly()
	want[0] = r.Q() - 1
	if !r.Equal(out, want) {
		t.Fatalf("X^(n-1)·X = %v..., want -1 at constant term", out[:2])
	}
}

func TestModHelpers(t *testing.T) {
	const q = 65537
	if addMod(65530, 10, q) != 3 {
		t.Error("addMod")
	}
	if mulMod(65536, 65536, q) != 1 { // (-1)·(-1) = 1
		t.Error("mulMod")
	}
	if powMod(3, q-1, q) != 1 { // Fermat
		t.Error("powMod")
	}
	if mulMod(invMod(12345, q), 12345, q) != 1 {
		t.Error("invMod")
	}
}
