package ring

import (
	"testing"
	"testing/quick"

	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/rng"
)

// Equal reports whether a and b are identical polynomials.
func (r *Ring) Equal(a, b Poly) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether a is the zero polynomial.
func (r *Ring) IsZero(a Poly) bool {
	for _, c := range a {
		if c != 0 {
			return false
		}
	}
	return true
}

// InfNormCentered returns the maximum absolute value of the centered
// representatives of a's coefficients.
func (r *Ring) InfNormCentered(a Poly) uint64 {
	half := r.q / 2
	var m uint64
	for _, c := range a {
		abs := c
		if c > half {
			abs = r.q - c
		}
		if abs > m {
			m = abs
		}
	}
	return m
}

// Test rings: the paper's modulus family (power of two) and a generic prime
// to keep the implementation honest about modulus assumptions.
var testRings = []struct {
	name string
	n    int
	q    uint64
}{
	{"paper-small", 16, 1 << 32},
	{"paper-n64", 64, 1 << 32},
	{"pow2-q20", 32, 1 << 20},
	{"prime", 16, 65537},
	{"prime-large", 64, (1 << 45) + 59}, // not prime, but odd and generic
}

func randomPoly(r *Ring, src *rng.Source) Poly {
	p := r.NewPoly()
	r.UniformPoly(src, p)
	return p
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		n  int
		q  uint64
		ok bool
	}{
		{16, 1 << 32, true},
		{1024, 1 << 32, true},
		{15, 1 << 32, false},       // not a power of two
		{2, 1 << 32, false},        // too small
		{1 << 15, 1 << 32, false},  // too large
		{16, 1, false},             // modulus too small
		{16, (1 << 57) + 5, false}, // generic modulus too large
		{16, 1 << 63, true},        // largest power-of-two modulus
		{16, 65537, true},
	}
	for _, c := range cases {
		_, err := New(c.n, c.q)
		if (err == nil) != c.ok {
			t.Errorf("New(%d, %d): err=%v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
}

func TestAddSubNegIdentities(t *testing.T) {
	for _, tc := range testRings {
		t.Run(tc.name, func(t *testing.T) {
			r := MustNew(tc.n, tc.q)
			src := rng.NewSourceFromString("ring-" + tc.name)
			a := randomPoly(r, src)
			b := randomPoly(r, src)
			sum := r.NewPoly()
			r.Add(a, b, sum)
			back := r.NewPoly()
			r.Sub(sum, b, back)
			if !r.Equal(back, a) {
				t.Fatal("(a+b)-b != a")
			}
			negA := r.NewPoly()
			r.Neg(a, negA)
			zero := r.NewPoly()
			r.Add(a, negA, zero)
			if !r.IsZero(zero) {
				t.Fatal("a + (-a) != 0")
			}
			// Commutativity.
			sum2 := r.NewPoly()
			r.Add(b, a, sum2)
			if !r.Equal(sum, sum2) {
				t.Fatal("addition not commutative")
			}
		})
	}
}

func TestAddAliasing(t *testing.T) {
	r := MustNew(16, 1<<32)
	src := rng.NewSourceFromString("alias")
	a := randomPoly(r, src)
	b := randomPoly(r, src)
	want := r.NewPoly()
	r.Add(a, b, want)
	got := r.Clone(a)
	r.Add(got, b, got) // out aliases a
	if !r.Equal(got, want) {
		t.Fatal("Add with aliased output differs")
	}
}

func TestMulAgainstSchoolbook(t *testing.T) {
	for _, tc := range testRings {
		t.Run(tc.name, func(t *testing.T) {
			r := MustNew(tc.n, tc.q)
			src := rng.NewSourceFromString("mul-" + tc.name)
			for trial := 0; trial < 5; trial++ {
				a := randomPoly(r, src)
				b := randomPoly(r, src)
				ref := r.NewPoly()
				r.MulSchoolbook(a, b, ref)
				got := r.NewPoly()
				r.Mul(a, b, got)
				if !r.Equal(got, ref) {
					t.Fatalf("Mul != MulSchoolbook (trial %d)", trial)
				}
				if r.qIsPow2 {
					kar := r.NewPoly()
					r.MulKaratsuba(a, b, kar)
					if !r.Equal(kar, ref) {
						t.Fatalf("MulKaratsuba != MulSchoolbook (trial %d)", trial)
					}
				}
			}
		})
	}
}

func TestMulByXIsNegacyclicShift(t *testing.T) {
	// Multiplying by X rotates coefficients up and negates the wrapped one:
	// (sum a_i X^i) * X = -a_{n-1} + a_0 X + ... + a_{n-2} X^{n-1}.
	for _, tc := range testRings {
		r := MustNew(tc.n, tc.q)
		src := rng.NewSourceFromString("negacyclic-" + tc.name)
		a := randomPoly(r, src)
		x := r.NewPoly()
		x[1] = 1
		got := r.NewPoly()
		r.Mul(a, x, got)
		want := r.NewPoly()
		want[0] = r.reduce(0 - a[r.N()-1])
		if !r.qIsPow2 && a[r.N()-1] != 0 {
			want[0] = r.Q() - a[r.N()-1]
		}
		for i := 1; i < r.N(); i++ {
			want[i] = a[i-1]
		}
		if !r.Equal(got, want) {
			t.Fatalf("%s: X-shift mismatch", tc.name)
		}
	}
}

func TestMulRingAxioms(t *testing.T) {
	for _, tc := range testRings {
		t.Run(tc.name, func(t *testing.T) {
			r := MustNew(tc.n, tc.q)
			src := rng.NewSourceFromString("axioms-" + tc.name)
			a := randomPoly(r, src)
			b := randomPoly(r, src)
			c := randomPoly(r, src)

			ab := r.NewPoly()
			ba := r.NewPoly()
			r.Mul(a, b, ab)
			r.Mul(b, a, ba)
			if !r.Equal(ab, ba) {
				t.Fatal("multiplication not commutative")
			}

			// Distributivity: a*(b+c) == a*b + a*c.
			bc := r.NewPoly()
			r.Add(b, c, bc)
			lhs := r.NewPoly()
			r.Mul(a, bc, lhs)
			ac := r.NewPoly()
			r.Mul(a, c, ac)
			rhs := r.NewPoly()
			r.Add(ab, ac, rhs)
			if !r.Equal(lhs, rhs) {
				t.Fatal("multiplication not distributive over addition")
			}

			// Associativity: (a*b)*c == a*(b*c).
			abc1 := r.NewPoly()
			r.Mul(ab, c, abc1)
			bcProd := r.NewPoly()
			r.Mul(b, c, bcProd)
			abc2 := r.NewPoly()
			r.Mul(a, bcProd, abc2)
			if !r.Equal(abc1, abc2) {
				t.Fatal("multiplication not associative")
			}

			// Multiplicative identity.
			one := r.NewPoly()
			one[0] = 1
			id := r.NewPoly()
			r.Mul(a, one, id)
			if !r.Equal(id, a) {
				t.Fatal("1 is not a multiplicative identity")
			}
		})
	}
}

func TestMulScalar(t *testing.T) {
	for _, tc := range testRings {
		r := MustNew(tc.n, tc.q)
		src := rng.NewSourceFromString("scalar-" + tc.name)
		a := randomPoly(r, src)
		s := src.Uniform(r.Q())
		// Scalar multiplication must agree with ring multiplication by
		// the constant polynomial s.
		sPoly := r.NewPoly()
		sPoly[0] = s
		want := r.NewPoly()
		r.MulSchoolbook(a, sPoly, want)
		got := r.NewPoly()
		r.MulScalar(a, s, got)
		if !r.Equal(got, want) {
			t.Fatalf("%s: MulScalar mismatch", tc.name)
		}
		b := randomPoly(r, src)
		r.Add(want, b, want)
		r.MulScalarAdd(a, s, b)
		if !r.Equal(b, want) {
			t.Fatalf("%s: MulScalarAdd mismatch", tc.name)
		}
	}
}

func TestCenterLiftRoundtrip(t *testing.T) {
	for _, tc := range testRings {
		r := MustNew(tc.n, tc.q)
		src := rng.NewSourceFromString("lift-" + tc.name)
		a := randomPoly(r, src)
		lift := make([]int64, r.N())
		r.CenterLift(a, lift)
		half := int64(r.Q() / 2)
		for i, v := range lift {
			if v > half || v <= -half-1 {
				t.Fatalf("%s: lift[%d]=%d outside (-q/2, q/2]", tc.name, i, v)
			}
		}
		back := r.NewPoly()
		q := int64(r.Q())
		for i, v := range lift {
			back[i] = uint64((v%q + q) % q)
		}
		if !r.Equal(back, a) {
			t.Fatalf("%s: CenterLift roundtrip failed", tc.name)
		}
	}
}

func TestInfNormCentered(t *testing.T) {
	r := MustNew(16, 1<<32)
	a := r.NewPoly()
	a[3] = 5
	a[7] = r.Q() - 2 // centered value -2
	if got := r.InfNormCentered(a); got != 5 {
		t.Fatalf("InfNormCentered = %d, want 5", got)
	}
	a[9] = r.Q() - 100 // centered value -100
	if got := r.InfNormCentered(a); got != 100 {
		t.Fatalf("InfNormCentered = %d, want 100", got)
	}
}

func TestExactConvolutionMatchesModular(t *testing.T) {
	// Reducing the exact integer convolution mod q must equal the modular
	// product. This ties the BFV tensoring path to the ring product.
	for _, tc := range testRings {
		t.Run(tc.name, func(t *testing.T) {
			r := MustNew(tc.n, tc.q)
			src := rng.NewSourceFromString("exact-" + tc.name)
			a := randomPoly(r, src)
			b := randomPoly(r, src)
			la := make([]int64, r.N())
			lb := make([]int64, r.N())
			r.CenterLift(a, la)
			r.CenterLift(b, lb)
			conv := make([]mathutil.Int128, r.N())
			r.NegacyclicConvolveExact(la, lb, conv)
			got := r.NewPoly()
			for i := range got {
				got[i] = reduceInt128(conv[i], r.Q())
			}
			want := r.NewPoly()
			r.MulSchoolbook(a, b, want)
			if !r.Equal(got, want) {
				t.Fatal("exact convolution mod q != modular product")
			}
		})
	}
}

func TestSamplers(t *testing.T) {
	r := MustNew(64, 1<<32)
	src := rng.NewSourceFromString("samplers")
	tern := r.NewPoly()
	r.TernaryPoly(src, tern)
	for i, c := range tern {
		if c != 0 && c != 1 && c != r.Q()-1 {
			t.Fatalf("ternary coefficient %d = %d", i, c)
		}
	}
	errs := r.NewPoly()
	r.CBDPoly(src, 3, errs)
	for i, c := range errs {
		abs := c
		if c > r.Q()/2 {
			abs = r.Q() - c
		}
		if abs > 3 {
			t.Fatalf("CBD coefficient %d = %d exceeds eta", i, c)
		}
	}
	u := r.NewPoly()
	r.UniformPoly(src, u)
	for i, c := range u {
		if c >= r.Q() {
			t.Fatalf("uniform coefficient %d = %d out of range", i, c)
		}
	}
}

func TestScaleRoundModProperty(t *testing.T) {
	// For q = 2^32, t = 2^16: round(t*x/q) of x = q/t * m (exactly scaled
	// message) must recover m mod t.
	r := MustNew(16, 1<<32)
	const tMod = 1 << 16
	delta := r.Q() / tMod
	f := func(raw []uint16) bool {
		m := make([]uint64, r.N())
		for i := range m {
			if i < len(raw) {
				m[i] = uint64(raw[i])
			}
		}
		x := make([]mathutil.Int128, r.N())
		for i := range x {
			x[i] = mathutil.Int128{Lo: delta * m[i]}
		}
		out := r.NewPoly()
		r.ScaleRoundMod(x, tMod, tMod, out)
		for i := range out {
			if out[i] != m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
