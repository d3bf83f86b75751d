// Package ring implements arithmetic in the polynomial quotient ring
// R_q = Z_q[X]/(X^n + 1) used by the BFV homomorphic encryption scheme
// (§2.1 of the CIPHERMATCH paper). n is a power of two; q is the ciphertext
// coefficient modulus.
//
// Two modulus families are supported:
//
//   - power-of-two q (the paper's configuration: q = 2^32): reductions are
//     bit masks and the rescaling divisions are exact shifts;
//   - arbitrary q < 2^57: reductions use 128-bit remainders. This family
//     exists for the larger-parameter presets and for property tests that
//     check the implementation is not accidentally specialised to 2^32.
//
// Multiplication is negacyclic convolution (X^n = -1). Ring.Mul picks, in
// order: the number-theoretic transform over q itself (prime q ≡ 1 mod 2n);
// an exact product over one auxiliary 56-bit NTT prime whenever the
// operands' centred norms bound every integer coefficient below half that
// prime — the case for every product by a small polynomial (ternary keys
// and ephemerals, noise, digits), which is what encryption, decryption and
// key generation do; Karatsuba (power-of-two moduli); and schoolbook (any
// modulus, the reference the others are tested against). Operand and
// Transformed let a caller transform a factor once and reuse it across
// products. An exact integer convolution over centered lifts serves the BFV
// tensoring step, which must not reduce mod q before rescaling.
package ring

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Poly is a polynomial of degree < n with coefficients in [0, q). The slice
// length always equals the ring degree n.
type Poly []uint64

// Ring holds the parameters of R_q and provides arithmetic on Poly values.
// All binary operations allow aliasing between inputs and output unless
// noted otherwise.
type Ring struct {
	n       int
	q       uint64
	logN    uint
	qIsPow2 bool
	logQ    uint   // valid when qIsPow2
	mask    uint64 // q-1 when qIsPow2

	// narrowShift (log2 q − NarrowBits) and lowMask (2^narrowShift − 1)
	// split a coefficient for SubCmpNarrowBits; valid when narrowOK.
	narrowOK    bool
	narrowShift uint
	lowMask     uint64
	// laneBytes is the width of one coefficient in a token row
	// (LaneBytes).
	laneBytes int

	// karatsubaThreshold is the sub-problem size below which Karatsuba
	// recursion falls back to schoolbook multiplication.
	karatsubaThreshold int

	// NTT tables for q itself, built on first use for prime moduli with
	// q ≡ 1 (mod 2n); nil otherwise.
	nttOnce sync.Once
	ntt     *nttTables
}

// MaxGenericQ bounds non-power-of-two moduli so that schoolbook accumulation
// of n <= 2^14 products of (q-1)^2 fits in 128 bits.
const MaxGenericQ = uint64(1) << 57

// New creates a Ring with degree n (a power of two, 4 <= n <= 2^14) and
// modulus q (2 <= q; either a power of two up to 2^63, or any value below
// MaxGenericQ).
func New(n int, q uint64) (*Ring, error) {
	if n < 4 || n > 1<<14 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: degree n=%d must be a power of two in [4, 2^14]", n)
	}
	if q < 2 {
		return nil, errors.New("ring: modulus must be at least 2")
	}
	r := &Ring{
		n:                  n,
		q:                  q,
		logN:               uint(bits.TrailingZeros(uint(n))),
		karatsubaThreshold: 32,
		laneBytes:          LaneBytesFor(q),
	}
	if q&(q-1) == 0 {
		r.qIsPow2 = true
		r.logQ = uint(bits.TrailingZeros64(q))
		r.mask = q - 1
		if r.logQ > 63 {
			return nil, errors.New("ring: power-of-two modulus must be at most 2^63")
		}
		if r.logQ >= NarrowBits {
			r.narrowOK = true
			r.narrowShift = r.logQ - NarrowBits
			r.lowMask = 1<<r.narrowShift - 1
		}
	} else if q >= MaxGenericQ {
		return nil, fmt.Errorf("ring: non-power-of-two modulus must be below 2^57, got %d", q)
	}
	return r, nil
}

// MustNew is New but panics on error; for tests and package-level presets.
func MustNew(n int, q uint64) *Ring {
	r, err := New(n, q)
	if err != nil {
		panic(err)
	}
	return r
}

// N returns the ring degree.
//
//cm:hotpath
func (r *Ring) N() int { return r.n }

// Q returns the coefficient modulus.
func (r *Ring) Q() uint64 { return r.q }

// LogQ returns ceil(log2 q).
func (r *Ring) LogQ() uint {
	if r.qIsPow2 {
		return r.logQ
	}
	return uint(bits.Len64(r.q - 1))
}

// NewPoly allocates a zero polynomial.
func (r *Ring) NewPoly() Poly { return make(Poly, r.n) }

// Copy copies src into dst.
func (r *Ring) Copy(dst, src Poly) { copy(dst, src) }

// Clone returns a fresh copy of a.
func (r *Ring) Clone(a Poly) Poly {
	out := r.NewPoly()
	copy(out, a)
	return out
}

// reduce maps an arbitrary 64-bit value into [0, q).
func (r *Ring) reduce(x uint64) uint64 {
	if r.qIsPow2 {
		return x & r.mask
	}
	return x % r.q
}

// Add sets out = a + b.
func (r *Ring) Add(a, b, out Poly) {
	if r.qIsPow2 {
		for i := range out {
			out[i] = (a[i] + b[i]) & r.mask
		}
		return
	}
	q := r.q
	for i := range out {
		s := a[i] + b[i] // < 2^58, no overflow
		if s >= q {
			s -= q
		}
		out[i] = s
	}
}

// Sub sets out = a - b.
func (r *Ring) Sub(a, b, out Poly) {
	if r.qIsPow2 {
		for i := range out {
			out[i] = (a[i] - b[i]) & r.mask
		}
		return
	}
	q := r.q
	for i := range out {
		d := a[i] + q - b[i]
		if d >= q {
			d -= q
		}
		out[i] = d
	}
}

// Neg sets out = -a.
func (r *Ring) Neg(a, out Poly) {
	if r.qIsPow2 {
		for i := range out {
			out[i] = (-a[i]) & r.mask
		}
		return
	}
	q := r.q
	for i := range out {
		if a[i] == 0 {
			out[i] = 0
		} else {
			out[i] = q - a[i]
		}
	}
}

// MulScalar sets out = s * a for a scalar s (reduced internally).
func (r *Ring) MulScalar(a Poly, s uint64, out Poly) {
	s = r.reduce(s)
	if r.qIsPow2 {
		for i := range out {
			out[i] = (a[i] * s) & r.mask
		}
		return
	}
	for i := range out {
		hi, lo := bits.Mul64(a[i], s)
		out[i] = bits.Rem64(hi, lo, r.q)
	}
}

// MulScalarAdd sets out = out + s * a for a scalar s (reduced
// internally): the plaintext-scaling step of encryption without a
// temporary polynomial.
func (r *Ring) MulScalarAdd(a Poly, s uint64, out Poly) {
	s = r.reduce(s)
	if r.qIsPow2 {
		for i := range out {
			out[i] = (out[i] + a[i]*s) & r.mask
		}
		return
	}
	for i := range out {
		hi, lo := bits.Mul64(a[i], s)
		out[i] = addMod(out[i], bits.Rem64(hi, lo, r.q), r.q)
	}
}

// CenterLift writes the centered representative of each coefficient of a
// into out: values in (-q/2, q/2], as required before exact tensoring.
func (r *Ring) CenterLift(a Poly, out []int64) {
	half := r.q / 2
	q := r.q
	for i := range a {
		if a[i] > half {
			out[i] = int64(a[i]) - int64(q)
		} else {
			out[i] = int64(a[i])
		}
	}
}
