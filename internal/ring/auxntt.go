package ring

import (
	"math/bits"
	"sync"
)

// This file makes products by small polynomials run at NTT speed on rings
// whose modulus has no NTT (q = 2^32, the paper's configuration). Lift
// both factors to centred integers and convolve them over one auxiliary
// prime p < 2^56 with p ≡ 1 (mod 2n). If n·‖a‖∞·‖b‖∞ ≤ (p-1)/2, every
// coefficient of the integer convolution fits in (-p/2, p/2), so the
// result mod p, read back as a centred integer and reduced mod q, equals
// the product in R_q exactly — bit for bit what Karatsuba or schoolbook
// return. At ParamsPaper a public-key polynomial times a ternary one is
// bounded by 2^10·2^31·1 = 2^41. When the bound fails the product falls
// back to the other algorithms, so no caller carries a precondition.
//
// The lift, transform, pointwise and un-lift loops see values derived from
// secret polynomials (the key s, the ephemeral u); they are branchless and
// checked as //cm:hotpath. Only the norm comparison branches, and it
// reveals at most whether ‖u‖∞ is 0 or 1.

// auxPrimeBits is the auxiliary prime's size, the largest FindNTTPrime
// offers: the wider the prime, the larger the norms it multiplies exactly.
const auxPrimeBits = 56

// auxNTT caches the auxiliary-prime tables per ring degree (indexed by
// log2 n): FindNTTPrime costs milliseconds and Params.Ring() builds a fresh
// Ring for every caller.
var auxNTT [15]struct {
	once sync.Once
	t    *nttTables
}

// aux returns the auxiliary-prime tables for the ring degree, built once
// per process; nil if no prime was found (never for supported degrees).
func (r *Ring) aux() *nttTables {
	e := &auxNTT[r.logN]
	e.once.Do(func() {
		if p, err := FindNTTPrime(auxPrimeBits, r.n); err == nil {
			e.t = newNTTTables(p, r.n)
		}
	})
	return e.t
}

// fits reports whether n·na·nb ≤ (p-1)/2: the auxiliary-prime product of
// factors with these centred norms is the exact integer product.
func (t *nttTables) fits(na, nb uint64) bool {
	hi, lo := bits.Mul64(na, nb)
	return hi == 0 && lo <= (t.p-1)/2/uint64(t.n)
}

// Transformed is a factor lifted into the auxiliary NTT domain, held in
// caller scratch. Build it with Ring.Transform and multiply it by any
// number of Operands; it stays valid while its scratch and source
// polynomial are unchanged.
type Transformed struct {
	src  Poly
	hat  []uint64
	norm uint64
	ok   bool // hat holds the transform (the norm admits some exact product)
}

// Operand is a fixed factor pre-transformed once for many exact products:
// the NTT of its centred lift, the transform's Shoup companions, and its
// centred infinity norm. a must not change while the Operand is in use.
type Operand struct {
	Transformed
	hatS []uint64
}

// Transform lifts b into the auxiliary NTT domain using hat (length n) as
// storage. When b's norm admits no exact product, hat holds no transform
// and MulTransformed falls back for every partner.
func (r *Ring) Transform(b Poly, hat []uint64) Transformed {
	tb := Transformed{src: b, hat: hat[:r.n]}
	t := r.aux()
	if t == nil {
		return tb
	}
	tb.norm = liftCentred(b, r.q, t.p, tb.hat)
	if tb.ok = t.fits(tb.norm, 1); tb.ok {
		t.forward(tb.hat)
	}
	return tb
}

// NewOperand pre-transforms a for repeated products (a public or secret
// key polynomial).
func (r *Ring) NewOperand(a Poly) *Operand {
	op := &Operand{Transformed: r.Transform(a, make([]uint64, r.n))}
	if op.ok {
		t := r.aux()
		op.hatS = make([]uint64, r.n)
		for i, x := range op.hat {
			x = condSub(condSub(x, 2*t.p), t.p)
			op.hat[i], op.hatS[i] = x, shoup(x, t.p)
		}
	}
	return op
}

// MulTransformed sets out = a * b and reports whether it took the exact
// auxiliary-prime path; when the norms do not admit it, the product runs
// through the general algorithms instead (the result is the same). out
// must not alias a's or b's source polynomials or b's scratch.
func (r *Ring) MulTransformed(a *Operand, b Transformed, out Poly) bool {
	t := r.aux()
	if !a.ok || !b.ok || !t.fits(a.norm, b.norm) {
		r.mulGeneral(a.src, b.src, out)
		return false
	}
	t.mulShoupInto(out, b.hat, a.hat, a.hatS)
	t.inverse(out)
	r.unlift(t, out)
	return true
}

// mulSmall is Ring.Mul's auxiliary-prime arm: it sets out = a * b and
// returns true when the centred norms admit the exact product, and
// returns false (out clobbered) otherwise.
func (r *Ring) mulSmall(a, b, out Poly) bool {
	t := r.aux()
	if t == nil {
		return false
	}
	tb := make([]uint64, r.n)
	na := liftCentred(a, r.q, t.p, out)
	nb := liftCentred(b, r.q, t.p, tb)
	if !t.fits(max(na, 1), max(nb, 1)) { // each lift valid, and the product fits
		return false
	}
	t.forward(out)
	t.forward(tb)
	t.mulPointwise(out, tb)
	t.inverse(out)
	r.unlift(t, out)
	return true
}

// liftCentred writes the centred representative of each coefficient of a
// (values in [0, q)) into dst as a residue mod p, and returns the centred
// infinity norm. Entries are meaningful only when the norm is below p/2.
//
//cm:hotpath
func liftCentred(a Poly, q, p uint64, dst []uint64) uint64 {
	half := q >> 1
	shift := p - q // wrapping: c + shift == p - (q - c) for negative c
	var norm uint64
	dst = dst[:len(a)]
	for i, c := range a {
		neg := uint64(int64(half-c) >> 63) // all ones when c > q/2
		dst[i] = c + (neg & shift)
		abs := c - (neg & (2*c - q))
		d := norm - abs
		norm -= d & uint64(int64(d)>>63) // norm = max(norm, abs)
	}
	return norm
}

// mulShoupInto sets out[i] = x[i]·w[i] mod p in [0, 2p), with ws the Shoup
// companions of the fixed factor w.
//
//cm:hotpath
func (t *nttTables) mulShoupInto(out, x, w, ws []uint64) {
	p := t.p
	x = x[:len(out)]
	w = w[:len(out)]
	ws = ws[:len(out)]
	for i := range out {
		out[i] = mulShoup(x[i], w[i], ws[i], p)
	}
}

// unlift finishes an auxiliary-prime product in place: scale each value
// (< 2p) by n^{-1}, read it as a centred integer in (-p/2, p/2) and reduce
// that mod q.
//
//cm:hotpath
func (r *Ring) unlift(t *nttTables, a []uint64) {
	p, s, ss := t.p, t.nInv, t.nInvS
	half := p >> 1
	if r.qIsPow2 {
		mask := r.mask
		for i := range a {
			x := condSub(mulShoup(a[i], s, ss, p), p)
			neg := uint64(int64(half-x) >> 63)
			a[i] = (x - (neg & p)) & mask
		}
		return
	}
	q := r.q
	off := (half/q + 1) * q // a multiple of q that keeps x - p + off positive
	for i := range a {
		x := condSub(mulShoup(a[i], s, ss, p), p)
		neg := uint64(int64(half-x) >> 63)
		a[i] = (x + off - (neg & p)) % q
	}
}
