package ring

import (
	"fmt"
	"math/big"
	"math/bits"
)

// This file holds the number-theoretic transform for prime moduli
// p ≡ 1 (mod 2n) — the algorithm SEAL (the paper's software baseline
// substrate) multiplies with. It serves two callers: prime-modulus rings
// multiply with it natively (MulNTT), and every other ring multiplies by
// small polynomials through it over one auxiliary prime (auxntt.go). The
// negacyclic wrap is folded into the transform by twisting with a
// primitive 2n-th root of unity ψ (Longa–Naehrig tables in bit-reversed
// order).
//
// The butterflies use Shoup multiplication by precomputed companions
// w' = floor(w·2^64/p): x·w mod p costs two multiplies and lands in
// [0, 2p) for any 64-bit x, so the forward transform (Cooley–Tukey) keeps
// values lazily in [0, 4p) and the inverse (Gentleman–Sande) in [0, 2p),
// with conditional subtractions done by masks rather than branches (Harvey,
// "Faster arithmetic for number-theoretic transforms"). The masks need
// 4p < 2^63, which every supported modulus (< 2^57) satisfies.

// nttTables holds one prime's transform tables.
type nttTables struct {
	n       int
	p       uint64
	psi     []uint64 // ψ^bitrev(i)
	psiS    []uint64 // Shoup companions of psi
	psiInv  []uint64 // ψ^{-bitrev(i)}
	psiInvS []uint64 // Shoup companions of psiInv
	nInv    uint64   // n^{-1} mod p, the inverse transform's final scale
	nInvS   uint64
}

// newNTTTables builds the tables for prime p ≡ 1 (mod 2n), or returns nil
// when p is composite or has no primitive 2n-th root of unity.
func newNTTTables(p uint64, n int) *nttTables {
	if p >= MaxGenericQ || (p-1)%uint64(2*n) != 0 || !new(big.Int).SetUint64(p).ProbablyPrime(20) {
		return nil
	}
	psi, ok := findPrimitive2NRoot(p, uint64(n))
	if !ok {
		return nil
	}
	logN := bits.TrailingZeros(uint(n))
	t := &nttTables{
		n:       n,
		p:       p,
		psi:     make([]uint64, n),
		psiS:    make([]uint64, n),
		psiInv:  make([]uint64, n),
		psiInvS: make([]uint64, n),
	}
	psiInv := invMod(psi, p)
	x, xi := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		j := reverseBits(uint32(i), logN)
		t.psi[j], t.psiS[j] = x, shoup(x, p)
		t.psiInv[j], t.psiInvS[j] = xi, shoup(xi, p)
		x = mulMod(x, psi, p)
		xi = mulMod(xi, psiInv, p)
	}
	t.nInv = invMod(uint64(n), p)
	t.nInvS = shoup(t.nInv, p)
	return t
}

// forward transforms a (length n, values < 4p) in place; outputs are in
// [0, 4p).
//
//cm:hotpath
func (t *nttTables) forward(a []uint64) {
	p, p2 := t.p, 2*t.p
	step := t.n
	for m := 1; m < t.n; m <<= 1 {
		step >>= 1
		for i := 0; i < m; i++ {
			w, ws := t.psi[m+i], t.psiS[m+i]
			lo := 2 * i * step
			x := a[lo : lo+step]
			y := a[lo+step : lo+2*step]
			y = y[:len(x)]
			for j := range x {
				u := condSub(x[j], p2)
				v := mulShoup(y[j], w, ws, p)
				x[j] = u + v
				y[j] = u - v + p2
			}
		}
	}
}

// inverse undoes forward up to the factor n (values < 2p in and out);
// callers finish with one pass that scales by nInv.
//
//cm:hotpath
func (t *nttTables) inverse(a []uint64) {
	p, p2 := t.p, 2*t.p
	step := 1
	for m := t.n >> 1; m >= 1; m >>= 1 {
		for i := 0; i < m; i++ {
			w, ws := t.psiInv[m+i], t.psiInvS[m+i]
			lo := 2 * i * step
			x := a[lo : lo+step]
			y := a[lo+step : lo+2*step]
			y = y[:len(x)]
			for j := range x {
				u, v := x[j], y[j]
				x[j] = condSub(u+v, p2)
				y[j] = mulShoup(u-v+p2, w, ws, p)
			}
		}
		step <<= 1
	}
}

// mulPointwise sets a[i] = a[i]·b[i] mod p for two transformed variable
// operands.
//
//cm:hotpath
func (t *nttTables) mulPointwise(a, b []uint64) {
	p := t.p
	b = b[:len(a)]
	for i := range a {
		a[i] = mulMod(a[i], b[i], p)
	}
}

// scaleReduce finishes the inverse transform: a[i] = a[i]·n^{-1} mod p,
// in [0, p).
//
//cm:hotpath
func (t *nttTables) scaleReduce(a []uint64) {
	p := t.p
	for i := range a {
		a[i] = condSub(mulShoup(a[i], t.nInv, t.nInvS, p), p)
	}
}

// mulShoup returns x·w mod p in [0, 2p) for any x, given w < p and its
// companion ws = shoup(w, p).
//
//cm:hotpath
func mulShoup(x, w, ws, p uint64) uint64 {
	hi, _ := bits.Mul64(x, ws)
	return x*w - hi*p
}

// condSub returns x - m when x >= m and x otherwise, for x < 2m < 2^63,
// without a branch.
//
//cm:hotpath
func condSub(x, m uint64) uint64 {
	d := x - m
	return d + (m & uint64(int64(d)>>63))
}

// shoup returns the Shoup companion floor(w·2^64/p) of w < p.
func shoup(w, p uint64) uint64 {
	q, _ := bits.Div64(w, 0, p)
	return q
}

// NTTAvailable reports whether the ring supports NTT multiplication
// (prime q with q ≡ 1 mod 2n).
func (r *Ring) NTTAvailable() bool { return r.nativeNTT() != nil }

// nativeNTT returns the tables for the ring's own modulus, built once (and
// safely under concurrent first use); nil when q does not support the
// transform.
func (r *Ring) nativeNTT() *nttTables {
	r.nttOnce.Do(func() {
		if !r.qIsPow2 {
			r.ntt = newNTTTables(r.q, r.n)
		}
	})
	return r.ntt
}

// MulNTT sets out = a * b using the negacyclic NTT. out must not alias
// a or b. Panics if the ring has no NTT support (check NTTAvailable).
func (r *Ring) MulNTT(a, b, out Poly) {
	t := r.nativeNTT()
	if t == nil {
		panic("ring: MulNTT on a ring without NTT support")
	}
	tb := make([]uint64, r.n)
	copy(out, a)
	copy(tb, b)
	t.forward(out)
	t.forward(tb)
	t.mulPointwise(out, tb)
	t.inverse(out)
	t.scaleReduce(out)
}

// findPrimitive2NRoot searches for ψ with ψ^n ≡ -1 (mod q), i.e. a
// primitive 2n-th root of unity.
func findPrimitive2NRoot(q, n uint64) (uint64, bool) {
	exp := (q - 1) / (2 * n)
	for g := uint64(2); g < 1000; g++ {
		psi := powMod(g, exp, q)
		if powMod(psi, n, q) == q-1 {
			return psi, true
		}
	}
	return 0, false
}

// FindNTTPrime returns the largest prime below 2^bits with
// q ≡ 1 (mod 2n), suitable for NTT multiplication at ring degree n.
func FindNTTPrime(bitLen uint, n int) (uint64, error) {
	if bitLen < 10 || bitLen > 56 {
		return 0, fmt.Errorf("ring: NTT prime bit length %d out of range [10, 56]", bitLen)
	}
	step := uint64(2 * n)
	q := (uint64(1)<<bitLen - 1) / step * step
	for ; q > step; q -= step {
		cand := q + 1
		if new(big.Int).SetUint64(cand).ProbablyPrime(20) {
			if _, ok := findPrimitive2NRoot(cand, uint64(n)); ok {
				return cand, nil
			}
		}
	}
	return 0, fmt.Errorf("ring: no NTT prime below 2^%d for n=%d", bitLen, n)
}

// --- modular helpers for generic (non-power-of-two) moduli ---

func addMod(a, b, q uint64) uint64 {
	s := a + b
	if s >= q {
		s -= q
	}
	return s
}

//cm:hotpath
func mulMod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, q)
}

func powMod(base, exp, q uint64) uint64 {
	result := uint64(1)
	base %= q
	for exp > 0 {
		if exp&1 == 1 {
			result = mulMod(result, base, q)
		}
		base = mulMod(base, base, q)
		exp >>= 1
	}
	return result
}

// invMod computes a^{-1} mod q for prime q via Fermat.
func invMod(a, q uint64) uint64 { return powMod(a, q-2, q) }

func reverseBits(v uint32, width int) uint32 {
	return bits.Reverse32(v) >> (32 - uint(width))
}
