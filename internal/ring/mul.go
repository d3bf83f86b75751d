package ring

import (
	"math/bits"

	"ciphermatch/internal/mathutil"
)

// Mul sets out = a * b in R_q (negacyclic convolution). out must not alias
// a or b. NTT-ready prime moduli use the number-theoretic transform; other
// moduli take the exact auxiliary-prime product when the operands' norms
// admit it (auxntt.go), and otherwise Karatsuba (power-of-two moduli above
// the threshold) or schoolbook.
func (r *Ring) Mul(a, b, out Poly) {
	if r.NTTAvailable() || !r.mulSmall(a, b, out) {
		r.mulGeneral(a, b, out)
	}
}

// mulGeneral is Mul without the auxiliary-prime arm.
func (r *Ring) mulGeneral(a, b, out Poly) {
	switch {
	case r.NTTAvailable():
		r.MulNTT(a, b, out)
	case r.qIsPow2 && r.n >= r.karatsubaThreshold*2:
		r.MulKaratsuba(a, b, out)
	default:
		r.MulSchoolbook(a, b, out)
	}
}

// MulSchoolbook sets out = a * b via the O(n^2) negacyclic schoolbook
// algorithm. out must not alias a or b. It works for every supported
// modulus and is the reference implementation the fast paths are tested
// against.
func (r *Ring) MulSchoolbook(a, b, out Poly) {
	n := r.n
	if r.qIsPow2 {
		// All arithmetic mod 2^64 is compatible with the final mask.
		for k := range out {
			out[k] = 0
		}
		for i := 0; i < n; i++ {
			ai := a[i]
			if ai == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				k := i + j
				p := ai * b[j] // wrapping, exact mod 2^64
				if k < n {
					out[k] += p
				} else {
					out[k-n] -= p
				}
			}
		}
		for k := range out {
			out[k] &= r.mask
		}
		return
	}
	// Generic modulus: accumulate positive and negative contributions in
	// 128 bits, then reduce. (q < 2^57 and n <= 2^14 guarantee no overflow.)
	posHi := make([]uint64, n)
	posLo := make([]uint64, n)
	negHi := make([]uint64, n)
	negLo := make([]uint64, n)
	for i := 0; i < n; i++ {
		ai := a[i]
		if ai == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			hi, lo := bits.Mul64(ai, b[j])
			k := i + j
			if k < n {
				var c uint64
				posLo[k], c = bits.Add64(posLo[k], lo, 0)
				posHi[k] += hi + c
			} else {
				k -= n
				var c uint64
				negLo[k], c = bits.Add64(negLo[k], lo, 0)
				negHi[k] += hi + c
			}
		}
	}
	q := r.q
	for k := 0; k < n; k++ {
		p := bits.Rem64(posHi[k]%q, posLo[k], q)
		m := bits.Rem64(negHi[k]%q, negLo[k], q)
		d := p + q - m
		if d >= q {
			d -= q
		}
		out[k] = d
	}
}

// MulKaratsuba sets out = a * b using Karatsuba multiplication over the
// wrapping uint64 ring, then folds the linear product negacyclically and
// masks. Only valid for power-of-two moduli; out must not alias a or b.
func (r *Ring) MulKaratsuba(a, b, out Poly) {
	if !r.qIsPow2 {
		panic("ring: MulKaratsuba requires a power-of-two modulus")
	}
	n := r.n
	prod := make([]uint64, 2*n) // linear product, index 2n-1 unused (zero)
	scratch := make([]uint64, 4*n)
	karatsuba(a, b, prod, scratch, r.karatsubaThreshold)
	for k := n; k < 2*n-1; k++ {
		prod[k-n] -= prod[k]
	}
	for k := 0; k < n; k++ {
		out[k] = prod[k] & r.mask
	}
}

// karatsuba computes the full linear product of equal-length slices a and b
// into prod (length 2*len(a), the last element left zero), wrapping mod
// 2^64. scratch must have length >= 4*len(a).
func karatsuba(a, b []uint64, prod, scratch []uint64, threshold int) {
	n := len(a)
	if n <= threshold {
		for i := range prod[:2*n] {
			prod[i] = 0
		}
		for i := 0; i < n; i++ {
			ai := a[i]
			if ai == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				prod[i+j] += ai * b[j]
			}
		}
		return
	}
	h := n / 2
	a0, a1 := a[:h], a[h:]
	b0, b1 := b[:h], b[h:]

	// prod[0:2h] = a0*b0; prod[2h:4h] = a1*b1 (disjoint, last slots zero).
	karatsuba(a0, b0, prod[:2*h], scratch, threshold)
	karatsuba(a1, b1, prod[2*h:4*h], scratch, threshold)

	// mid = (a0+a1)*(b0+b1) - a0*b0 - a1*b1
	sa := scratch[:h]
	sb := scratch[h : 2*h]
	mid := scratch[2*h : 4*h]
	rest := scratch[4*h:]
	for i := 0; i < h; i++ {
		sa[i] = a0[i] + a1[i]
		sb[i] = b0[i] + b1[i]
	}
	karatsuba(sa, sb, mid, rest, threshold)
	for i := 0; i < 2*h; i++ {
		mid[i] -= prod[i] + prod[2*h+i]
	}
	for i := 0; i < 2*h; i++ {
		prod[h+i] += mid[i]
	}
}

// NegacyclicConvolveExact computes the exact negacyclic convolution of the
// centered-lift integer vectors a and b over Z (no modular reduction) into
// out. This is the tensoring primitive of BFV multiplication: the rescaling
// by t/q must see exact integers. len(a) == len(b) == n; |a[i]|, |b[i]|
// must be at most 2^57 so that the 128-bit accumulation cannot overflow.
func (r *Ring) NegacyclicConvolveExact(a, b []int64, out []mathutil.Int128) {
	n := r.n
	for k := range out[:n] {
		out[k] = mathutil.Int128{}
	}
	for i := 0; i < n; i++ {
		ai := a[i]
		if ai == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			p := mathutil.MulInt64(ai, b[j])
			k := i + j
			if k < n {
				out[k] = out[k].Add(p)
			} else {
				out[k-n] = out[k-n].Sub(p)
			}
		}
	}
}

// ScaleRoundMod computes out[i] = round(t * x[i] / q) mod `mod` for the
// exact integer vector x. It implements the BFV rescaling step; `mod` is q
// for ciphertext tensoring and t for decryption.
func (r *Ring) ScaleRoundMod(x []mathutil.Int128, t uint64, mod uint64, out Poly) {
	for i := range out {
		var v mathutil.Int128
		if r.qIsPow2 {
			v = x[i].MulSmall(t).RoundShr(r.logQ)
		} else {
			v = x[i].MulSmall(t).DivRoundUint64(r.q)
		}
		out[i] = reduceInt128(v, mod)
	}
}

// reduceInt128 maps a signed 128-bit value into [0, mod).
func reduceInt128(v mathutil.Int128, mod uint64) uint64 {
	neg := v.IsNeg()
	a := v.Abs()
	rem := bits.Rem64(a.Hi%mod, a.Lo, mod)
	if neg && rem != 0 {
		rem = mod - rem
	}
	return rem
}
