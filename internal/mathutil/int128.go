// Package mathutil provides exact wide-integer arithmetic and bit-matrix
// helpers shared by the BFV implementation (internal/bfv), the polynomial
// ring (internal/ring) and the in-flash vertical data layout
// (internal/flash).
//
// The BFV tensoring step must convolve centered (signed) coefficient lifts
// exactly over the integers before rescaling by t/q; with n = 1024 and
// q = 2^32 the intermediate sums exceed 64 bits, so Int128 implements the
// minimal signed 128-bit arithmetic needed for that path using only
// math/bits.
package mathutil

import "math/bits"

// Int128 is a signed 128-bit integer in two's-complement representation.
// Hi holds the most significant 64 bits (including the sign bit), Lo the
// least significant 64 bits. The zero value is the number 0.
type Int128 struct {
	Hi uint64
	Lo uint64
}

// Int128FromInt64 sign-extends v to 128 bits.
func Int128FromInt64(v int64) Int128 {
	return Int128{Hi: uint64(v >> 63), Lo: uint64(v)}
}

// Add returns x + y (mod 2^128).
func (x Int128) Add(y Int128) Int128 {
	lo, carry := bits.Add64(x.Lo, y.Lo, 0)
	hi, _ := bits.Add64(x.Hi, y.Hi, carry)
	return Int128{Hi: hi, Lo: lo}
}

// Sub returns x - y (mod 2^128).
func (x Int128) Sub(y Int128) Int128 {
	lo, borrow := bits.Sub64(x.Lo, y.Lo, 0)
	hi, _ := bits.Sub64(x.Hi, y.Hi, borrow)
	return Int128{Hi: hi, Lo: lo}
}

// Neg returns -x (mod 2^128).
func (x Int128) Neg() Int128 {
	return Int128{}.Sub(x)
}

// IsNeg reports whether x < 0.
func (x Int128) IsNeg() bool { return x.Hi>>63 == 1 }

// MulInt64 returns the exact 128-bit product a*b of two signed 64-bit
// integers.
func MulInt64(a, b int64) Int128 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// Signed correction: interpreting the operands as signed subtracts
	// b (resp. a) from the high word for each negative operand.
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return Int128{Hi: hi, Lo: lo}
}

// MulSmall returns x*m for a small non-negative multiplier m. It is intended
// for the t-multiplication of the BFV rescaling step (m = t <= 2^32); the
// caller must guarantee the result fits in 128 bits.
func (x Int128) MulSmall(m uint64) Int128 {
	hi, lo := bits.Mul64(x.Lo, m)
	hi += x.Hi * m // wrapping by design for negative x in two's complement
	return Int128{Hi: hi, Lo: lo}
}

// Shl returns x << k for 0 <= k < 128.
func (x Int128) Shl(k uint) Int128 {
	switch {
	case k == 0:
		return x
	case k < 64:
		return Int128{Hi: x.Hi<<k | x.Lo>>(64-k), Lo: x.Lo << k}
	case k < 128:
		return Int128{Hi: x.Lo << (k - 64)}
	default:
		return Int128{}
	}
}

// ShrArith returns x >> k with sign extension, for 0 <= k < 128.
func (x Int128) ShrArith(k uint) Int128 {
	sign := uint64(int64(x.Hi) >> 63) // all ones if negative
	switch {
	case k == 0:
		return x
	case k < 64:
		return Int128{Hi: uint64(int64(x.Hi) >> k), Lo: x.Lo>>k | x.Hi<<(64-k)}
	case k < 128:
		return Int128{Hi: sign, Lo: uint64(int64(x.Hi) >> (k - 64))}
	default:
		return Int128{Hi: sign, Lo: sign}
	}
}

// RoundShr returns round(x / 2^k) with round-half-up semantics
// (i.e. floor((x + 2^(k-1)) / 2^k)), which is the rounding used by the BFV
// rescaling step for power-of-two moduli.
func (x Int128) RoundShr(k uint) Int128 {
	if k == 0 {
		return x
	}
	half := Int128{}.Add(Int128{Lo: 1}).Shl(k - 1)
	return x.Add(half).ShrArith(k)
}

// Abs returns |x| as an unsigned (Hi, Lo) pair. |MinInt128| wraps, as with
// built-in integer types.
func (x Int128) Abs() Int128 {
	if x.IsNeg() {
		return x.Neg()
	}
	return x
}

// DivRoundUint64 returns round(x / d) for a positive divisor d < 2^63, with
// round-half-away-from-zero semantics. It is used by the BFV rescaling step
// for non-power-of-two moduli.
func (x Int128) DivRoundUint64(d uint64) Int128 {
	if d == 0 {
		panic("mathutil: division by zero")
	}
	neg := x.IsNeg()
	a := x.Abs()
	q, r := a.divModUint64(d)
	if 2*r >= d {
		q = q.Add(Int128{Lo: 1})
	}
	if neg {
		return q.Neg()
	}
	return q
}

// divModUint64 divides the non-negative value a by d, returning quotient and
// remainder.
func (a Int128) divModUint64(d uint64) (q Int128, r uint64) {
	qHi := a.Hi / d
	rem := a.Hi % d
	qLo, rem := bits.Div64(rem, a.Lo, d)
	return Int128{Hi: qHi, Lo: qLo}, rem
}
