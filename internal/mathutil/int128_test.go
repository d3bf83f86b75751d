package mathutil

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

// IsZero reports whether x == 0.
func (x Int128) IsZero() bool { return x.Hi == 0 && x.Lo == 0 }

// Sign returns -1, 0 or +1 according to the sign of x.
func (x Int128) Sign() int {
	switch {
	case x.IsNeg():
		return -1
	case x.IsZero():
		return 0
	default:
		return 1
	}
}

// Cmp returns -1, 0 or +1 according to whether x < y, x == y or x > y,
// interpreting both as signed 128-bit values.
func (x Int128) Cmp(y Int128) int {
	// Flip the sign bits so an unsigned comparison orders signed values.
	xh := x.Hi ^ (1 << 63)
	yh := y.Hi ^ (1 << 63)
	switch {
	case xh < yh:
		return -1
	case xh > yh:
		return 1
	case x.Lo < y.Lo:
		return -1
	case x.Lo > y.Lo:
		return 1
	default:
		return 0
	}
}

// Int64 returns the low 64 bits of x interpreted as a signed integer. The
// caller must know the value fits; FitsInt64 checks.
func (x Int128) Int64() int64 { return int64(x.Lo) }

// FitsInt64 reports whether x is representable as an int64.
func (x Int128) FitsInt64() bool {
	return x.Hi == uint64(int64(x.Lo)>>63)
}

// String formats x in decimal.
func (x Int128) String() string {
	if x.IsZero() {
		return "0"
	}
	neg := x.IsNeg()
	a := x.Abs()
	var buf [40]byte
	i := len(buf)
	for !a.IsZero() {
		var r uint64
		a, r = a.divModUint64(10)
		i--
		buf[i] = byte('0' + r)
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func bigFromInt128(x Int128) *big.Int {
	b := new(big.Int).SetUint64(x.Hi)
	b.Lsh(b, 64)
	b.Or(b, new(big.Int).SetUint64(x.Lo))
	// Interpret as two's complement 128-bit.
	if x.IsNeg() {
		mod := new(big.Int).Lsh(big.NewInt(1), 128)
		b.Sub(b, mod)
	}
	return b
}

func int128FromBig(b *big.Int) Int128 {
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	v := new(big.Int).Mod(b, mod) // non-negative representative
	lo := new(big.Int).And(v, new(big.Int).SetUint64(math.MaxUint64))
	hi := new(big.Int).Rsh(v, 64)
	return Int128{Hi: hi.Uint64(), Lo: lo.Uint64()}
}

func TestInt128FromInt64(t *testing.T) {
	cases := []int64{0, 1, -1, 42, -42, math.MaxInt64, math.MinInt64}
	for _, v := range cases {
		x := Int128FromInt64(v)
		if got := bigFromInt128(x); got.Cmp(big.NewInt(v)) != 0 {
			t.Errorf("Int128FromInt64(%d) = %s", v, got)
		}
		if !x.FitsInt64() || x.Int64() != v {
			t.Errorf("roundtrip failed for %d", v)
		}
	}
}

func TestMulInt64Property(t *testing.T) {
	f := func(a, b int64) bool {
		got := bigFromInt128(MulInt64(a, b))
		want := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubProperty(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		x := MulInt64(a, b)
		y := MulInt64(c, d)
		sum := bigFromInt128(x.Add(y))
		diff := bigFromInt128(x.Sub(y))
		bx, by := bigFromInt128(x), bigFromInt128(y)
		return sum.Cmp(new(big.Int).Add(bx, by)) == 0 &&
			diff.Cmp(new(big.Int).Sub(bx, by)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegAndSign(t *testing.T) {
	x := Int128FromInt64(-5)
	if x.Sign() != -1 || x.Neg().Sign() != 1 || (Int128{}).Sign() != 0 {
		t.Fatal("Sign misbehaves")
	}
	if !x.Neg().Neg().Sub(x).IsZero() {
		t.Fatal("double negation is not identity")
	}
}

func TestCmpProperty(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		x := MulInt64(a, b)
		y := MulInt64(c, d)
		return x.Cmp(y) == bigFromInt128(x).Cmp(bigFromInt128(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShlShrRoundtrip(t *testing.T) {
	for _, v := range []int64{3, -3, 123456789, -987654321} {
		for k := uint(0); k < 60; k++ {
			x := Int128FromInt64(v).Shl(k)
			back := x.ShrArith(k)
			if !back.FitsInt64() || back.Int64() != v {
				t.Fatalf("Shl/ShrArith roundtrip failed: v=%d k=%d got=%s", v, k, back)
			}
		}
	}
}

func TestShrArithSignExtension(t *testing.T) {
	x := Int128FromInt64(-1)
	for _, k := range []uint{1, 63, 64, 100, 127} {
		if got := x.ShrArith(k); !got.FitsInt64() || got.Int64() != -1 {
			t.Errorf("(-1) >> %d = %s, want -1", k, got)
		}
	}
	y := Int128FromInt64(1).Shl(100)
	if got := y.ShrArith(100); got.Int64() != 1 || !got.FitsInt64() {
		t.Errorf("(1<<100)>>100 = %s, want 1", got)
	}
}

func TestRoundShr(t *testing.T) {
	cases := []struct {
		x    int64
		k    uint
		want int64
	}{
		{0, 4, 0},
		{7, 1, 4},   // 3.5 rounds half-up to 4
		{-7, 1, -3}, // -3.5 rounds half-up to -3
		{8, 2, 2},
		{9, 2, 2},  // 2.25 -> 2
		{10, 2, 3}, // 2.5 -> 3 (half-up)
		{11, 2, 3},
		{-10, 2, -2}, // -2.5 -> -2 (half-up)
		{65535, 16, 1},
		{32767, 16, 0}, // 0.499... -> 0
		{32768, 16, 1}, // 0.5 -> 1
	}
	for _, c := range cases {
		got := Int128FromInt64(c.x).RoundShr(c.k)
		if !got.FitsInt64() || got.Int64() != c.want {
			t.Errorf("RoundShr(%d, %d) = %s, want %d", c.x, c.k, got, c.want)
		}
	}
}

func TestDivRoundUint64(t *testing.T) {
	cases := []struct {
		x    int64
		d    uint64
		want int64
	}{
		{10, 3, 3},
		{11, 3, 4},
		{-10, 3, -3},
		{-11, 3, -4},
		{15, 3, 5},
		{-15, 3, -5},
		{3, 6, 1}, // 0.5 rounds away from zero
		{-3, 6, -1},
		{2, 6, 0},
	}
	for _, c := range cases {
		got := Int128FromInt64(c.x).DivRoundUint64(c.d)
		if !got.FitsInt64() || got.Int64() != c.want {
			t.Errorf("DivRoundUint64(%d, %d) = %s, want %d", c.x, c.d, got, c.want)
		}
	}
}

func TestDivRoundUint64Property(t *testing.T) {
	f := func(a, b int64, d uint64) bool {
		d = d%(1<<40) + 1
		x := MulInt64(a, b)
		got := bigFromInt128(x.DivRoundUint64(d))
		bx := bigFromInt128(x)
		bd := new(big.Int).SetUint64(d)
		// round-half-away-from-zero: sign * floor((2|x| + d) / (2d))
		abs := new(big.Int).Abs(bx)
		num := new(big.Int).Mul(abs, big.NewInt(2))
		num.Add(num, bd)
		den := new(big.Int).Mul(bd, big.NewInt(2))
		q := new(big.Int).Div(num, den)
		if bx.Sign() < 0 {
			q.Neg(q)
		}
		return got.Cmp(q) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulSmall(t *testing.T) {
	f := func(a, b int64, m uint32) bool {
		x := MulInt64(a, b)
		// Keep |x * m| within 127 bits: |a*b| < 2^126/m is guaranteed for
		// 64-bit inputs and 32-bit m only when a,b are bounded; bound them.
		a64 := a % (1 << 40)
		b64 := b % (1 << 40)
		x = MulInt64(a64, b64)
		got := bigFromInt128(x.MulSmall(uint64(m)))
		want := new(big.Int).Mul(bigFromInt128(x), new(big.Int).SetUint64(uint64(m)))
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	cases := map[int64]string{
		0:     "0",
		1:     "1",
		-1:    "-1",
		12345: "12345",
		-987:  "-987",
	}
	for v, want := range cases {
		if got := Int128FromInt64(v).String(); got != want {
			t.Errorf("String(%d) = %q, want %q", v, got, want)
		}
	}
	big128 := Int128FromInt64(1).Shl(100)
	if got, want := big128.String(), new(big.Int).Lsh(big.NewInt(1), 100).String(); got != want {
		t.Errorf("String(2^100) = %q, want %q", got, want)
	}
}

func TestInt128FromBigRoundtrip(t *testing.T) {
	f := func(a, b int64) bool {
		x := MulInt64(a, b)
		return int128FromBig(bigFromInt128(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
