package ring

// This file holds the bit-packing primitives shared by the compare
// kernels (bitsetWord, eqMaskBit) and the scalar-equality kernel of the
// client-decrypt path: after decryption every window compares against
// the single match value t-1, and the verdicts are written one bit per
// coefficient, packed 64 windows per word. Words with no hits are never
// written, so a miss-dominated scan is a pure read stream.
//
// Like subcmp.go, the kernel dispatches across the generic baseline,
// the unrolled multi-lane path and the AVX2 assembly path (kernel.go),
// all bit-identical; the coefficient loops are branchless by policy
// (cmvet's ctbranch analyzer), and an unaligned base gets a scalar
// prologue up to the word boundary instead of demoting the whole poly
// to the scalar path.

// bitsetWord returns the word index and in-word bit mask of bit i.
//
//cm:hotpath
func bitsetWord(i int) (int, uint64) {
	return i >> 6, 1 << (uint(i) & 63)
}

// eqMaskBit returns 1 when x == y and 0 otherwise, without branching:
// z|-z has its top bit set iff z != 0.
//
//cm:hotpath
func eqMaskBit(x, y uint64) uint64 {
	z := x ^ y
	return ((z | -z) >> 63) ^ 1
}

// CmpEqScalarBits sets bit base+i of bits for every i with a[i] == v —
// the client-decrypt index generation, where every window compares
// against the single match value t-1.
//
//cm:hotpath
func CmpEqScalarBits(a Poly, v uint64, bits []uint64, base int) {
	switch KernelPath(activeKernel.Load()) {
	case KernelAVX2:
		cmpEqScalarAVX2(a, v, bits, base)
	case KernelUnrolled:
		cmpEqScalarUnrolled(a, v, bits, base)
	default:
		cmpEqScalarGeneric(a, v, bits, base)
	}
}

// cmpEqScalarGeneric is the portable word-at-a-time baseline.
//
//cm:hotpath
func cmpEqScalarGeneric(a Poly, v uint64, bits []uint64, base int) {
	n := len(a)
	i := 0
	if rem := base & 63; rem != 0 {
		pro := 64 - rem
		if pro > n {
			pro = n
		}
		cmpEqScalarEdge(a, v, bits, base, 0, pro)
		i = pro
	}
	for ; i+64 <= n; i += 64 {
		aa := a[i : i+64]
		var w uint64
		for k := range aa {
			w |= eqMaskBit(aa[k], v) << uint(k)
		}
		//cm:allow ctbranch -- aggregated hit-word store elision keeps misses a pure read stream
		if w != 0 {
			bits[(base+i)>>6] |= w
		}
	}
	cmpEqScalarEdge(a, v, bits, base, i, n)
}

// cmpEqScalarUnrolled is the multi-lane path: 8 compares per iteration
// over bounds-check-free re-slices.
//
//cm:hotpath
func cmpEqScalarUnrolled(a Poly, v uint64, bits []uint64, base int) {
	n := len(a)
	i := 0
	if rem := base & 63; rem != 0 {
		pro := 64 - rem
		if pro > n {
			pro = n
		}
		cmpEqScalarEdge(a, v, bits, base, 0, pro)
		i = pro
	}
	for ; i+64 <= n; i += 64 {
		var w uint64
		for k := 0; k < 64; k += 8 {
			a8 := a[i+k : i+k+8 : i+k+8]
			g := eqMaskBit(a8[0], v) |
				eqMaskBit(a8[1], v)<<1 |
				eqMaskBit(a8[2], v)<<2 |
				eqMaskBit(a8[3], v)<<3 |
				eqMaskBit(a8[4], v)<<4 |
				eqMaskBit(a8[5], v)<<5 |
				eqMaskBit(a8[6], v)<<6 |
				eqMaskBit(a8[7], v)<<7
			w |= g << uint(k)
		}
		//cm:allow ctbranch -- aggregated hit-word store elision keeps misses a pure read stream
		if w != 0 {
			bits[(base+i)>>6] |= w
		}
	}
	cmpEqScalarEdge(a, v, bits, base, i, n)
}

// cmpEqScalarEdge is CmpEqScalarBits' coefficient-at-a-time edge path
// over [lo, hi).
//
//cm:hotpath
func cmpEqScalarEdge(a Poly, v uint64, bits []uint64, base, lo, hi int) {
	for i := lo; i < hi; i++ {
		wi, m := bitsetWord(base + i)
		bits[wi] |= m & -eqMaskBit(a[i], v)
	}
}
