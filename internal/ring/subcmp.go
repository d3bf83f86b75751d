package ring

// This file implements the residue-fused compare kernel of the factored
// match-token representation. The expected hit value of (chunk j,
// residue s) factors as DBTok[j] + RHS[psi(j,s)], so the hit condition
// (a + b) mod q == tok of §4.2.2 rewrites as
//
//	(a[i] - DBTok[j][i]) mod q == RHS[psi][i]
//
// whose left side is residue-independent: one streaming pass over the
// chunk's first component and its DBTok poly serves every shift variant
// at once, with the R per-phase RHS polys staying cache-resident — a
// search reads the ciphertext arena once, not once per residue (see
// core's engine kernels).
//
// The kernel exists in four dispatch paths (see kernel.go): the
// generic word-at-a-time baseline, the unrolled multi-lane path below,
// and the AVX2 and AVX-512 assembly paths (kernel_amd64.go). All paths share the
// scalar prologue/epilogue and are proven bit-identical by
// FuzzKernelPaths and the cross-path property tests.
//
// The coefficient loops are branchless by policy (enforced by cmvet's
// ctbranch analyzer): the modular reduction and the equality test are
// computed with masks, never with data-dependent branches, so the
// kernel's timing and store pattern depend only on public shape — with
// one deliberate exception, the aggregated hit-word store elision,
// which reveals only word-granular "some window hit" and is what keeps
// a miss-dominated search a pure read stream.

// SubCmpMultiBits sets bit base+i of bits[v] for every comparand v and
// coefficient i with (a[i] - d[i]) mod q == rhs[v][i]. Bits are only
// ever set, never cleared, so repeated calls over disjoint base ranges
// accumulate into packed bitsets (one per comparand). a and d are each
// read exactly once regardless of len(rhs); no difference polynomial is
// stored. Words with no hits are never written, so a miss-dominated
// search stays a pure read stream.
//
// rhs and bits must have equal length; every rhs[v] must have len(a)
// coefficients and every bits[v] must cover bits [base, base+len(a)).
//
//cm:hotpath
func (r *Ring) SubCmpMultiBits(a, d Poly, rhs []Poly, bits [][]uint64, base int) {
	switch KernelPath(activeKernel.Load()) {
	case KernelAVX512:
		r.subCmpAVX512(a, d, rhs, bits, base)
	case KernelAVX2:
		r.subCmpAVX2(a, d, rhs, bits, base)
	case KernelUnrolled:
		r.subCmpUnrolled(a, d, rhs, bits, base)
	default:
		r.subCmpGeneric(a, d, rhs, bits, base)
	}
}

// subCmpGeneric is the portable word-at-a-time baseline (the committed
// pre-dispatch kernel, kept verbatim as the reference implementation):
// 64 differences land in a stack buffer, then each comparand folds its
// 64 compares into one register, stored only when at least one window
// hit.
//
//cm:hotpath
func (r *Ring) subCmpGeneric(a, d Poly, rhs []Poly, bits [][]uint64, base int) {
	n := len(a)
	i := 0
	// Scalar prologue: walk coefficient-wise up to the next 64-bit bitset
	// boundary so the word-at-a-time body below runs for any base, not
	// just word-aligned ones.
	if rem := base & 63; rem != 0 {
		pro := 64 - rem
		if pro > n {
			pro = n
		}
		r.subCmpScalar(a, d, rhs, bits, base, 0, pro)
		i = pro
	}
	var diff [64]uint64
	for ; i+64 <= n; i += 64 {
		aa, dd := a[i:i+64], d[i:i+64]
		if r.qIsPow2 {
			mask := r.mask
			for k := range aa {
				diff[k] = (aa[k] - dd[k]) & mask
			}
		} else {
			q := r.q
			for k := range aa {
				t := aa[k] + q - dd[k] // d < q, no underflow
				// Branchless conditional reduction: subtract q iff
				// t >= q (then t-q has a clear sign bit and the mask
				// is all-ones).
				t -= q & (((t - q) >> 63) - 1)
				diff[k] = t
			}
		}
		wi := (base + i) >> 6
		for v, rp := range rhs {
			tt := rp[i : i+64]
			var w uint64
			for k := range tt {
				// Branchless equality: z|-z has its top bit set iff
				// z != 0, so eq is 1 exactly when diff[k] == tt[k].
				z := diff[k] ^ tt[k]
				eq := ((z | -z) >> 63) ^ 1
				w |= eq << uint(k)
			}
			//cm:allow ctbranch -- aggregated hit-word store elision: reveals only word-granular occupancy, and is the kernel's read-stream guarantee
			if w != 0 {
				bits[v][wi] |= w
			}
		}
	}
	// Scalar epilogue: the sub-word tail.
	r.subCmpScalar(a, d, rhs, bits, base, i, n)
}

// subCmpUnrolled is the multi-lane portable path: 8 coefficients per
// iteration with explicit three-index re-slicing (aa := a[i:i+8:i+8])
// so the compiler proves every lane access in bounds once per group
// and elides the per-access checks, and with the rhs[v]/bits[v] slice
// headers hoisted out of the coefficient loop. The difference buffer
// is still built once per 64-coefficient word and each comparand still
// folds its 64 compares into one register touched at most once per 64
// lanes — the unrolling changes the instruction schedule, not the
// store discipline.
//
//cm:hotpath
func (r *Ring) subCmpUnrolled(a, d Poly, rhs []Poly, bits [][]uint64, base int) {
	n := len(a)
	i := 0
	if rem := base & 63; rem != 0 {
		pro := 64 - rem
		if pro > n {
			pro = n
		}
		r.subCmpScalar(a, d, rhs, bits, base, 0, pro)
		i = pro
	}
	var diff [64]uint64
	for ; i+64 <= n; i += 64 {
		if r.qIsPow2 {
			mask := r.mask
			for k := 0; k < 64; k += 8 {
				a8 := a[i+k : i+k+8 : i+k+8]
				d8 := d[i+k : i+k+8 : i+k+8]
				f8 := diff[k : k+8 : k+8]
				f8[0] = (a8[0] - d8[0]) & mask
				f8[1] = (a8[1] - d8[1]) & mask
				f8[2] = (a8[2] - d8[2]) & mask
				f8[3] = (a8[3] - d8[3]) & mask
				f8[4] = (a8[4] - d8[4]) & mask
				f8[5] = (a8[5] - d8[5]) & mask
				f8[6] = (a8[6] - d8[6]) & mask
				f8[7] = (a8[7] - d8[7]) & mask
			}
		} else {
			q := r.q
			for k := 0; k < 64; k += 8 {
				a8 := a[i+k : i+k+8 : i+k+8]
				d8 := d[i+k : i+k+8 : i+k+8]
				f8 := diff[k : k+8 : k+8]
				t0 := a8[0] + q - d8[0]
				t1 := a8[1] + q - d8[1]
				t2 := a8[2] + q - d8[2]
				t3 := a8[3] + q - d8[3]
				t4 := a8[4] + q - d8[4]
				t5 := a8[5] + q - d8[5]
				t6 := a8[6] + q - d8[6]
				t7 := a8[7] + q - d8[7]
				f8[0] = t0 - q&(((t0-q)>>63)-1)
				f8[1] = t1 - q&(((t1-q)>>63)-1)
				f8[2] = t2 - q&(((t2-q)>>63)-1)
				f8[3] = t3 - q&(((t3-q)>>63)-1)
				f8[4] = t4 - q&(((t4-q)>>63)-1)
				f8[5] = t5 - q&(((t5-q)>>63)-1)
				f8[6] = t6 - q&(((t6-q)>>63)-1)
				f8[7] = t7 - q&(((t7-q)>>63)-1)
			}
		}
		wi := (base + i) >> 6
		for v := range rhs {
			// Hoist the comparand's poly and bitset headers: one slice
			// load each per word, not per coefficient.
			tt := rhs[v][i : i+64 : i+64]
			bv := bits[v]
			var w uint64
			for k := 0; k < 64; k += 8 {
				t8 := tt[k : k+8 : k+8]
				f8 := diff[k : k+8 : k+8]
				g := eqMaskBit(f8[0], t8[0]) |
					eqMaskBit(f8[1], t8[1])<<1 |
					eqMaskBit(f8[2], t8[2])<<2 |
					eqMaskBit(f8[3], t8[3])<<3 |
					eqMaskBit(f8[4], t8[4])<<4 |
					eqMaskBit(f8[5], t8[5])<<5 |
					eqMaskBit(f8[6], t8[6])<<6 |
					eqMaskBit(f8[7], t8[7])<<7
				w |= g << uint(k)
			}
			//cm:allow ctbranch -- aggregated hit-word store elision: reveals only word-granular occupancy, and is the kernel's read-stream guarantee
			if w != 0 {
				bv[wi] |= w
			}
		}
	}
	r.subCmpScalar(a, d, rhs, bits, base, i, n)
}

// subCmpScalar is the coefficient-at-a-time fallback of SubCmpMultiBits
// over coefficients [lo, hi), shared by the unaligned prologue and the
// tail epilogue of every dispatch path. It keeps the same branchless
// discipline: the hit mask is computed arithmetically and OR-stored
// unconditionally (an OR of zero is a no-op), so even the ragged edges
// have data-independent timing.
//
//cm:hotpath
func (r *Ring) subCmpScalar(a, d Poly, rhs []Poly, bits [][]uint64, base, lo, hi int) {
	for i := lo; i < hi; i++ {
		var t uint64
		if r.qIsPow2 {
			t = (a[i] - d[i]) & r.mask
		} else {
			t = a[i] + r.q - d[i]
			t -= r.q & (((t - r.q) >> 63) - 1)
		}
		wi, m := bitsetWord(base + i)
		for v, rp := range rhs {
			z := t ^ rp[i]
			eq := ((z | -z) >> 63) ^ 1
			bits[v][wi] |= m & -eq
		}
	}
}
