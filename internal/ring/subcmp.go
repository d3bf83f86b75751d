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
// It is the 64-bit reference form of SubCmpNarrowBits (narrow.go), the
// kernel the CPU engine actually runs: one portable word-at-a-time loop
// on every kernel path, which the narrow kernel's property tests and
// the per-layer bench replay compare against. It works for any modulus,
// odd ones included, which the narrow kernel cannot split.
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
// stored: 64 differences at a time land in a stack buffer, and each
// comparand folds its 64 compares into one register. Words with no hits
// are never written, so a miss-dominated search stays a pure read
// stream. It runs the same loop whatever the active kernel path.
//
// rhs and bits must have equal length; every rhs[v] must have len(a)
// coefficients and every bits[v] must cover bits [base, base+len(a)).
//
//cm:hotpath
func (r *Ring) SubCmpMultiBits(a, d Poly, rhs []Poly, bits [][]uint64, base int) {
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

// subCmpScalar is the coefficient-at-a-time fallback of SubCmpMultiBits
// over coefficients [lo, hi), shared by the unaligned prologue and the
// tail epilogue. It keeps the same branchless
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
