//go:build amd64

package ring

// The avx2 and avx512 paths of SubCmpNarrowBits: one assembly
// primitive per step (kernel_amd64.s) — narrow one block position of a
// tile, filter it, mark its hit rows (avx512), compare one chunk's
// flagged blocks exactly — each looping over whole 64-lane blocks. The
// Go driver (narrow.go) keeps every piece of policy — the whole-word
// precondition, tiling — and hands the asm nothing but dense arithmetic
// over memory it has already proven in bounds. The stubs are //go:noescape so the lane scratch and the
// tile's chunk descriptors stay on the caller's stack, keeping the 0
// allocs/op pin honest.

// archAVX2Supported reports CPU + OS support for the AVX2 kernels:
// OSXSAVE and AVX in CPUID.1:ECX, XMM+YMM state enabled in XCR0, and
// AVX2 in CPUID.7.0:EBX — the same ladder the Go runtime walks for
// internal/cpu.
func archAVX2Supported() bool {
	maxID, _, _, _ := kernelCPUID(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := kernelCPUID(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := kernelXGETBV0()
	if xcr0&6 != 6 { // XMM and YMM state must both be OS-managed
		return false
	}
	_, ebx7, _, _ := kernelCPUID(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// archAVX512Supported reports CPU + OS support for the AVX-512 kernel
// on top of the AVX2 ladder: AVX512F and AVX512BW in CPUID.7.0:EBX,
// and the opmask, ZMM_Hi256 and Hi16_ZMM state enabled in XCR0.
func archAVX512Supported() bool {
	if !archAVX2Supported() {
		return false
	}
	xcr0, _ := kernelXGETBV0()
	if xcr0&0xE6 != 0xE6 {
		return false
	}
	_, ebx7, _, _ := kernelCPUID(7, 0)
	const avx512f, avx512bw = 1 << 16, 1 << 30
	return ebx7&avx512f != 0 && ebx7&avx512bw != 0
}

// kernelCPUID executes CPUID with the given leaf and subleaf.
func kernelCPUID(op, sub uint32) (eax, ebx, ecx, edx uint32)

// kernelXGETBV0 reads XCR0 (requires OSXSAVE, checked first).
func kernelXGETBV0() (eax, edx uint32)

// narrowLanesAVX2 narrows one block position, coefficients i … i+63,
// of each of spans chunks of tile into the consecutive scratch blocks
// from x: block x+s's lanes[k] = uint16((a[k]-d_k) >> s) and bit k of
// its guard word is set iff (a[k]-d_k) mod 2^s == low[k] mod 2^s (lm =
// 2^s-1), where a is chunk s's A from coefficient i, d_k lane i+k of its
// token row, lb (4 or 8) bytes wide, and low points at low[i].
//
//cm:hotpath
//go:noescape
func narrowLanesAVX2(sc *laneTile, tile *NarrowChunk, spans, x, i int, low *uint64, lm, s uint64, lb int)

// narrowLanesAVX512 is narrowLanesAVX2 on ZMM registers.
//
//cm:hotpath
//go:noescape
func narrowLanesAVX512(sc *laneTile, tile *NarrowChunk, spans, x, i int, low *uint64, lm, s uint64, lb int)

// narrowFilterAVX2 is the filter of one block position: for each of
// spans chunks of tile, scratch block x+s's flags word is its guard
// word ANDed with the lanes some comparand row of the chunk equals,
// rows read from byte off, via the lane-wise minimum of lanes XOR row.
//
//cm:hotpath
//go:noescape
func narrowFilterAVX2(sc *laneTile, tile *NarrowChunk, spans, x, off int)

// narrowFilterAVX512 is narrowFilterAVX2 on ZMM registers.
//
//cm:hotpath
//go:noescape
func narrowFilterAVX512(sc *laneTile, tile *NarrowChunk, spans, x, off int)

// narrowHitRowsAVX512 marks, at one block position of spans chunks of
// tile, which of the first 64 comparand rows hit: bit v of scratch
// block x+s's rows word is set iff row v, read from byte off, equals
// some lane the block's flags word keeps; unflagged blocks get 0. It
// runs while the position's comparand slices are in L1, so the exact
// compare, which walks chunk by chunk, reads only rows that hit.
//
//cm:hotpath
//go:noescape
func narrowHitRowsAVX512(sc *laneTile, tile *NarrowChunk, spans, x, off int)

// narrowExactAVX2 compares the nb scratch blocks x, x+step, … whose
// flags word is nonzero against the nrhs >= 1 comparand rows whose
// headers start at top, read from byte off (block k at off+128k), and
// writes a HitWord {word+k, v, eq AND flags} to out for every
// comparand v with a nonzero one, branch-free: each record is stored,
// then kept or overwritten. It returns the number kept.
//
//cm:hotpath
//go:noescape
func narrowExactAVX2(out *HitWord, sc *laneTile, x, step, nb int, top *[]uint16, nrhs, off int, word uint64) int

// narrowExactAVX512 is narrowExactAVX2 on ZMM registers, comparing of
// the first 64 comparands only those the block's rows word marks.
//
//cm:hotpath
//go:noescape
func narrowExactAVX512(out *HitWord, sc *laneTile, x, step, nb int, top *[]uint16, nrhs, off int, word uint64) int

// sweepAsm is one block position of sweepTile on the assembly paths:
// stage 1 at coefficient o into scratch blocks x …, then the filter
// and, on avx512, the hit-row pass; sweepTile has proven every operand
// in bounds.
//
//cm:hotpath
func (r *Ring) sweepAsm(sc *laneTile, chunks []NarrowChunk, x, o int, low Poly, avx512 bool) {
	s, lm, lb := uint64(r.narrowShift), r.lowMask, r.laneBytes
	_ = sc.guard[x+len(chunks)-1]
	if avx512 {
		narrowLanesAVX512(sc, &chunks[0], len(chunks), x, o, &low[o], lm, s, lb)
		narrowFilterAVX512(sc, &chunks[0], len(chunks), x, 2*o)
		narrowHitRowsAVX512(sc, &chunks[0], len(chunks), x, 2*o)
	} else {
		narrowLanesAVX2(sc, &chunks[0], len(chunks), x, o, &low[o], lm, s, lb)
		narrowFilterAVX2(sc, &chunks[0], len(chunks), x, 2*o)
	}
}

// exactAsm is the exact compare on the assembly paths: out holds a
// record for every block and comparand, and sweepTile has proven the
// comparand rows in bounds.
//
//cm:hotpath
func exactAsm(out []HitWord, sc *laneTile, x, step, m int, top [][]uint16, i int, w0 uint32, avx512 bool) int {
	_, _ = out[m*len(top)-1], sc.flags[x+(m-1)*step]
	if avx512 {
		return narrowExactAVX512(&out[0], sc, x, step, m, &top[0], len(top), 2*i, uint64(w0))
	}
	return narrowExactAVX2(&out[0], sc, x, step, m, &top[0], len(top), 2*i, uint64(w0))
}
