//go:build amd64

package ring

// The avx2 and avx512 paths of SubCmpNarrowBits: the block primitives
// live in kernel_amd64.s and operate on 64-coefficient runs (one bitset
// word of lanes) against up to 64 comparand rows per call. The driver
// below keeps every piece of policy in Go — prologue/epilogue alignment
// handling, the per-word store elision, the comparand grouping — and
// hands the asm nothing but dense arithmetic over memory the driver has
// already proven in bounds. The stubs are //go:noescape so the verdict
// buffer stays on the driver's stack, keeping the 0 allocs/op pin
// honest.

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

// subCmpNarrowBlock64AVX2 writes, for each v in [0, nrhs), the packed
// verdict word of coefficients [i, i+64) to out[v]: bit k set iff
// (a[k]-d_k) mod 2^s == low[k] mod 2^s (the guard, with lm = 2^s-1)
// and uint16((a[k]-d_k) >> s) == top[v][i+k], where d_k is lane k of
// the token row at d, lb (4 or 8) bytes wide, off = 2*i, and a, d and
// low already point at coefficient i. nrhs must be in [1, 64]; every
// top[v] must hold i+64 lanes.
//
//cm:hotpath
//go:noescape
func subCmpNarrowBlock64AVX2(out, a *uint64, d *byte, low *uint64, top *[]uint16, nrhs, off int, lm, s uint64, lb int)

// subCmpNarrowBlock64AVX512 is subCmpNarrowBlock64AVX2 on ZMM
// registers: 8 guard lanes and 32 narrow lanes per vector op.
//
//cm:hotpath
//go:noescape
func subCmpNarrowBlock64AVX512(out, a *uint64, d *byte, low *uint64, top *[]uint16, nrhs, off int, lm, s uint64, lb int)

// subCmpNarrowAsm is SubCmpNarrowBits on the assembly block primitives
// (avx512 selects the ZMM one): each 64-coefficient block computes its
// guard word and packs its 64 narrow differences into registers once,
// then compares them against up to 64 comparand rows in one call,
// reading each row's data pointer from its slice header.
//
//cm:hotpath
func (r *Ring) subCmpNarrowAsm(a Poly, d []byte, low Poly, top [][]uint16, out []HitWord, base int, avx512 bool) int {
	if len(top) == 0 {
		return 0 // the asm comparand loop counts down from nrhs >= 1
	}
	n, lb := len(a), r.laneBytes
	i, nw := 0, 0
	if rem := base & 63; rem != 0 {
		i = min(64-rem, n)
		nw = r.subCmpNarrowScalar(a, d, low, top, out, nw, base, 0, i)
	}
	// The asm reads d, low and every comparand row through coefficient
	// n-1 with no bounds checks of its own: prove the lengths once.
	_ = d[len(d)-n*lb:]
	_ = low[len(low)-n:]
	for _, tv := range top {
		_ = tv[len(tv)-n:]
	}
	s, lm := uint64(r.narrowShift), r.lowMask
	var verdict [64]uint64
	for ; i+64 <= n; i += 64 {
		wi := uint32((base + i) >> 6)
		for g := 0; g < len(top); g += len(verdict) {
			grp := top[g:min(g+len(verdict), len(top))]
			if avx512 {
				subCmpNarrowBlock64AVX512(&verdict[0], &a[i], &d[i*lb], &low[i], &grp[0], len(grp), 2*i, lm, s, lb)
			} else {
				subCmpNarrowBlock64AVX2(&verdict[0], &a[i], &d[i*lb], &low[i], &grp[0], len(grp), 2*i, lm, s, lb)
			}
			for v, w := range verdict[:len(grp)] {
				//cm:allow ctbranch -- aggregated hit-word emission: reveals only word-granular occupancy, and is the kernel's read-stream guarantee
				if w != 0 {
					out[nw].Word, out[nw].Row, out[nw].Mask = wi, uint32(g+v), w
					nw++
				}
			}
		}
	}
	return r.subCmpNarrowScalar(a, d, low, top, out, nw, base, i, n)
}
