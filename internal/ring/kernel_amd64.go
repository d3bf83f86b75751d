//go:build amd64

package ring

// AVX2 kernel path: the block primitives live in kernel_amd64.s and
// operate on 64-coefficient runs (one bitset word of lanes, 16 vector
// ops of 4 uint64 lanes each). The drivers below keep every piece of
// policy in Go — prologue/epilogue alignment handling, the per-word
// store elision, the rhs fan-out — and hand the asm nothing but dense
// arithmetic over memory the driver has already proven in bounds
// (i+64 <= len, and the documented rhs/bits length contract). The
// stubs are //go:noescape so the difference buffer stays on the
// driver's stack, keeping the 0 allocs/op pin honest.

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

// kernelCPUID executes CPUID with the given leaf and subleaf.
func kernelCPUID(op, sub uint32) (eax, ebx, ecx, edx uint32)

// kernelXGETBV0 reads XCR0 (requires OSXSAVE, checked first).
func kernelXGETBV0() (eax, edx uint32)

// diffPow2Block64AVX2 stores (a[k]-d[k]) & mask into dst[k] for k in
// [0, 64). All three pointers address 64 readable (dst: writable)
// coefficients.
//
//cm:hotpath
//go:noescape
func diffPow2Block64AVX2(dst, a, d *uint64, mask uint64)

// diffGenericBlock64AVX2 stores (a[k]+q-d[k]) mod q into dst[k] for k
// in [0, 64), for q < 2^57 with a, d already reduced. The conditional
// subtraction is a sign-flipped signed compare (no unsigned 64-bit
// compare in AVX2), valid because both t < 2^58 and q-1 < 2^63.
//
//cm:hotpath
//go:noescape
func diffGenericBlock64AVX2(dst, a, d *uint64, q uint64)

// cmpEqBlock64AVX2 returns the packed equality word of two
// 64-coefficient runs: bit k set iff x[k] == y[k].
//
//cm:hotpath
//go:noescape
func cmpEqBlock64AVX2(x, y *uint64) uint64

// cmpEqScalarBlock64AVX2 returns the packed equality word of a
// 64-coefficient run against a broadcast scalar: bit k set iff
// x[k] == v.
//
//cm:hotpath
//go:noescape
func cmpEqScalarBlock64AVX2(x *uint64, v uint64) uint64

// subCmpAVX2 is SubCmpMultiBits on the assembly primitives: the
// difference block lands in a stack buffer via one vector pass, then
// each comparand's 64 compares collapse into one word via VPCMPEQQ +
// sign-mask extraction.
//
//cm:hotpath
func (r *Ring) subCmpAVX2(a, d Poly, rhs []Poly, bits [][]uint64, base int) {
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
			diffPow2Block64AVX2(&diff[0], &a[i], &d[i], r.mask)
		} else {
			diffGenericBlock64AVX2(&diff[0], &a[i], &d[i], r.q)
		}
		wi := (base + i) >> 6
		for v := range rhs {
			w := cmpEqBlock64AVX2(&diff[0], &rhs[v][i])
			//cm:allow ctbranch -- aggregated hit-word store elision: reveals only word-granular occupancy, and is the kernel's read-stream guarantee
			if w != 0 {
				bits[v][wi] |= w
			}
		}
	}
	r.subCmpScalar(a, d, rhs, bits, base, i, n)
}

// cmpEqScalarAVX2 is CmpEqScalarBits on the assembly primitives.
//
//cm:hotpath
func cmpEqScalarAVX2(a Poly, v uint64, bits []uint64, base int) {
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
		w := cmpEqScalarBlock64AVX2(&a[i], v)
		//cm:allow ctbranch -- aggregated hit-word store elision keeps misses a pure read stream
		if w != 0 {
			bits[(base+i)>>6] |= w
		}
	}
	cmpEqScalarEdge(a, v, bits, base, i, n)
}
