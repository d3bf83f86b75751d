//go:build !amd64

package ring

// No assembly kernels on this architecture: the avx2 path is never
// offered (SetKernel rejects it, AvailableKernels omits it), and the
// forwarders below exist only so the dispatch switches compile
// everywhere. Should the active path ever read KernelAVX2 here, the
// search still computes the right answer on the unrolled path.

func archAVX2Supported() bool { return false }

//cm:hotpath
func (r *Ring) subCmpAVX2(a, d Poly, rhs []Poly, bits [][]uint64, base int) {
	r.subCmpUnrolled(a, d, rhs, bits, base)
}

//cm:hotpath
func cmpEqScalarAVX2(a Poly, v uint64, bits []uint64, base int) {
	cmpEqScalarUnrolled(a, v, bits, base)
}
