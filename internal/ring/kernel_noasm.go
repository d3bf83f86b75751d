//go:build !amd64

package ring

// No assembly kernels on this architecture: the avx2 and avx512 paths
// are never offered (SetKernel rejects them, AvailableKernels omits
// them), and the forwarder below exists only so SubCmpNarrowBits'
// dispatch switch compiles everywhere. Should the active path ever read
// one of them here, the search still computes the right answer on the
// unrolled path.

func archAVX2Supported() bool { return false }

func archAVX512Supported() bool { return false }

//cm:hotpath
func (r *Ring) subCmpNarrowAsm(a Poly, d []byte, low Poly, top [][]uint16, out []HitWord, base int, _ bool) int {
	return r.subCmpNarrowUnrolled(a, d, low, top, out, base)
}
