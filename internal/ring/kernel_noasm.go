//go:build !amd64

package ring

// No assembly kernels on this architecture: the avx2 and avx512 paths
// are never offered (SetKernel rejects them, AvailableKernels omits
// them), and the forwarders below exist only so SubCmpNarrowBits'
// dispatch switches compile everywhere. Should the active path ever read
// one of them here, the search still computes the right answer on the
// generic path.

func archAVX2Supported() bool { return false }

func archAVX512Supported() bool { return false }

//cm:hotpath
func (r *Ring) sweepAsm(sc *laneTile, chunks []NarrowChunk, x, o int, low Poly, _ bool) {
	lb := r.laneBytes
	for s, ch := range chunks {
		r.narrowGo(sc.lanes[64*(x+s):64*(x+s+1)], &sc.guard[x+s], ch.A[o:o+64], ch.D[o*lb:(o+64)*lb], low[o:o+64])
	}
	filterGo(sc, chunks, x, o)
}

//cm:hotpath
func exactAsm(out []HitWord, sc *laneTile, x, step, m int, top [][]uint16, i int, w0 uint32, _ bool) int {
	return exactGo(out, sc, x, step, m, top, i, w0)
}
