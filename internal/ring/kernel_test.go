package ring

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"testing"

	"ciphermatch/internal/rng"
)

// withKernel runs f under the named dispatch path and restores the
// previous one, so tests can't leak a forced path into the rest of the
// suite.
func withKernel(t testing.TB, p KernelPath, f func()) {
	t.Helper()
	prev := ActiveKernel()
	if err := SetKernel(p); err != nil {
		t.Fatalf("SetKernel(%s): %v", p, err)
	}
	defer func() {
		if err := SetKernel(prev); err != nil {
			t.Fatalf("restoring kernel path %s: %v", prev, err)
		}
	}()
	f()
}

func TestKernelPathNames(t *testing.T) {
	for _, p := range []KernelPath{KernelGeneric, KernelAVX2, KernelAVX512} {
		got, err := ParseKernelPath(p.String())
		if err != nil {
			t.Fatalf("ParseKernelPath(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParseKernelPath(%q) = %v, want %v", p.String(), got, p)
		}
	}
	for _, s := range []string{"sse9", "unrolled"} {
		if _, err := ParseKernelPath(s); err == nil {
			t.Fatalf("ParseKernelPath accepted the unknown path %q", s)
		}
	}
}

func TestSetKernelAvailability(t *testing.T) {
	prev := ActiveKernel()
	defer SetKernel(prev)
	if err := SetKernel(KernelGeneric); err != nil {
		t.Fatalf("generic must always be available: %v", err)
	}
	for _, asm := range []struct {
		p         KernelPath
		supported bool
	}{{KernelAVX2, avx2Supported}, {KernelAVX512, avx512Supported}} {
		if err := SetKernel(asm.p); (err == nil) != asm.supported {
			t.Fatalf("SetKernel(%s) = %v with supported=%v", asm.p, err, asm.supported)
		}
	}
	if avx512Supported && !avx2Supported {
		t.Fatal("avx512 must imply avx2 (GODEBUG cpu.avx2=off disables both assembly paths)")
	}
	if err := SetKernel(KernelPath(99)); err == nil {
		t.Fatal("SetKernel accepted an unknown path value")
	}
	// The init ladder honoured GODEBUG, and a CM_KERNEL it could not
	// satisfy left a note (CI's fallback legs run this under both).
	gd := os.Getenv("GODEBUG")
	if godebugDisables(gd, "avx2") && avx2Supported || godebugDisables(gd, "avx512f", "avx512bw") && avx512Supported {
		t.Fatalf("GODEBUG=%q not honoured: avx2=%v avx512=%v", gd, avx2Supported, avx512Supported)
	}
	if env := os.Getenv("CM_KERNEL"); env != "" && env != prev.String() && KernelInitNote() == "" {
		t.Fatalf("CM_KERNEL=%s fell back to %s without an init note", env, prev)
	}
	avail := AvailableKernels()
	t.Logf("AvailableKernels() = %v, active %s", avail, ActiveKernel())
	want := []KernelPath{KernelGeneric}
	if avx2Supported {
		want = append(want, KernelAVX2)
	}
	if avx512Supported {
		want = append(want, KernelAVX512)
	}
	if fmt.Sprint(avail) != fmt.Sprint(want) {
		t.Fatalf("AvailableKernels() = %v, want %v", avail, want)
	}
}

func TestGodebugDisablesAVX2(t *testing.T) {
	for _, tc := range []struct {
		godebug      string
		avx2, avx512 bool // whether the knob disables each path's own check
	}{
		{"", false, false},
		{"cpu.avx2=off", true, false},
		{"gctrace=1,cpu.avx2=off", true, false},
		{"gctrace=1, cpu.avx2=off ,x=1", true, false},
		{"cpu.avx2=on", false, false},
		{"cpu.avx512f=off", false, true},
		{"cpu.avx512bw=off", false, true},
		{"gctrace=1, cpu.avx512bw=off", false, true},
		{"cpu.avx512=off", false, false}, // not a Go option
		{"cpu.avx512vl=off", false, false},
	} {
		if got := godebugDisables(tc.godebug, "avx2"); got != tc.avx2 {
			t.Errorf("godebugDisables(%q, avx2) = %v, want %v", tc.godebug, got, tc.avx2)
		}
		if got := godebugDisables(tc.godebug, "avx512f", "avx512bw"); got != tc.avx512 {
			t.Errorf("godebugDisables(%q, avx512f, avx512bw) = %v, want %v", tc.godebug, got, tc.avx512)
		}
	}
}

// kernelCase is one randomised kernel workload shared by the
// cross-path property test and the differential fuzzer: a tile of
// chunks whose comparand rows repeat with a phase period, as a search's
// rows do when the pattern length does not divide a chunk's bits.
type kernelCase struct {
	r    *Ring
	base int
	// a[c] and d[c] are chunk c's subcmp operands, and rhs[p] the
	// comparands of phase p: chunk c uses rhs[c mod len(rhs)].
	a, d []Poly
	rhs  [][]Poly
	// low, top and lanes are the SubCmpNarrowBits operands (nil when
	// the ring has no narrow split): top[p] is cut from rhs[p], low
	// matches the differences' low part at ~3/4 of the coefficients, so
	// the guard both passes and fails, and lanes[c] is d[c] as a token
	// row starting off bytes into its buffer.
	low   Poly
	top   [][][]uint16
	lanes [][]byte
}

// newKernelCase builds a tile of chunks chunks over period phases. Each
// phase has a target difference sharing low's low part at ~3/4 of the
// coefficients; a chunk's difference equals its phase's target at ~3/4
// of the coefficients and is zero (equal operands) at ~1/8, and each
// comparand takes the target at ~1/4, so the verdict words are neither
// all-zero nor all-one.
func newKernelCase(src *rng.Source, n int, q uint64, R, base, off, chunks, period int) kernelCase {
	r := MustNew(n, q)
	s, narrow := r.NarrowShift()
	lm := uint64(1)<<s - 1
	tc := kernelCase{r: r, base: base, low: r.NewPoly()}
	r.UniformPoly(src, tc.low)
	target := make([]Poly, period)
	tc.rhs = make([][]Poly, period)
	for p := range target {
		target[p] = r.NewPoly()
		r.UniformPoly(src, target[p])
		for i := range target[p] {
			if narrow && src.Uniform(4) != 0 {
				target[p][i] = target[p][i]&^lm | tc.low[i]&lm
			}
		}
		tc.rhs[p] = make([]Poly, R)
		for v := range tc.rhs[p] {
			tc.rhs[p][v] = r.NewPoly()
			r.UniformPoly(src, tc.rhs[p][v])
			for i := range tc.rhs[p][v] {
				if src.Uniform(4) == 0 {
					tc.rhs[p][v][i] = target[p][i]
				}
			}
		}
	}
	for c := 0; c < chunks; c++ {
		a, d := r.NewPoly(), r.NewPoly()
		r.UniformPoly(src, a)
		r.UniformPoly(src, d)
		// d = a − target makes the difference the phase's target; a+q-d
		// == q exactly (d = a) is the boundary of every conditional
		// subtraction, and random draws never reach it.
		sub := r.NewPoly()
		r.Sub(a, target[c%period], sub)
		for i := range d {
			switch src.Uniform(8) {
			case 0:
				d[i] = a[i]
			case 1:
			default:
				d[i] = sub[i]
			}
		}
		tc.a, tc.d = append(tc.a, a), append(tc.d, d)
	}
	if narrow {
		for _, rhs := range tc.rhs {
			tc.top = append(tc.top, narrowRows(r, rhs))
		}
		for _, d := range tc.d {
			tc.lanes = append(tc.lanes, laneRow(r, d, off))
		}
	}
	return tc
}

// tile returns the case's SubCmpNarrowBits operands, one NarrowChunk
// per chunk.
func (tc kernelCase) tile() []NarrowChunk {
	tile := make([]NarrowChunk, len(tc.a))
	for c := range tile {
		tile[c] = NarrowChunk{A: tc.a[c], D: tc.lanes[c], Top: tc.top[c%len(tc.top)]}
	}
	return tile
}

// runAllKernels checks SubCmpMultiBits, which runs one loop on every
// path, once against the unfused subtract-then-compare pipeline for
// every chunk at the case's base, and then, where the ring has a narrow
// split and n ≥ 64, runs SubCmpNarrowBits on the whole tile under every
// available dispatch path at the word boundary at or below the base,
// and fails the test unless each path emits exactly the records of
// wantNarrowRecords: SubCmpMultiBits on the rows widened back to Polys,
// one chunk at a time, against the comparands the narrow operands stand
// for. The narrow kernel takes whole bitset words only
// (TestSubCmpNarrowRejectsSubWords).
func runAllKernels(t testing.TB, tc kernelCase) {
	t.Helper()
	n := tc.r.N()
	for c := range tc.a {
		base := tc.base + c*n
		rhs := tc.rhs[c%len(tc.rhs)]
		words := (base + n + 63) / 64
		newBits := func() [][]uint64 {
			bits := make([][]uint64, len(rhs))
			for v := range bits {
				bits[v] = make([]uint64, words)
			}
			return bits
		}
		// The reference bitsets: subtract, then compare coefficient-wise.
		diff := tc.r.NewPoly()
		tc.r.Sub(tc.a[c], tc.d[c], diff)
		want := newBits()
		for v, rp := range rhs {
			for i := range n {
				if diff[i] == rp[i] {
					want[v][(base+i)>>6] |= 1 << (uint(base+i) & 63)
				}
			}
		}
		wide := newBits()
		tc.r.SubCmpMultiBits(tc.a[c], tc.d[c], rhs, wide, base)
		for v := range want {
			for w := range want[v] {
				if wide[v][w] != want[v][w] {
					t.Fatalf("SubCmpMultiBits: chunk %d rhs %d word %d = %#x, sub+compare %#x (n=%d q=%d base=%d)",
						c, v, w, wide[v][w], want[v][w], n, tc.r.Q(), base)
				}
			}
		}
	}
	if tc.top == nil || n < 64 {
		return
	}
	tile, base := tc.tile(), tc.base&^63
	want := wantNarrowRecords(tc.r, tile, tc.low, base)
	for _, p := range AvailableKernels() {
		withKernel(t, p, func() {
			got := narrowRecords(tc.r, tile, tc.low, base)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("SubCmpNarrowBits path %s: record %d of %d/%d differs: %s, want %s (n=%d q=%d base=%d chunks=%d period=%d row offset %d)",
					p, i, len(got), len(want), recordAt(got, i), recordAt(want, i), n, tc.r.Q(), base, len(tile), len(tc.top), cap(tc.lanes[0])-len(tc.lanes[0]))
			}
		})
	}
}

// scratchChunks is how many chunks of degree n one pass of the kernel's
// lane scratch holds: tiles longer than this cross a scratch boundary.
func scratchChunks(n int) int { return max(64*tileBlocks/n, 1) }

// TestKernelPathsBitIdentical is the deterministic cross-path property
// test: SubCmpMultiBits must match subtract-then-compare on every
// modulus family, across degrees on both sides of the 64-coefficient
// word body and aligned and unaligned bases, and every available path
// of SubCmpNarrowBits must emit the records of its SubCmpMultiBits
// oracle on the power-of-two ones at whole words, across comparand
// counts bracketing the serving R, and tiles of one chunk, of three
// chunks past a scratch boundary, and of such a tile whose comparand
// rows change with a phase period of 3.
func TestKernelPathsBitIdentical(t *testing.T) {
	src := rng.NewSourceFromString("kernel-paths")
	for _, fam := range slices.Concat(kernelFamilies, narrowFamilies) {
		t.Run(fam.name, func(t *testing.T) {
			long := scratchChunks(fam.n) + 3
			for _, base := range []int{0, 37, 64, 64*5 + 63} {
				for _, R := range []int{1, 4} {
					for trial := 0; trial < 6; trial++ {
						chunks, period := 1, 1
						if trial >= 2 {
							chunks, period = long, 1+trial/4*2
						}
						runAllKernels(t, newKernelCase(src, fam.n, fam.q, R, base, trial*11%64, chunks, period))
					}
				}
			}
		})
	}
}

// fuzzQs are the modulus grid of FuzzKernelPaths: the paper's 2^32,
// another power of two, generic moduli spanning small primes to just
// under the 2^57 cap, and ParamsN2048's 2^54 (appended, so the seeds
// keep their moduli). The powers of two also drive the narrow kernel.
var fuzzQs = []uint64{
	1 << 32,
	1 << 20,
	12289,
	(1 << 40) + 15,
	(1 << 56) + 7,
	1 << 54,
}

// fuzzNs are the degree grid: both sides of the 64-coefficient word
// body, plus the paper's n=1024.
var fuzzNs = []int{16, 64, 128, 1024}

// FuzzKernelPaths is the differential fuzzer of the dispatch layer:
// random modulus family, degree, base alignment, comparand count, token
// row byte offset (0–63), tile length (1–20 chunks), phase period (1–3)
// and coefficient streams, asserting that SubCmpMultiBits matches
// subtract-then-compare for every modulus, odd ones included, and that
// on power-of-two q the generic and (where present) avx2 and avx512
// paths of SubCmpNarrowBits, reading the rows' 4-byte (q ≤ 2^32) or
// 8-byte lanes, emit exactly the records of SubCmpMultiBits on the
// widened rows at whole words (the base rounded down to one; n ≥ 64). A divergence here is a miscompare in a rewritten
// kernel — exactly the bug class that must be impossible before a new
// path can ship.
func FuzzKernelPaths(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(2), uint8(1), uint16(37), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(3), uint8(2), uint16(63), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(4), uint8(4), uint8(3), uint16(129), uint8(5), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(5), uint8(1), uint8(1), uint16(64), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(6), uint8(0), uint8(3), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0))   // R = 0
	f.Add(uint64(7), uint8(2), uint8(3), uint16(37), uint8(70), uint8(0), uint8(0), uint8(0)) // R = 70
	f.Add(uint64(8), uint8(5), uint8(3), uint16(37), uint8(32), uint8(0), uint8(0), uint8(0)) // q = 2^54: 38 bits below the narrow lane
	// Token rows at odd byte offsets: 4-byte lanes (q = 2^32) and
	// 8-byte lanes (q = 2^54), aligned and unaligned bases.
	f.Add(uint64(9), uint8(0), uint8(3), uint16(0), uint8(32), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(10), uint8(0), uint8(2), uint16(37), uint8(7), uint8(63), uint8(0), uint8(0))
	f.Add(uint64(11), uint8(5), uint8(3), uint16(0), uint8(32), uint8(3), uint8(0), uint8(0))
	f.Add(uint64(12), uint8(5), uint8(1), uint16(101), uint8(65), uint8(61), uint8(0), uint8(0))
	// Multi-chunk tiles: n = 1024 past one scratch (8 chunks) with 4-
	// and 8-byte lanes, phase periods 2 and 3, and sub-word chunks
	// (n = 16), which only SubCmpMultiBits takes.
	f.Add(uint64(13), uint8(0), uint8(3), uint16(0), uint8(32), uint8(0), uint8(10), uint8(0))
	f.Add(uint64(14), uint8(0), uint8(3), uint16(64), uint8(5), uint8(9), uint8(10), uint8(1))
	f.Add(uint64(15), uint8(5), uint8(3), uint16(37), uint8(8), uint8(2), uint8(12), uint8(2))
	f.Add(uint64(16), uint8(0), uint8(0), uint16(21), uint8(3), uint8(0), uint8(18), uint8(2))
	f.Add(uint64(17), uint8(1), uint8(1), uint16(7), uint8(4), uint8(5), uint8(19), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, qSel, nSel uint8, baseRaw uint16, rRaw, offRaw, chunksRaw, periodRaw uint8) {
		q := fuzzQs[int(qSel)%len(fuzzQs)]
		n := fuzzNs[int(nSel)%len(fuzzNs)]
		base := int(baseRaw) % (3 * 64)
		R := int(rRaw) % 71
		var seedBytes [32]byte
		binary.LittleEndian.PutUint64(seedBytes[:8], seed)
		src := rng.NewSource(seedBytes)
		runAllKernels(t, newKernelCase(src, n, q, R, base, int(offRaw)%64, 1+int(chunksRaw)%20, 1+int(periodRaw)%3))
	})
}
