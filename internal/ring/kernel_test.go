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
	for _, p := range []KernelPath{KernelGeneric, KernelUnrolled, KernelAVX2, KernelAVX512} {
		got, err := ParseKernelPath(p.String())
		if err != nil {
			t.Fatalf("ParseKernelPath(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParseKernelPath(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := ParseKernelPath("sse9"); err == nil {
		t.Fatal("ParseKernelPath accepted an unknown path")
	}
}

func TestSetKernelAvailability(t *testing.T) {
	prev := ActiveKernel()
	defer SetKernel(prev)
	if err := SetKernel(KernelUnrolled); err != nil {
		t.Fatalf("unrolled must always be available: %v", err)
	}
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
	want := []KernelPath{KernelGeneric, KernelUnrolled}
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
// cross-path property test and the differential fuzzer.
type kernelCase struct {
	r    *Ring
	a, d Poly   // subcmp operands
	rhs  []Poly // subcmp comparands
	base int
	// low and top are the SubCmpNarrowBits operands (nil when the ring
	// has no narrow split): top is cut from rhs, and low matches the
	// difference's low part at ~3/4 of the coefficients, so the guard
	// both passes and fails. lanes is d as a token row starting off
	// bytes into its buffer.
	low   Poly
	top   [][]uint16
	lanes []byte
}

// newKernelCase builds polynomials with hits planted at ~1/4 of the
// coefficients so the verdict words are neither all-zero nor all-one.
func newKernelCase(src *rng.Source, n int, q uint64, R, base, off int) kernelCase {
	r := MustNew(n, q)
	a, d := r.NewPoly(), r.NewPoly()
	r.UniformPoly(src, a)
	r.UniformPoly(src, d)
	// Equal operands at ~1/8 of the coefficients: a+q-d == q exactly is
	// the boundary of every conditional subtraction, and random draws
	// never reach it.
	for i := range d {
		if src.Uniform(8) == 0 {
			d[i] = a[i]
		}
	}
	diff := r.NewPoly()
	r.Sub(a, d, diff)
	rhs := make([]Poly, R)
	for v := range rhs {
		rhs[v] = r.NewPoly()
		r.UniformPoly(src, rhs[v])
		for i := range rhs[v] {
			if src.Uniform(4) == 0 {
				rhs[v][i] = diff[i]
			}
		}
	}
	tc := kernelCase{r: r, a: a, d: d, rhs: rhs, base: base}
	if _, ok := r.NarrowShift(); ok {
		tc.top = narrowRows(r, rhs)
		tc.lanes = laneRow(r, d, off)
		tc.low = r.NewPoly()
		r.UniformPoly(src, tc.low)
		for i := range tc.low {
			if src.Uniform(4) != 0 {
				tc.low[i] = diff[i]
			}
		}
	}
	return tc
}

// runAllKernels checks SubCmpMultiBits, which runs one loop on every
// path, once against the unfused subtract-then-compare pipeline, and
// then, where the ring has a narrow split, runs SubCmpNarrowBits on the
// token row under every available dispatch path and fails the test
// unless each path's bitsets are bit-identical to SubCmpMultiBits' on
// the row widened back to a Poly, against the comparands the narrow
// operands stand for: top[v]'s lanes over low's low part.
func runAllKernels(t testing.TB, tc kernelCase) {
	t.Helper()
	n := tc.r.N()
	words := (tc.base + n + 63) / 64
	newBits := func() [][]uint64 {
		bits := make([][]uint64, len(tc.rhs))
		for v := range bits {
			bits[v] = make([]uint64, words)
		}
		return bits
	}
	// The reference bitsets: subtract, then compare coefficient-wise.
	diff := tc.r.NewPoly()
	tc.r.Sub(tc.a, tc.d, diff)
	want := newBits()
	for v, rp := range tc.rhs {
		for i := range n {
			if diff[i] == rp[i] {
				want[v][(tc.base+i)>>6] |= 1 << (uint(tc.base+i) & 63)
			}
		}
	}
	wide := newBits()
	tc.r.SubCmpMultiBits(tc.a, tc.d, tc.rhs, wide, tc.base)
	for v := range want {
		for w := range want[v] {
			if wide[v][w] != want[v][w] {
				t.Fatalf("SubCmpMultiBits: rhs %d word %d = %#x, sub+compare %#x (n=%d q=%d base=%d)",
					v, w, wide[v][w], want[v][w], n, tc.r.Q(), tc.base)
			}
		}
	}
	if tc.top == nil {
		return
	}
	s, _ := tc.r.NarrowShift()
	lm := uint64(1)<<s - 1
	widened := tc.r.NewPoly()
	tc.r.WidenLanes(widened, tc.lanes)
	cmp := make([]Poly, len(tc.top))
	for v, tv := range tc.top {
		cmp[v] = tc.r.NewPoly()
		for i, x := range tv {
			cmp[v][i] = uint64(x)<<s | tc.low[i]&lm
		}
	}
	ref := newBits()
	tc.r.SubCmpMultiBits(tc.a, widened, cmp, ref, tc.base)
	for _, p := range AvailableKernels() {
		withKernel(t, p, func() {
			got := runNarrow(t, tc.r, tc.a, tc.lanes, tc.low, tc.top, tc.base, words)
			for v := range ref {
				for w := range ref[v] {
					if got[v][w] != ref[v][w] {
						t.Fatalf("SubCmpNarrowBits path %s: rhs %d word %d = %#x, SubCmpMultiBits on the widened row %#x (n=%d q=%d base=%d row offset %d)",
							p, v, w, got[v][w], ref[v][w], n, tc.r.Q(), tc.base, cap(tc.lanes)-len(tc.lanes))
					}
				}
			}
		})
	}
}

// TestKernelPathsBitIdentical is the deterministic cross-path property
// test: SubCmpMultiBits must match subtract-then-compare on every
// modulus family, and every available path of SubCmpNarrowBits must
// agree with its generic baseline bit for bit on the power-of-two
// ones, across degrees on both sides of the 64-coefficient word body,
// aligned and unaligned bases, and comparand counts bracketing the
// serving R.
func TestKernelPathsBitIdentical(t *testing.T) {
	src := rng.NewSourceFromString("kernel-paths")
	for _, fam := range slices.Concat(kernelFamilies, narrowFamilies) {
		t.Run(fam.name, func(t *testing.T) {
			for _, base := range []int{0, 37, 64, 64*5 + 63} {
				for _, R := range []int{1, 4} {
					for trial := 0; trial < 6; trial++ {
						runAllKernels(t, newKernelCase(src, fam.n, fam.q, R, base, trial*11%64))
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
// row byte offset (0–63) and coefficient streams, asserting that
// SubCmpMultiBits matches subtract-then-compare for every modulus, odd
// ones included, and that on power-of-two q the generic, unrolled and
// (where present) avx2 and avx512 paths of SubCmpNarrowBits, reading
// the row's 4-byte (q ≤ 2^32) or 8-byte lanes, are bit-identical to
// SubCmpMultiBits on the widened row. A divergence here is a miscompare
// in a rewritten kernel — exactly the bug class that must be impossible
// before a new path can ship.
func FuzzKernelPaths(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(2), uint8(1), uint16(37), uint8(4), uint8(0))
	f.Add(uint64(3), uint8(3), uint8(2), uint16(63), uint8(3), uint8(0))
	f.Add(uint64(4), uint8(4), uint8(3), uint16(129), uint8(5), uint8(0))
	f.Add(uint64(5), uint8(1), uint8(1), uint16(64), uint8(2), uint8(0))
	f.Add(uint64(6), uint8(0), uint8(3), uint16(0), uint8(0), uint8(0))   // R = 0
	f.Add(uint64(7), uint8(2), uint8(3), uint16(37), uint8(70), uint8(0)) // R = 70: two comparand groups
	f.Add(uint64(8), uint8(5), uint8(3), uint16(37), uint8(32), uint8(0)) // q = 2^54: 38 bits below the narrow lane
	// Token rows at odd byte offsets: 4-byte lanes (q = 2^32) and
	// 8-byte lanes (q = 2^54), aligned and unaligned bases.
	f.Add(uint64(9), uint8(0), uint8(3), uint16(0), uint8(32), uint8(1))
	f.Add(uint64(10), uint8(0), uint8(2), uint16(37), uint8(7), uint8(63))
	f.Add(uint64(11), uint8(5), uint8(3), uint16(0), uint8(32), uint8(3))
	f.Add(uint64(12), uint8(5), uint8(1), uint16(101), uint8(65), uint8(61))
	f.Fuzz(func(t *testing.T, seed uint64, qSel, nSel uint8, baseRaw uint16, rRaw, offRaw uint8) {
		q := fuzzQs[int(qSel)%len(fuzzQs)]
		n := fuzzNs[int(nSel)%len(fuzzNs)]
		base := int(baseRaw) % (3 * 64)
		R := int(rRaw) % 71
		var seedBytes [32]byte
		binary.LittleEndian.PutUint64(seedBytes[:8], seed)
		src := rng.NewSource(seedBytes)
		runAllKernels(t, newKernelCase(src, n, q, R, base, int(offRaw)%64))
	})
}
