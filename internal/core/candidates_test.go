package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// candidatesByOffset is the reference implementation Candidates is
// tested against: the per-offset loop the hit-driven sweep replaced,
// kept verbatim (walk every aligned offset, look its residue's bitmap
// up, test its full windows). Non-positive geometry is rejected up
// front because this loop cannot terminate on alignBits < 1.
func candidatesByOffset(hits hitBitmaps, dbBits, yBits, alignBits int) []int {
	if yBits < 1 || alignBits < 1 {
		return nil
	}
	// Residue-indexed bitmap table: one modulo + array load per offset
	// instead of per-offset map lookups; empty bitmaps stay nil.
	bmAt := make([]*bitset, yBits)
	live := 0
	for res, bm := range hits {
		if res >= 0 && res < yBits && onesCount(bm) != 0 {
			bmAt[res] = bm
			live++
		}
	}
	if live == 0 {
		return nil
	}
	var out []int
	for o := 0; o+yBits <= dbBits; o += alignBits {
		bm := bmAt[o%yBits]
		if bm == nil {
			continue
		}
		w0, w1 := FullWindows(o, yBits)
		if w1 == w0 {
			continue // undetectable at this offset
		}
		if bm.allSet(w0, w1) {
			out = append(out, o)
		}
	}
	return out
}

// checkCandidatesOracle fails unless Candidates, on the bitmaps'
// records, and the per-offset oracle agree exactly, order included; it
// returns the agreed result.
func checkCandidatesOracle(t *testing.T, hits hitBitmaps, dbBits, yBits, alignBits int) []int {
	t.Helper()
	got := Candidates(hits.records(), dbBits, yBits, alignBits)
	want := candidatesByOffset(hits, dbBits, yBits, alignBits)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Candidates(dbBits=%d, yBits=%d, alignBits=%d, %d residues):\n got %v\nwant %v",
			dbBits, yBits, alignBits, len(hits), got, want)
	}
	return got
}

// densityBitset draws a bitset of n windows with each bit set with
// probability density (1 needs no source).
func densityBitset(r *rand.Rand, n int, density float64) *bitset {
	bm := newBitset(n)
	for i := 0; i < n; i++ {
		if density >= 1 || r.Float64() < density {
			bm.set(i)
		}
	}
	return bm
}

// TestCandidatesMatchesPerOffsetOracle sweeps the geometry space the
// engines can reach — undetectable (y < 16) and partially detectable
// (16 <= y < 31) queries, alignments that do not divide y, a database
// cut short of its last window, empty to saturated bitmaps, missing
// residues and bitmaps of unequal length — and requires outputs
// identical to the per-offset loop.
func TestCandidatesMatchesPerOffsetOracle(t *testing.T) {
	const cases = 20000
	r := rand.New(rand.NewSource(22))
	aligns := []int{1, 2, 3, 4, 8, 12, 16, 24}
	densities := []float64{0, 0.01, 0.3, 0.9, 1}
	nonEmpty := 0
	for c := 0; c < cases; c++ {
		yBits := 1 + r.Intn(100)
		alignBits := aligns[r.Intn(len(aligns))]
		windows := 1 + r.Intn(400)
		dbBits := windows*SegmentBits - r.Intn(SegmentBits)
		density := densities[r.Intn(len(densities))]
		hits := hitBitmaps{}
		for s := 0; s < yBits; s += gcd(alignBits, yBits) {
			if r.Intn(5) == 0 {
				continue // residue missing from the result
			}
			n := windows
			if r.Intn(5) == 0 {
				n = r.Intn(windows + 1) // shorter than its siblings, possibly empty
			}
			hits[s] = densityBitset(r, n, density)
		}
		if r.Intn(10) == 0 {
			hits[yBits+r.Intn(3)] = densityBitset(r, windows, 1) // out-of-range residue: ignored
		}
		if len(checkCandidatesOracle(t, hits, dbBits, yBits, alignBits)) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < cases/10 {
		t.Fatalf("only %d of %d cases produced candidates; the sweep is not exercising the hit path", nonEmpty, cases)
	}
}

// candidatesCaseFromBytes decodes fuzz input into a Candidates call:
// four geometry bytes, then per residue a residue byte (one below and
// one past the valid range included), a length byte, a trim byte and
// the bitmap words themselves.
func candidatesCaseFromBytes(data []byte) (hits hitBitmaps, dbBits, yBits, alignBits int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	yBits = 1 + next()%100
	alignBits = 1 + next()%24
	cut := next() % SegmentBits
	residues := 1 + next()%8
	hits = hitBitmaps{}
	windows := 0
	for i := 0; i < residues; i++ {
		res := next()%(yBits+2) - 1
		words := make([]uint64, next()%8)
		n := max(len(words)*64-next()%64, 0)
		for w := range words {
			if len(data) >= 8 {
				words[w] = binary.LittleEndian.Uint64(data)
				data = data[8:]
			}
		}
		hits[res] = &bitset{words: words, n: n}
		windows = max(windows, n)
	}
	return hits, max(windows*SegmentBits-cut, 0), yBits, alignBits
}

// FuzzCandidates holds Candidates to the per-offset oracle on
// arbitrary bitmaps and geometry.
func FuzzCandidates(f *testing.F) {
	ones := func(n int) []byte { return bytes.Repeat([]byte{0xff}, n) }
	// yBits-1, alignBits-1, cut, residues-1, then (res+1, words, trim, bits...).
	f.Add([]byte{})
	f.Add(append([]byte{63, 1, 0, 0, 1, 2, 0}, ones(16)...))                                      // y=64 align=2, saturated
	f.Add(append([]byte{7, 0, 5, 0, 1, 1, 0}, ones(8)...))                                        // y=8: undetectable
	f.Add(append([]byte{19, 2, 15, 1, 1, 1, 3, 0x10, 0, 0, 0, 0, 0, 0, 0, 4, 2, 0}, ones(16)...)) // y=20 align=3, tail cut, unequal lengths
	f.Add(append([]byte{47, 11, 9, 2, 0, 1, 0}, ones(8)...))                                      // out-of-range residue -1
	f.Add([]byte{31, 7, 0, 0, 1, 1, 0, 0x0c, 0, 0, 0, 0, 0, 0, 0})                                // y=32 align=8, windows 2,3
	f.Fuzz(func(t *testing.T, data []byte) {
		hits, dbBits, yBits, alignBits := candidatesCaseFromBytes(data)
		checkCandidatesOracle(t, hits, dbBits, yBits, alignBits)
	})
}

// TestCandidatesRejectsNonPositiveGeometry pins the guard the engines'
// query validation relies on: AlignBits and YBits arrive off the wire,
// and a zero alignment would otherwise never advance the offset.
func TestCandidatesRejectsNonPositiveGeometry(t *testing.T) {
	hits := hitBitmaps{0: densityBitset(nil, 64, 1)}.records()
	for _, g := range [][2]int{{32, 0}, {32, -8}, {0, 8}, {-1, 8}, {0, 0}} {
		if got := Candidates(hits, 1024, g[0], g[1]); got != nil {
			t.Fatalf("Candidates(yBits=%d, alignBits=%d) = %v, want nil", g[0], g[1], got)
		}
	}
}

// TestCandidatesNotSizedFromWire: YBits is a 32-bit wire field, so
// nothing in Candidates may be allocated in proportion to it. A
// hostile 2^31-1-bit query over a one-word bitmap must cost the same
// small constant number of allocations as an ordinary search. (The
// constants are the largest that still compile where int is 32 bits.)
func TestCandidatesNotSizedFromWire(t *testing.T) {
	bm := newBitset(64)
	bm.set(0)
	hits := hitBitmaps{0: bm}.records()
	ordinary := testing.AllocsPerRun(10, func() { Candidates(hits, 1024, 64, 8) })
	hostile := testing.AllocsPerRun(10, func() {
		if got := Candidates(hits, math.MaxInt, math.MaxInt32, 8); got != nil {
			t.Fatalf("hostile yBits produced candidates %v", got)
		}
	})
	if hostile > ordinary || ordinary > 1 {
		t.Fatalf("allocs per call: ordinary %v, yBits=2^31-1 %v; want both <= 1", ordinary, hostile)
	}
}

var candidatesSink []int

// BenchmarkCandidates measures candidate generation at its two
// extremes, on records built before the timer. sparse is the dna_scan
// serving shape (32 residues x 2 Mi windows, random hits at 2^-16
// density plus 8 planted 4-window runs); records times the same call
// and reports it per record byte instead of per dense bitmap byte.
// dense is every window set at alignBits = 1, where nothing is
// filtered and Candidates must stay within 1.3x of the per-offset
// oracle: the oracle/* runs are that reference, for comparing by hand
// (CI's smoke step leaves them out). MB/s is dense bitmap bytes (for
// records, record bytes) per second.
func BenchmarkCandidates(b *testing.B) {
	const yBits = 64
	r := rand.New(rand.NewSource(22))
	sparse := hitBitmaps{}
	const sparseWindows = 2 << 20
	for s := 0; s < yBits; s += 2 {
		bm := newBitset(sparseWindows)
		for i := 0; i < sparseWindows>>16; i++ {
			bm.set(r.Intn(sparseWindows))
		}
		sparse[s] = bm
	}
	for k := 0; k < 8; k++ {
		o := 2 * r.Intn((sparseWindows*SegmentBits-yBits)/2)
		w0, w1 := FullWindows(o, yBits)
		for w := w0; w < w1; w++ {
			sparse[o%yBits].set(w)
		}
	}
	dense := hitBitmaps{}
	const denseWindows = 64 << 10
	for s := 0; s < yBits; s++ {
		dense[s] = densityBitset(nil, denseWindows, 1)
	}
	run := func(name string, bytes int, fn func(dbBits, alignBits int) []int, windows, alignBits, wantAtLeast int) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				candidatesSink = fn(windows*SegmentBits, alignBits)
			}
			if len(candidatesSink) < wantAtLeast {
				b.Fatalf("%d candidates, want at least %d", len(candidatesSink), wantAtLeast)
			}
		})
	}
	viaRecords := func(hw *HitWords) func(dbBits, alignBits int) []int {
		return func(dbBits, alignBits int) []int { return Candidates(hw, dbBits, yBits, alignBits) }
	}
	oracle := func(hits hitBitmaps) func(dbBits, alignBits int) []int {
		return func(dbBits, alignBits int) []int { return candidatesByOffset(hits, dbBits, yBits, alignBits) }
	}
	records := sparse.records()
	sparseBytes, denseBytes := len(sparse)*sparseWindows/8, len(dense)*denseWindows/8
	run("sparse", sparseBytes, viaRecords(records), sparseWindows, 2, 8)
	run("records", len(records.Words)*int(unsafe.Sizeof(records.Words[0])), viaRecords(records), sparseWindows, 2, 8)
	run("dense", denseBytes, viaRecords(dense.records()), denseWindows, 1, denseWindows*SegmentBits-yBits)
	run("oracle/sparse", sparseBytes, oracle(sparse), sparseWindows, 2, 8)
	run("oracle/dense", denseBytes, oracle(dense), denseWindows, 1, denseWindows*SegmentBits-yBits)
}
