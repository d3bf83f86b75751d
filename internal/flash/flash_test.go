package flash

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/rng"
)

// smallGeometry keeps test planes cheap: 512-byte pages (4096 bitlines).
func smallGeometry() Geometry {
	g := DefaultGeometry()
	g.PageBytes = 512
	g.BlocksPerPlane = 8
	return g
}

func newTestPlane() *Plane {
	return NewPlane(smallGeometry(), DefaultTiming(), DefaultEnergy())
}

func cmBlock(t *testing.T, p *Plane, b int) {
	t.Helper()
	if err := p.SetBlockMode(b, ModeSLCESP); err != nil {
		t.Fatal(err)
	}
}

// SetBlockMode configures one block's cell mode. Computation ops are
// rejected on any block not in ModeSLCESP.
func (p *Plane) SetBlockMode(b int, mode BlockMode) error {
	blk, err := p.getBlock(b)
	if err != nil {
		return err
	}
	blk.mode = mode
	return nil
}

// WriteVertical stores coeffs in vertical layout: bit i of coefficient j is
// programmed at wordline wlBase+i, bitline j, the layout the bit-serial
// adder requires (§4.3.1 Data Layout). It counts the 32 page programs.
func (p *Plane) WriteVertical(b, wlBase int, coeffs []uint32) error {
	if len(coeffs) > p.geom.PageBits() {
		return fmt.Errorf("flash: %d coefficients exceed %d bitlines", len(coeffs), p.geom.PageBits())
	}
	planes := p.geom.NewBitPlanes()
	mathutil.TransposeToBitPlanes(coeffs, planes)
	for i := 0; i < 32; i++ {
		if err := p.ProgramPage(b, wlBase+i, planes[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadVertical reads numCoeffs coefficients stored in vertical layout at
// (block, wlBase..wlBase+31). It performs 32 flash reads.
func (p *Plane) ReadVertical(b, wlBase, numCoeffs int) ([]uint32, error) {
	planes := p.geom.NewBitPlanes()
	for i, row := range planes {
		if err := p.ReadPage(b, wlBase+i); err != nil {
			return nil, err
		}
		copy(row, p.S)
	}
	coeffs := make([]uint32, numCoeffs)
	mathutil.TransposeFromBitPlanes(planes, coeffs)
	return coeffs, nil
}

// BitSerialAdd is BitSerialAddPlanes over horizontal coefficients: it
// transposes the operand, runs the µ-program, and transposes the sums
// back, the work the SSD controller's transposition unit does in a
// drive (internal/ssd).
func (p *Plane) BitSerialAdd(b, wlBase int, operand []uint32) ([]uint32, error) {
	if len(operand) > p.geom.PageBits() {
		return nil, fmt.Errorf("flash: %d operand coefficients exceed %d bitlines", len(operand), p.geom.PageBits())
	}
	bPlanes, sumPlanes := p.geom.NewBitPlanes(), p.geom.NewBitPlanes()
	mathutil.TransposeToBitPlanes(operand, bPlanes)
	if err := p.BitSerialAddPlanes(b, wlBase, bPlanes, sumPlanes); err != nil {
		return nil, err
	}
	out := make([]uint32, len(operand))
	mathutil.TransposeFromBitPlanes(sumPlanes, out)
	return out, nil
}

func TestGeometryDerived(t *testing.T) {
	g := DefaultGeometry()
	if g.WLsPerBlock() != 192 {
		t.Errorf("WLsPerBlock = %d, want 192 (4x48)", g.WLsPerBlock())
	}
	if g.PageBits() != 32768 {
		t.Errorf("PageBits = %d, want 32768", g.PageBits())
	}
	if g.TotalPlanes() != 128 {
		t.Errorf("TotalPlanes = %d, want 128 (8ch x 8die x 2)", g.TotalPlanes())
	}
}

func TestTimingMatchesPaperEquations(t *testing.T) {
	tm := DefaultTiming()
	// Eq. 10: Tbop_add = 22.5us + 2*30ns + 5*20ns + 4*20ns = 22.74us.
	if got := tm.BopAdd(); got != 22740*time.Nanosecond {
		t.Errorf("BopAdd = %v, want 22.74us", got)
	}
	// Eq. 9: Tbit_add = Tbop_add + 2*3.3us = 29.34us (paper rounds to 29.38).
	if got := tm.BitAdd(); got != 29340*time.Nanosecond {
		t.Errorf("BitAdd = %v, want 29.34us", got)
	}
	delta := PaperTBitAdd - tm.BitAdd()
	if delta < 0 {
		delta = -delta
	}
	if delta > 50*time.Nanosecond {
		t.Errorf("BitAdd differs from paper value by %v", delta)
	}
}

func TestEnergyEquations(t *testing.T) {
	e := DefaultEnergy()
	// Ebop_add for a 4 KiB page: 20.5uJ + (2*20+5*10+4*10)*4 nJ = 21.02uJ.
	got := e.BopAdd(4096)
	want := 21.02e-6
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("BopAdd energy = %v, want %v", got, want)
	}
	full := e.BitAdd(4096)
	if full <= got {
		t.Error("BitAdd energy must exceed BopAdd energy")
	}
}

func TestProgramReadRoundtrip(t *testing.T) {
	p := newTestPlane()
	cmBlock(t, p, 0)
	data := make([]uint64, p.geom.PageWords())
	for i := range data {
		data[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	if err := p.ProgramPage(0, 5, data); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadPage(0, 5); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if p.S[i] != data[i] {
			t.Fatalf("word %d: %#x != %#x", i, p.S[i], data[i])
		}
	}
	// Unwritten pages read as zero.
	if err := p.ReadPage(0, 6); err != nil {
		t.Fatal(err)
	}
	for i := range p.S {
		if p.S[i] != 0 {
			t.Fatal("unwritten page read non-zero")
		}
	}
}

func TestTLCBlockRejectsBitSerialAdd(t *testing.T) {
	p := newTestPlane()
	// Block defaults to TLC: normal reads are fine, computation is not.
	if err := p.ReadPage(1, 0); err != nil {
		t.Fatalf("conventional read on TLC block must succeed: %v", err)
	}
	if _, err := p.BitSerialAdd(1, 0, []uint32{1}); err == nil {
		t.Fatal("bit-serial addition on TLC block must fail")
	}
}

func TestBoundsChecking(t *testing.T) {
	p := newTestPlane()
	cmBlock(t, p, 0)
	if err := p.ProgramPage(0, p.geom.WLsPerBlock(), make([]uint64, p.geom.PageWords())); err == nil {
		t.Error("accepted out-of-range wordline")
	}
	if err := p.ProgramPage(p.geom.BlocksPerPlane, 0, make([]uint64, p.geom.PageWords())); err == nil {
		t.Error("accepted out-of-range block")
	}
	if err := p.ProgramPage(0, 0, make([]uint64, 3)); err == nil {
		t.Error("accepted short page")
	}
	if err := p.LoadS(make([]uint64, 1)); err == nil {
		t.Error("accepted short operand page")
	}
}

func TestLatchOps(t *testing.T) {
	p := newTestPlane()
	words := p.geom.PageWords()
	a := make([]uint64, words)
	b := make([]uint64, words)
	src := rng.NewSourceFromString("latch")
	for i := 0; i < words; i++ {
		a[i] = src.Uint64()
		b[i] = src.Uint64()
	}

	// AND: S &= D.
	copy(p.S, a)
	copy(p.D[0], b)
	p.AndSD(0)
	for i := range p.S {
		if p.S[i] != a[i]&b[i] {
			t.Fatal("AndSD wrong")
		}
	}

	// OR: D |= S.
	copy(p.S, a)
	copy(p.D[1], b)
	p.OrSD(1)
	for i := range p.D[1] {
		if p.D[1][i] != a[i]|b[i] {
			t.Fatal("OrSD wrong")
		}
	}

	// XOR: D1 ^= D2.
	copy(p.D[1], a)
	copy(p.D[2], b)
	p.XorDD(1, 2)
	for i := range p.D[1] {
		if p.D[1][i] != a[i]^b[i] {
			t.Fatal("XorDD wrong")
		}
	}

	// Transfers both directions.
	copy(p.S, a)
	p.TransferS2D(2)
	for i := range p.D[2] {
		if p.D[2][i] != a[i] {
			t.Fatal("TransferS2D wrong")
		}
	}
	copy(p.D[0], b)
	p.TransferD2S(0)
	for i := range p.S {
		if p.S[i] != b[i] {
			t.Fatal("TransferD2S wrong")
		}
	}
	p.ResetD(0)
	for i := range p.D[0] {
		if p.D[0][i] != 0 {
			t.Fatal("ResetD wrong")
		}
	}
}

func TestVerticalRoundtrip(t *testing.T) {
	p := newTestPlane()
	cmBlock(t, p, 2)
	src := rng.NewSourceFromString("vertical")
	coeffs := make([]uint32, 100)
	for i := range coeffs {
		coeffs[i] = uint32(src.Uint64())
	}
	if err := p.WriteVertical(2, 0, coeffs); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadVertical(2, 0, len(coeffs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range coeffs {
		if got[i] != coeffs[i] {
			t.Fatalf("coeff %d: %#x != %#x", i, got[i], coeffs[i])
		}
	}
}

func TestBitSerialAddMatchesUint32Add(t *testing.T) {
	p := newTestPlane()
	cmBlock(t, p, 1)
	src := rng.NewSourceFromString("bitserial")
	n := 200
	a := make([]uint32, n)
	b := make([]uint32, n)
	for i := range a {
		a[i] = uint32(src.Uint64())
		b[i] = uint32(src.Uint64())
	}
	if err := p.WriteVertical(1, 32, a); err != nil {
		t.Fatal(err)
	}
	got, err := p.BitSerialAdd(1, 32, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if want := a[i] + b[i]; got[i] != want { // wrapping = mod 2^32 = mod q
			t.Fatalf("lane %d: %d + %d = %d, got %d", i, a[i], b[i], want, got[i])
		}
	}
}

func TestBitSerialAddCarryChains(t *testing.T) {
	// Worst-case carry propagation: 0xFFFFFFFF + 1 wraps to 0.
	p := newTestPlane()
	cmBlock(t, p, 1)
	a := []uint32{0xFFFFFFFF, 0xFFFFFFFF, 0x7FFFFFFF, 0, 0xAAAAAAAA}
	b := []uint32{1, 0xFFFFFFFF, 1, 0, 0x55555555}
	if err := p.WriteVertical(1, 0, a); err != nil {
		t.Fatal(err)
	}
	got, err := p.BitSerialAdd(1, 0, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0, 0xFFFFFFFE, 0x80000000, 0, 0xFFFFFFFF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane %d: got %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestBitSerialAddProperty(t *testing.T) {
	p := newTestPlane()
	cmBlock(t, p, 3)
	f := func(a, b []uint32) bool {
		if len(a) == 0 {
			return true
		}
		if len(b) < len(a) {
			tmp := make([]uint32, len(a))
			copy(tmp, b)
			b = tmp
		}
		b = b[:len(a)]
		if len(a) > p.geom.PageBits() {
			a = a[:p.geom.PageBits()]
			b = b[:p.geom.PageBits()]
		}
		if err := p.WriteVertical(3, 64, a); err != nil {
			return false
		}
		got, err := p.BitSerialAdd(3, 64, b)
		if err != nil {
			return false
		}
		for i := range a {
			if got[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBitSerialAddDoesNotWear(t *testing.T) {
	// §4.3.1 Reliability: bit-serial addition uses only latch operations
	// and reads — no program/erase cycles, so no wear.
	p := newTestPlane()
	cmBlock(t, p, 1)
	a := []uint32{1, 2, 3}
	if err := p.WriteVertical(1, 0, a); err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	if _, err := p.BitSerialAdd(1, 0, []uint32{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if after := p.Stats(); after.Programs != before.Programs {
		t.Fatal("bit-serial addition must not program flash cells")
	}
}

func TestBitSerialAddOpCountsMatchEq10(t *testing.T) {
	p := newTestPlane()
	cmBlock(t, p, 1)
	if err := p.WriteVertical(1, 0, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	p.stats = Stats{}
	if _, err := p.BitSerialAdd(1, 0, []uint32{9}); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Reads != 32 {
		t.Errorf("Reads = %d, want 32", s.Reads)
	}
	if s.XorOps != 64 {
		t.Errorf("XorOps = %d, want 64 (2 per bit)", s.XorOps)
	}
	// 5 transfers per bit plus the initial carry reset.
	if s.LatchTransfers != 32*5+1 {
		t.Errorf("LatchTransfers = %d, want %d", s.LatchTransfers, 32*5+1)
	}
	// 3 AND/OR ops per bit (2 AND + 1 OR); the 4th of Eq. 10 is the latch
	// write, counted separately.
	if s.AndOrOps != 96 || s.LatchWrites != 32 {
		t.Errorf("AndOrOps = %d, LatchWrites = %d", s.AndOrOps, s.LatchWrites)
	}
	if s.LatchReads != 32 {
		t.Errorf("LatchReads = %d, want 32", s.LatchReads)
	}
	// Total time: 32 × Tbit_add + initial reset.
	want := 32*DefaultTiming().BitAdd() + DefaultTiming().LatchTransfer
	if s.Time != want {
		t.Errorf("Time = %v, want %v", s.Time, want)
	}
}

// BenchmarkBitSerialAddFlash measures one in-flash 32-bit bit-serial
// addition over a full 4 KiB page (32768 parallel lanes), the µ-program of
// Fig. 5 on the functional simulator.
func BenchmarkBitSerialAddFlash(b *testing.B) {
	plane := NewPlane(DefaultGeometry(), DefaultTiming(), DefaultEnergy())
	if err := plane.SetBlockMode(0, ModeSLCESP); err != nil {
		b.Fatal(err)
	}
	src := rng.NewSourceFromString("flash-bench")
	coeffs := make([]uint32, plane.geom.PageBits())
	operand := make([]uint32, len(coeffs))
	for i := range coeffs {
		coeffs[i] = uint32(src.Uint64())
		operand[i] = uint32(src.Uint64())
	}
	if err := plane.WriteVertical(0, 0, coeffs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plane.BitSerialAdd(0, 0, operand); err != nil {
			b.Fatal(err)
		}
	}
}
