package perfmodel

import (
	"testing"
	"time"
)

func TestPaperConstantsSane(t *testing.T) {
	m := NewPaperModel()
	if m.Real.Cores != 6 || m.Real.DRAMGB != 32 {
		t.Error("Table 2 constants drifted")
	}
	// Eq. 9 derived value vs. the paper's rounded 29.38 µs.
	if got := m.TBitAdd(); got != 29340*time.Nanosecond {
		t.Errorf("TBitAdd = %v", got)
	}
	// Fig. 2(c) anchor: the TMul/TAdd ratio must reproduce ≈98.2% mult
	// share for the arithmetic op mix (2 muls : 3 adds).
	frac := m.ArithMulFraction(Workload{PlainBits: 1 << 20, QueryBits: 16})
	if frac < 0.975 || frac > 0.99 {
		t.Errorf("mult fraction = %.3f, want ≈0.982 (Fig. 2c)", frac)
	}
}

func TestShiftCounts(t *testing.T) {
	cases := []struct {
		y, align, want int
	}{
		{8, 1, 8}, // §4.2.2's example: 8-bit query, 8 shifted polynomials
		{16, 1, 16},
		{16, 16, 1},
		{32, 8, 4},
		{256, 2, 128}, // DNA base alignment
	}
	for _, c := range cases {
		w := Workload{PlainBits: 1 << 20, QueryBits: c.y, AlignBits: c.align}
		if got := w.Shifts(); got != c.want {
			t.Errorf("Shifts(y=%d, align=%d) = %d, want %d", c.y, c.align, got, c.want)
		}
	}
}

func TestFootprintRatios(t *testing.T) {
	m := NewPaperModel()
	w := Workload{PlainBits: 1 << 30, QueryBits: 16}
	plainBytes := w.PlainBits / 8
	if got := float64(m.CMEncryptedBytes(w)) / float64(plainBytes); got != 4 {
		t.Errorf("CM expansion = %.2f, want 4 (§4.2.1)", got)
	}
	arith := float64(m.ArithEncryptedBytes(w)) / float64(plainBytes)
	if arith < 63 || arith > 66 { // 64× plus chunk-overlap slack
		t.Errorf("arith expansion = %.2f, want ≈64", arith)
	}
	if got := float64(m.BooleanEncryptedBytes(w)) / float64(plainBytes); got < 200 {
		t.Errorf("Boolean expansion = %.0f, want >200 (§3.1)", got)
	}
	// Exactly one ciphertext of data: the paper's lower bounds of §4.2.1.
	one := Workload{PlainBits: int64(m.Params.N * m.Params.PackedBitsPerCoeff()), QueryBits: 1}
	if got, want := m.CMEncryptedBytes(one), 4*one.PlainBits/8; got != want {
		t.Errorf("one-ciphertext CM footprint = %d, want %d (4×)", got, want)
	}
	if got, want := m.ArithEncryptedBytes(one), 64*one.PlainBits/8; got != want {
		t.Errorf("one-ciphertext arith footprint at y=1 = %d, want %d (64×, no overlap)", got, want)
	}
}

// TestFootprintPartialCiphertext: a partial ciphertext costs a whole
// one, down to a single bit.
func TestFootprintPartialCiphertext(t *testing.T) {
	m := NewPaperModel()
	ct, bitsPerCT := int64(m.Params.CiphertextBytes()), int64(16*m.Params.N)
	for _, c := range []struct{ bits, cts int64 }{{1, 1}, {bitsPerCT, 1}, {bitsPerCT + 1, 2}} {
		if got := m.CMEncryptedBytes(Workload{PlainBits: c.bits, QueryBits: 1}); got != c.cts*ct {
			t.Errorf("%d-bit CM footprint = %d, want %d ciphertexts (%d)", c.bits, got, c.cts, c.cts*ct)
		}
	}
	if got := m.ArithEncryptedBytes(Workload{PlainBits: 1, QueryBits: 1}); got != ct {
		t.Errorf("1-bit arith footprint = %d, want one ciphertext (%d)", got, ct)
	}
}

// TestYasudaFootprintLargerThanCiphermatch: single-bit packing costs 16×
// CIPHERMATCH's chunks, plus the y−1 bits each chunk overlaps the next
// so that every window start lies inside one chunk.
func TestYasudaFootprintLargerThanCiphermatch(t *testing.T) {
	m := NewPaperModel()
	n := int64(m.Params.N)
	for _, y := range []int{1, 16, 64} {
		w := Workload{PlainBits: 1 << 20, QueryBits: y}
		cm, ya := m.CMEncryptedBytes(w), m.ArithEncryptedBytes(w)
		chunks := (w.PlainBits + n - int64(y)) / (n - int64(y) + 1) // ceil(bits / (n−y+1))
		if want := chunks * int64(m.Params.CiphertextBytes()); ya != want {
			t.Errorf("y=%d: arith footprint %d, want %d (%d overlapping chunks)", y, ya, want, chunks)
		}
		if y == 1 && ya != 16*cm {
			t.Errorf("y=1: arith footprint %d, CIPHERMATCH %d: want exactly 16× (§4.2.1)", ya, cm)
		}
		if ya < 16*cm {
			t.Errorf("y=%d: arith footprint %d below 16× CIPHERMATCH's %d", y, ya, cm)
		}
	}
}

// TestFig7Shape: CM-SW must beat the arithmetic baseline by tens of ×, and
// the Boolean baseline by ~10^5×, across query sizes (128 GB encrypted DB,
// single query).
func TestFig7Shape(t *testing.T) {
	m := NewPaperModel()
	for _, y := range []int{16, 32, 64, 128, 256} {
		w := DNAWorkload(y)
		cm := m.EstimateCMSW(w)
		ar := m.EstimateArith(w)
		bo := m.EstimateBoolean(w)
		overArith := ar.Seconds / cm.Seconds
		overBool := bo.Seconds / cm.Seconds
		if overArith < 5 || overArith > 500 {
			t.Errorf("y=%d: CM-SW over arithmetic = %.1f×, expected tens (paper: 20.7-62.2×)", y, overArith)
		}
		if overBool < 1e4 || overBool > 1e8 {
			t.Errorf("y=%d: CM-SW over Boolean = %.2g×, expected ~10^5×", y, overBool)
		}
	}
}

// TestFig9Shape: with 1000 queries, CM-SW performance must degrade once
// the encrypted database exceeds host DRAM (paper: 1.16× drop past 32 GB).
func TestFig9Shape(t *testing.T) {
	m := NewPaperModel()
	perByteSmall := m.EstimateCMSW(DBSearchWorkload(8<<30)).Seconds / float64(8<<30)
	perByteLarge := m.EstimateCMSW(DBSearchWorkload(32<<30)).Seconds / float64(32<<30)
	if perByteLarge <= perByteSmall {
		t.Errorf("CM-SW per-byte cost must rise when the DB exceeds DRAM: %.3g vs %.3g",
			perByteLarge, perByteSmall)
	}
	// And CM-SW must still beat the baselines at every size.
	for _, gb := range []int64{2, 8, 32} {
		w := DBSearchWorkload(gb << 30)
		if m.EstimateCMSW(w).Seconds >= m.EstimateArith(w).Seconds {
			t.Errorf("%dGB: CM-SW lost to the arithmetic baseline", gb)
		}
	}
}

// TestFig10Shape: hardware orderings at 128 GB, single query.
// Paper observations: (1) all hardware variants beat CM-SW; (2) CM-IFP
// beats CM-PuM-SSD at every query size; (3) CM-IFP beats CM-PuM at small
// query sizes, CM-PuM overtakes at 256 bits.
func TestFig10Shape(t *testing.T) {
	m := NewPaperModel()
	for _, y := range []int{16, 32, 64, 128, 256} {
		w := DNAWorkload(y)
		sw := m.EstimateCMSW(w).Seconds
		ifp := m.EstimateCMIFP(w).Seconds
		pum := m.EstimateCMPuM(w).Seconds
		pumSSD := m.EstimateCMPuMSSD(w).Seconds
		if ifp >= sw || pum >= sw || pumSSD >= sw {
			t.Errorf("y=%d: a hardware variant lost to CM-SW (sw=%.1f ifp=%.1f pum=%.1f pumssd=%.1f)",
				y, sw, ifp, pum, pumSSD)
		}
		if ifp >= pumSSD {
			t.Errorf("y=%d: CM-IFP (%.1fs) must beat CM-PuM-SSD (%.1fs)", y, ifp, pumSSD)
		}
	}
	// Crossover: IFP wins at y=16, PuM wins at y=256 (paper: 2.64× and
	// 1/1.21×).
	w16, w256 := DNAWorkload(16), DNAWorkload(256)
	if m.EstimateCMIFP(w16).Seconds >= m.EstimateCMPuM(w16).Seconds {
		t.Errorf("y=16: CM-IFP must beat CM-PuM (ifp=%.1f pum=%.1f)",
			m.EstimateCMIFP(w16).Seconds, m.EstimateCMPuM(w16).Seconds)
	}
	if m.EstimateCMPuM(w256).Seconds >= m.EstimateCMIFP(w256).Seconds {
		t.Errorf("y=256: CM-PuM must overtake CM-IFP (ifp=%.1f pum=%.1f)",
			m.EstimateCMIFP(w256).Seconds, m.EstimateCMPuM(w256).Seconds)
	}
}

// TestFig12Shape: with 1000 queries, CM-PuM wins while the database fits
// external DRAM and collapses beyond it, where CM-IFP dominates (paper:
// 1.41× for ≤32 GB, 8.29× the other way beyond).
func TestFig12Shape(t *testing.T) {
	m := NewPaperModel()
	small := DBSearchWorkload(4 << 30)  // 16 GB encrypted: fits DRAM
	large := DBSearchWorkload(32 << 30) // 128 GB encrypted: exceeds DRAM
	if m.EstimateCMPuM(small).Seconds >= m.EstimateCMIFP(small).Seconds {
		t.Errorf("small DB: CM-PuM must beat CM-IFP (pum=%.1f ifp=%.1f)",
			m.EstimateCMPuM(small).Seconds, m.EstimateCMIFP(small).Seconds)
	}
	if m.EstimateCMIFP(large).Seconds >= m.EstimateCMPuM(large).Seconds {
		t.Errorf("large DB: CM-IFP must beat CM-PuM (pum=%.1f ifp=%.1f)",
			m.EstimateCMPuM(large).Seconds, m.EstimateCMIFP(large).Seconds)
	}
	// CM-PuM vs CM-PuM-SSD: the paper reports CM-PuM 6.6× ahead while the
	// DB fits DRAM, flipping to CM-PuM-SSD 1.75× ahead beyond capacity.
	// Our mechanistic model reproduces the narrowing (the internal-channel
	// bandwidth advantage kicks in beyond 32 GB) but not the full flip —
	// CM-PuM-SSD lands within ~15% rather than ahead; see EXPERIMENTS.md
	// ("Fig. 12 divergence"). Assert the narrowing and the bound.
	ratioSmall := m.EstimateCMPuMSSD(small).Seconds / m.EstimateCMPuM(small).Seconds
	ratioLarge := m.EstimateCMPuMSSD(large).Seconds / m.EstimateCMPuM(large).Seconds
	if ratioLarge >= ratioSmall {
		t.Errorf("CM-PuM-SSD/CM-PuM ratio must narrow beyond DRAM capacity: %.2f -> %.2f",
			ratioSmall, ratioLarge)
	}
	if ratioLarge > 1.3 {
		t.Errorf("large DB: CM-PuM-SSD should be competitive with CM-PuM, ratio %.2f", ratioLarge)
	}
	if ratioSmall < 2 {
		t.Errorf("small DB: CM-PuM should lead CM-PuM-SSD clearly (paper 6.6×), ratio %.2f", ratioSmall)
	}
}

// TestFig11Shape: energy orderings — CM-IFP saves the most energy; the
// paper's headline is 256.4× over CM-SW (vs 136.9× in performance), i.e.
// the energy win exceeds the performance win.
func TestFig11Shape(t *testing.T) {
	m := NewPaperModel()
	w := DNAWorkload(16)
	sw := m.EstimateCMSW(w)
	ifp := m.EstimateCMIFP(w)
	pum := m.EstimateCMPuM(w)
	pumSSD := m.EstimateCMPuMSSD(w)
	if ifp.EnergyJ >= sw.EnergyJ || pum.EnergyJ >= sw.EnergyJ || pumSSD.EnergyJ >= sw.EnergyJ {
		t.Error("hardware variants must save energy over CM-SW")
	}
	if ifp.EnergyJ >= pum.EnergyJ || ifp.EnergyJ >= pumSSD.EnergyJ {
		t.Error("CM-IFP must have the lowest energy")
	}
	perfWin := sw.Seconds / ifp.Seconds
	energyWin := sw.EnergyJ / ifp.EnergyJ
	if energyWin <= perfWin {
		t.Errorf("CM-IFP energy win (%.0f×) should exceed its performance win (%.0f×)", energyWin, perfWin)
	}
	// CM-PuM-SSD is more energy-efficient than CM-PuM (paper: 1.06×)
	// even when slower, thanks to internal-channel transfers.
	if pumSSD.EnergyJ >= pum.EnergyJ {
		t.Errorf("CM-PuM-SSD energy (%.1f J) must undercut CM-PuM (%.1f J)", pumSSD.EnergyJ, pum.EnergyJ)
	}
}

// TestFig3Shape: transfer-latency orderings and trends.
func TestFig3Shape(t *testing.T) {
	m := NewPaperModel()
	var prevDRAMBenefit float64 = -1
	for _, gb := range []int64{8, 16, 32, 64, 128, 256} {
		norm := m.TransferNormalized(gb << 30)
		if norm[TargetCPU] != 100 {
			t.Fatalf("CPU must normalise to 100, got %.1f", norm[TargetCPU])
		}
		if !(norm[TargetController] < norm[TargetDRAM] && norm[TargetDRAM] < norm[TargetCPU]) {
			t.Errorf("%dGB: expected storage < DRAM < CPU, got %.1f / %.1f / 100",
				gb, norm[TargetController], norm[TargetDRAM])
		}
		benefit := 100 - norm[TargetDRAM]
		if prevDRAMBenefit >= 0 && benefit > prevDRAMBenefit+1e-9 {
			t.Errorf("%dGB: DRAM benefit must shrink with database size", gb)
		}
		prevDRAMBenefit = benefit
	}
	// The DRAM benefit must actually shrink across the sweep.
	first := 100 - m.TransferNormalized(8 << 30)[TargetDRAM]
	last := 100 - m.TransferNormalized(256 << 30)[TargetDRAM]
	if last >= first {
		t.Errorf("DRAM benefit: 8GB %.1f%% vs 256GB %.1f%%, must shrink", first, last)
	}
}

func TestEstimateComponentsAddUp(t *testing.T) {
	m := NewPaperModel()
	w := DNAWorkload(32)
	for _, e := range []Estimate{
		m.EstimateCMSW(w), m.EstimateArith(w), m.EstimateBoolean(w),
		m.EstimateCMIFP(w), m.EstimateCMPuM(w), m.EstimateCMPuMSSD(w),
	} {
		sum := e.DataMoveSeconds + e.ComputeSeconds + e.PostSeconds
		if diff := e.Seconds - sum; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: components %.3f != total %.3f", e.System, sum, e.Seconds)
		}
		if e.Seconds <= 0 || e.EnergyJ <= 0 {
			t.Errorf("%s: non-positive estimate %+v", e.System, e)
		}
	}
}
