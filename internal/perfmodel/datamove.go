package perfmodel

// This file implements the data-movement model behind Fig. 3: the latency
// of moving an encrypted database from the flash arrays to the unit that
// computes on it.
//
// Path segments and bandwidths (Tables 2/3):
//
//	flash arrays --(8×1.2 GB/s channels)--> SSD controller
//	SSD controller --(7 GB/s PCIe Gen4 ×4)--> host DRAM
//	host DRAM --(19.2 GB/s DDR4-2400)--> CPU
//
// Computing in the SSD controller stops after the first segment; computing
// "in memory" (PuM) stops after the second but, when the database exceeds
// DRAM capacity, must additionally restage the compute region
// (spill term); computing on the CPU traverses all three.

// TransferTarget identifies where the computation happens (Fig. 3's three
// scenarios).
type TransferTarget int

const (
	// TargetCPU: conventional processing; data crosses all segments.
	TargetCPU TransferTarget = iota
	// TargetDRAM: processing-using-memory in host DRAM.
	TargetDRAM
	// TargetController: in-storage processing at the SSD controller.
	TargetController
)

// TransferSeconds returns the modelled transfer latency for moving
// encBytes of encrypted database to the target compute unit.
func (m *Model) TransferSeconds(encBytes int64, target TransferTarget) float64 {
	e := float64(encBytes)
	internal := e / m.internalSSDBandwidth()
	switch target {
	case TargetController:
		return internal
	case TargetDRAM:
		// The PCIe segment dominates the internal one (they pipeline);
		// oversized databases pay a restaging penalty proportional to the
		// fraction that does not fit.
		t := e / m.Real.PCIeBandwidth
		dramCap := float64(int64(m.Real.DRAMGB) << 30)
		if e > dramCap {
			spill := (e - dramCap) / e
			t += spill * e / m.Real.DRAMBandwidth
		}
		return t
	default: // TargetCPU
		return e/m.Real.PCIeBandwidth + e/m.Real.DRAMBandwidth + e/m.Cal.CPUIngestBW
	}
}

// TransferNormalized returns the Fig. 3 quantity: the transfer latency of
// each target normalised to the CPU target (CPU = 100).
func (m *Model) TransferNormalized(encBytes int64) map[TransferTarget]float64 {
	cpu := m.TransferSeconds(encBytes, TargetCPU)
	out := make(map[TransferTarget]float64, 3)
	for _, t := range []TransferTarget{TargetCPU, TargetDRAM, TargetController} {
		out[t] = 100 * m.TransferSeconds(encBytes, t) / cpu
	}
	return out
}
