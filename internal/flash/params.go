// Package flash is a functional and timing/energy simulator of 3D NAND
// flash with the CIPHERMATCH in-flash processing extensions (§4.3.1):
// the bi-directional sensing-latch/data-latch transfer of [141], bulk
// bitwise AND/OR/XOR on the latch circuitry (ParaBit [62] / Flash-Cosmos
// [60] style), and the 13-step bit-serial addition µ-program of Fig. 5,
// which runs only on blocks in enhanced SLC programming (ESP) mode, the
// paper's rule for reliable computation. Raw read errors are not
// modelled: the rule is enforced, not simulated.
//
// The simulator is bit-exact: latch operations manipulate real page
// buffers, so a homomorphic addition executed in flash produces the same
// bytes as the software evaluator (tested in internal/ssd). Every
// operation also accrues latency and energy according to the constants of
// Table 3, which the performance model consumes.
package flash

import "time"

// Geometry describes the NAND organisation of Table 3: a 2 TB, 48-WL-layer
// 3D TLC SSD.
type Geometry struct {
	Channels       int // flash channels
	DiesPerChan    int // dies per channel
	PlanesPerDie   int
	BlocksPerPlane int
	SubBlocks      int // sub-blocks per block
	WLLayers       int // wordline layers per sub-block
	PageBytes      int // page size (one wordline in SLC mode)
}

// DefaultGeometry returns the Table 3 configuration: 8 channels, 8
// dies/channel, 2 planes/die, 2048 blocks/plane, 4×48 wordlines/block,
// 4 KiB pages.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:       8,
		DiesPerChan:    8,
		PlanesPerDie:   2,
		BlocksPerPlane: 2048,
		SubBlocks:      4,
		WLLayers:       48,
		PageBytes:      4096,
	}
}

// WLsPerBlock returns the wordlines per block (sub-blocks × layers).
func (g Geometry) WLsPerBlock() int { return g.SubBlocks * g.WLLayers }

// PageBits returns the number of bitlines covered by one page.
func (g Geometry) PageBits() int { return g.PageBytes * 8 }

// PageWords returns the page size in 64-bit words.
func (g Geometry) PageWords() int { return g.PageBytes / 8 }

// NewBitPlanes returns OperandBits zeroed page-wide bit-planes, the
// vertical form of one page of 32-bit coefficients.
func (g Geometry) NewBitPlanes() [][]uint64 {
	planes := make([][]uint64, OperandBits)
	for i := range planes {
		planes[i] = make([]uint64, g.PageWords())
	}
	return planes
}

// TotalPlanes returns the number of planes across the whole SSD — the unit
// of array-level parallelism for in-flash processing.
func (g Geometry) TotalPlanes() int {
	return g.Channels * g.DiesPerChan * g.PlanesPerDie
}

// Timing holds the per-operation latencies of Table 3.
type Timing struct {
	ReadSLC       time.Duration // Tread, SLC-mode page read
	AndOr         time.Duration // TAND/OR, latch AND/OR (and latch write)
	LatchTransfer time.Duration // Tlatchtransfer, S<->D transfer
	Xor           time.Duration // TXOR, D-latch XOR
	DMA           time.Duration // TDMA, controller<->latch page transfer
}

// DefaultTiming returns the Table 3 latencies.
func DefaultTiming() Timing {
	return Timing{
		ReadSLC:       22500 * time.Nanosecond,
		AndOr:         20 * time.Nanosecond,
		LatchTransfer: 20 * time.Nanosecond,
		Xor:           30 * time.Nanosecond,
		DMA:           3300 * time.Nanosecond,
	}
}

// BopAdd returns the latency of the in-flash portion of one bit of
// bit-serial addition (Eq. 10):
//
//	Tbop_add = Tread + 2·TXOR + 5·Tlatch + 4·TAND/OR
//
// The four AND/OR-class operations are the two ANDs and one OR of the
// µ-program plus the latch write that loads the streamed operand bit into
// the sensing latch (see bitserial.go for the step mapping).
func (t Timing) BopAdd() time.Duration {
	return t.ReadSLC + 2*t.Xor + 5*t.LatchTransfer + 4*t.AndOr
}

// BitAdd returns the full latency of one bit of bit-serial addition
// including the two DMA transfers (Eq. 9): Tbit_add = Tbop_add + 2·TDMA.
// With the Table 3 constants this evaluates to 29.34 µs; the paper reports
// 29.38 µs (the 0.04 µs delta comes from rounding TDMA in the paper's
// table).
func (t Timing) BitAdd() time.Duration {
	return t.BopAdd() + 2*t.DMA
}

// PaperTBitAdd is the value Table 3 reports for Tbit_add.
const PaperTBitAdd = 29380 * time.Nanosecond

// Energy holds the per-operation energies of Table 3. Units: joules,
// normalised per operation or per KiB as the table specifies.
type Energy struct {
	ReadSLCPerChannel float64 // Eread, J per page read per channel
	AndOrPerKB        float64 // EAND/OR, J per KiB
	LatchPerKB        float64 // Elatchtransfer, J per KiB
	XorPerKB          float64 // EXOR, J per KiB
	DMAPerChannel     float64 // EDMA, J per page DMA per channel
	IndexGenPerPage   float64 // Eindex_gen, J per page in the controller
}

// DefaultEnergy returns the Table 3 energies.
func DefaultEnergy() Energy {
	const (
		uJ = 1e-6
		nJ = 1e-9
	)
	return Energy{
		ReadSLCPerChannel: 20.5 * uJ,
		AndOrPerKB:        10 * nJ,
		LatchPerKB:        10 * nJ,
		XorPerKB:          20 * nJ,
		DMAPerChannel:     7.656 * uJ,
		IndexGenPerPage:   0.18 * uJ,
	}
}

// BopAdd returns the in-flash energy of one bit of bit-serial addition for
// a page of pageBytes (the energy analogue of Eq. 10).
func (e Energy) BopAdd(pageBytes int) float64 {
	kb := float64(pageBytes) / 1024
	return e.ReadSLCPerChannel + 2*e.XorPerKB*kb + 5*e.LatchPerKB*kb + 4*e.AndOrPerKB*kb
}

// BitAdd returns the full energy of one bit of bit-serial addition
// including DMA and index generation (Eq. 11).
func (e Energy) BitAdd(pageBytes int) float64 {
	return e.BopAdd(pageBytes) + 2*e.DMAPerChannel + e.IndexGenPerPage
}

// BlockMode is the cell mode of a block: the CIPHERMATCH region runs in
// SLC mode with enhanced SLC programming (ESP) for reliable computation;
// the rest of the drive runs in TLC mode (§4.3.2).
type BlockMode int

const (
	// ModeTLC is the mode of blocks outside the CIPHERMATCH region
	// (3 bits/cell). In-flash computation is not permitted on TLC blocks.
	ModeTLC BlockMode = iota
	// ModeSLCESP is the CIPHERMATCH-region mode: single-level cells
	// programmed with the enhanced-SLC scheme of Flash-Cosmos [60].
	ModeSLCESP
)

func (m BlockMode) String() string {
	switch m {
	case ModeTLC:
		return "TLC"
	case ModeSLCESP:
		return "SLC+ESP"
	default:
		return "unknown"
	}
}
