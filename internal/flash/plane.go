package flash

import (
	"fmt"

	"ciphermatch/internal/mathutil"
)

// Plane models one NAND plane: the cell array (sparse pages), the sensing
// latch and three data latches of its peripheral circuitry, and the
// modifications of [141] enabling bi-directional latch transfer (Fig. 4).
// All bitwise operations act on the full page width at once — this is the
// bit-level parallelism the paper exploits.
type Plane struct {
	geom   Geometry
	timing Timing
	energy Energy

	// Latches, each one page wide.
	S []uint64
	D [3][]uint64

	blocks   map[int]*block
	stats    Stats
	errModel ErrorModel
}

type block struct {
	mode  BlockMode
	wear  int              // erase count
	pages map[int][]uint64 // wordline -> page (SLC: one page per WL)
}

// NewPlane creates a plane with the given configuration.
func NewPlane(geom Geometry, timing Timing, energy Energy) *Plane {
	p := &Plane{geom: geom, timing: timing, energy: energy, blocks: make(map[int]*block)}
	p.S = make([]uint64, geom.PageWords())
	for i := range p.D {
		p.D[i] = make([]uint64, geom.PageWords())
	}
	return p
}

// Stats returns the accumulated operation statistics.
func (p *Plane) Stats() Stats { return p.stats }

// ResetStats clears the accumulated statistics.
func (p *Plane) ResetStats() { p.stats = Stats{} }

// Geometry returns the plane's geometry.
func (p *Plane) Geometry() Geometry { return p.geom }

func (p *Plane) pageKB() float64 { return float64(p.geom.PageBytes) / 1024 }

func (p *Plane) getBlock(b int) (*block, error) {
	if b < 0 || b >= p.geom.BlocksPerPlane {
		return nil, fmt.Errorf("flash: block %d out of range [0, %d)", b, p.geom.BlocksPerPlane)
	}
	blk, ok := p.blocks[b]
	if !ok {
		blk = &block{mode: ModeTLC, pages: make(map[int][]uint64)}
		p.blocks[b] = blk
	}
	return blk, nil
}

func (p *Plane) checkWL(wl int) error {
	if wl < 0 || wl >= p.geom.WLsPerBlock() {
		return fmt.Errorf("flash: wordline %d out of range [0, %d)", wl, p.geom.WLsPerBlock())
	}
	return nil
}

// SetBlockMode configures a block's cell mode. The CIPHERMATCH region uses
// ModeSLCESP; computation ops are rejected on TLC blocks.
func (p *Plane) SetBlockMode(b int, mode BlockMode) error {
	blk, err := p.getBlock(b)
	if err != nil {
		return err
	}
	blk.mode = mode
	return nil
}

// BlockWear returns the erase count of a block.
func (p *Plane) BlockWear(b int) int {
	if blk, ok := p.blocks[b]; ok {
		return blk.wear
	}
	return 0
}

// BlockMode returns the cell mode of a block (ModeTLC for untouched
// blocks).
func (p *Plane) BlockMode(b int) BlockMode {
	if blk, ok := p.blocks[b]; ok {
		return blk.mode
	}
	return ModeTLC
}

// EraseBlock erases a block (all pages read as zero afterwards) and
// increments its wear counter.
func (p *Plane) EraseBlock(b int) error {
	blk, err := p.getBlock(b)
	if err != nil {
		return err
	}
	blk.pages = make(map[int][]uint64)
	blk.wear++
	p.stats.Erases++
	return nil
}

// ProgramPage writes data (one full page) to (block, wl) and counts the
// program operation. data is copied.
func (p *Plane) ProgramPage(b, wl int, data []uint64) error {
	blk, err := p.getBlock(b)
	if err != nil {
		return err
	}
	if err := p.checkWL(wl); err != nil {
		return err
	}
	if len(data) != p.geom.PageWords() {
		return fmt.Errorf("flash: page data must be %d words, got %d", p.geom.PageWords(), len(data))
	}
	page := make([]uint64, len(data))
	copy(page, data)
	blk.pages[wl] = page
	p.stats.Programs++
	return nil
}

// ReadPage performs a flash read: the cells of (block, wl) are sensed into
// the S-latch. Unwritten pages read as zero. Reads are permitted in any
// block mode; the bit-serial µ-program additionally requires SLC+ESP
// (§4.3.1 Reliability) and enforces that in BitSerialAddPlanes.
func (p *Plane) ReadPage(b, wl int) error {
	blk, err := p.getBlock(b)
	if err != nil {
		return err
	}
	if err := p.checkWL(wl); err != nil {
		return err
	}
	page, ok := blk.pages[wl]
	if ok {
		copy(p.S, page)
	} else {
		clear(p.S)
	}
	p.injectReadErrors(blk.mode)
	p.stats.Reads++
	p.stats.Time += p.timing.ReadSLC
	p.stats.Energy += p.energy.ReadSLCPerChannel
	return nil
}

// TransferS2D copies the S-latch into D-latch d (reset-and-set sequence of
// Fig. 4, steps 2-3).
func (p *Plane) TransferS2D(d int) {
	copy(p.D[d], p.S)
	p.stats.LatchTransfers++
	p.stats.Time += p.timing.LatchTransfer
	p.stats.Energy += p.energy.LatchPerKB * p.pageKB()
}

// TransferD2S copies D-latch d into the S-latch (the bi-directional path
// added by the M7/M8 transistors of [141]).
func (p *Plane) TransferD2S(d int) {
	copy(p.S, p.D[d])
	p.stats.LatchTransfers++
	p.stats.Time += p.timing.LatchTransfer
	p.stats.Energy += p.energy.LatchPerKB * p.pageKB()
}

// ResetD clears D-latch d (used to zero the carry latch before a
// bit-serial addition).
func (p *Plane) ResetD(d int) {
	clear(p.D[d])
	p.stats.LatchTransfers++
	p.stats.Time += p.timing.LatchTransfer
	p.stats.Energy += p.energy.LatchPerKB * p.pageKB()
}

// AndSD performs the bitwise AND of the S-latch and D-latch d, leaving the
// result in the S-latch (§4.3.1, operation 2).
func (p *Plane) AndSD(d int) {
	for i := range p.S {
		p.S[i] &= p.D[d][i]
	}
	p.stats.AndOrOps++
	p.stats.Time += p.timing.AndOr
	p.stats.Energy += p.energy.AndOrPerKB * p.pageKB()
}

// OrSD performs the bitwise OR of the S-latch and D-latch d, leaving the
// result in D-latch d (§4.3.1, operation 3).
func (p *Plane) OrSD(d int) {
	for i := range p.D[d] {
		p.D[d][i] |= p.S[i]
	}
	p.stats.AndOrOps++
	p.stats.Time += p.timing.AndOr
	p.stats.Energy += p.energy.AndOrPerKB * p.pageKB()
}

// XorDD performs the bitwise XOR of D-latches dst and src using the
// existing randomiser XOR circuit, leaving the result in dst (§4.3.1,
// operation 4).
func (p *Plane) XorDD(dst, src int) {
	for i := range p.D[dst] {
		p.D[dst][i] ^= p.D[src][i]
	}
	p.stats.XorOps++
	p.stats.Time += p.timing.Xor
	p.stats.Energy += p.energy.XorPerKB * p.pageKB()
}

// LoadS transfers one page of operand data from the controller into the
// S-latch: a DMA over the flash channel plus a latch write (counted in the
// AND/OR class, completing the 4·TAND/OR of Eq. 10).
func (p *Plane) LoadS(data []uint64) error {
	if len(data) != p.geom.PageWords() {
		return fmt.Errorf("flash: operand page must be %d words, got %d", p.geom.PageWords(), len(data))
	}
	copy(p.S, data)
	p.stats.LatchWrites++
	p.stats.Time += p.timing.DMA + p.timing.AndOr
	p.stats.Energy += p.energy.DMAPerChannel + p.energy.AndOrPerKB*p.pageKB()
	return nil
}

// ReadLatchD transfers D-latch d out to the controller (DMA) into dst,
// one page wide.
func (p *Plane) ReadLatchD(d int, dst []uint64) {
	copy(dst, p.D[d])
	p.stats.LatchReads++
	p.stats.Time += p.timing.DMA
	p.stats.Energy += p.energy.DMAPerChannel
}

// WriteVertical stores coeffs in vertical layout: bit i of coefficient j is
// programmed at wordline wlBase+i, bitline j. This is the layout the
// bit-serial adder requires (§4.3.1 Data Layout); the transposition itself
// is the SSD controller's job (internal/ssd), so WriteVertical only counts
// the 32 page programs.
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
