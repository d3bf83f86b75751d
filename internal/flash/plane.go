package flash

import "fmt"

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

	blocks map[int]*block
	stats  Stats

	// Blocks [0, regionBlocks) not yet materialised take regionMode
	// (SetRegionMode); the rest start in ModeTLC.
	regionBlocks int
	regionMode   BlockMode
}

type block struct {
	mode  BlockMode
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

func (p *Plane) pageKB() float64 { return float64(p.geom.PageBytes) / 1024 }

func (p *Plane) getBlock(b int) (*block, error) {
	if b < 0 || b >= p.geom.BlocksPerPlane {
		return nil, fmt.Errorf("flash: block %d out of range [0, %d)", b, p.geom.BlocksPerPlane)
	}
	blk, ok := p.blocks[b]
	if !ok {
		blk = &block{mode: p.BlockMode(b), pages: make(map[int][]uint64)}
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

// SetRegionMode gives the blocks [0, n) not used yet the cell mode
// mode without materialising them: the CIPHERMATCH region of a drive
// costs nothing until a block in it is used. Blocks already used keep
// their mode.
func (p *Plane) SetRegionMode(n int, mode BlockMode) error {
	if n < 0 || n > p.geom.BlocksPerPlane {
		return fmt.Errorf("flash: region of %d blocks out of range [0, %d]", n, p.geom.BlocksPerPlane)
	}
	p.regionBlocks, p.regionMode = n, mode
	return nil
}

// BlockMode returns the cell mode of a block (for untouched blocks,
// the region mode inside the SetRegionMode region and ModeTLC outside).
func (p *Plane) BlockMode(b int) BlockMode {
	if blk, ok := p.blocks[b]; ok {
		return blk.mode
	}
	if b >= 0 && b < p.regionBlocks {
		return p.regionMode
	}
	return ModeTLC
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
