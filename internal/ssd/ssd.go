package ssd

import (
	"fmt"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/flash"
	"ciphermatch/internal/mathutil"
)

// SSD is the CIPHERMATCH-enabled drive: an array of simulated planes plus
// the controller state of the CIPHERMATCH region (its vertical layout,
// the transposition unit, the index-generation unit).
type SSD struct {
	cfg       Config
	params    bfv.Params
	transKind TranspositionKind

	planes []*flash.Plane

	// CIPHERMATCH region layout.
	cmBlocks      int // blocks per plane reserved for the CM region
	lanesPerGroup int // ciphertext components per vertical group
	numChunks     int // chunks stored by CMWriteDatabase
	dbBitLen      int

	ctrl ControllerStats

	// Controller scratch, one page each, reused by every CM command: a
	// group's coefficients, one per bitline (the operand, then the
	// sums), and the operand's and the sums' bit-planes. The drive runs
	// one command at a time, so an SSD is not safe for concurrent use;
	// Engine serialises its searches.
	page      []uint32
	ops, sums [][]uint64
}

// ControllerStats accumulates controller-side work (the flash planes track
// their own time/energy).
type ControllerStats struct {
	TransposePages int
	TransposeTime  time.Duration
	IndexGenPages  int
	IndexGenTime   time.Duration
	IndexGenEnergy float64
	HostBytesIn    int64
	HostBytesOut   int64
	HomAdds        int
}

// New creates an SSD for the given BFV parameters. The parameters must use
// q = 2^32 (the 32-bit vertical coefficient layout of §4.3.1), and n must
// not exceed the page width in bits. n must be at least 64, the CPU
// engine's contract (core.ErrNarrowRing): a chunk then covers whole hit
// words, so CM-search emits its records chunk by chunk.
func New(cfg Config, params bfv.Params, kind TranspositionKind) (*SSD, error) {
	if params.Q != 1<<32 {
		return nil, fmt.Errorf("ssd: CM-IFP requires q = 2^32 (32 wordlines per coefficient), got q = %d", params.Q)
	}
	if params.N < 64 {
		return nil, fmt.Errorf("ssd: %w: n = %d", core.ErrNarrowRing, params.N)
	}
	if params.N > cfg.Geometry.PageBits() {
		return nil, fmt.Errorf("ssd: ring degree %d exceeds page width %d bitlines", params.N, cfg.Geometry.PageBits())
	}
	if cfg.Geometry.WLsPerBlock() < flash.OperandBits {
		return nil, fmt.Errorf("ssd: blocks need at least %d wordlines", flash.OperandBits)
	}
	s := &SSD{
		cfg:           cfg,
		params:        params,
		transKind:     kind,
		cmBlocks:      cfg.Geometry.BlocksPerPlane / 2, // half the drive, §4.3.2 region split
		lanesPerGroup: cfg.Geometry.PageBits() / params.N,
		page:          make([]uint32, cfg.Geometry.PageBits()),
		ops:           cfg.Geometry.NewBitPlanes(),
		sums:          cfg.Geometry.NewBitPlanes(),
	}
	total := cfg.Geometry.TotalPlanes()
	s.planes = make([]*flash.Plane, total)
	for i := range s.planes {
		s.planes[i] = flash.NewPlane(cfg.Geometry, cfg.Timing, cfg.Energy)
		if err := s.planes[i].SetRegionMode(s.cmBlocks, flash.ModeSLCESP); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ControllerStats returns the controller-side statistics.
func (s *SSD) ControllerStats() ControllerStats { return s.ctrl }

// FlashStats returns the summed statistics of all planes.
func (s *SSD) FlashStats() flash.Stats {
	var total flash.Stats
	for _, p := range s.planes {
		total.Add(p.Stats())
	}
	return total
}

// MaxPlaneTime returns the largest per-plane busy time — the makespan of
// the flash work under full array-level parallelism.
func (s *SSD) MaxPlaneTime() time.Duration {
	var m time.Duration
	for _, p := range s.planes {
		if t := p.Stats().Time; t > m {
			m = t
		}
	}
	return m
}

// groupsPerBlock returns how many 32-wordline vertical groups fit per block.
func (s *SSD) groupsPerBlock() int {
	return s.cfg.Geometry.WLsPerBlock() / flash.OperandBits
}

// groupAddr locates vertical group g: groups round-robin across planes
// first (array-level parallelism), then fill blocks within a plane.
func (s *SSD) groupAddr(g int) (plane, block, wlBase int, err error) {
	numPlanes := len(s.planes)
	plane = g % numPlanes
	gp := g / numPlanes
	block = gp / s.groupsPerBlock()
	if block >= s.cmBlocks {
		return 0, 0, 0, fmt.Errorf("ssd: CIPHERMATCH region full (group %d)", g)
	}
	wlBase = (gp % s.groupsPerBlock()) * flash.OperandBits
	return plane, block, wlBase, nil
}

// numGroups returns the number of vertical groups a database of the
// given number of chunks occupies.
func (s *SSD) numGroups(chunks int) int {
	slots := 2 * chunks
	return (slots + s.lanesPerGroup - 1) / s.lanesPerGroup
}

// transpose charges one page transposition to the controller.
func (s *SSD) transpose() {
	s.ctrl.TransposePages++
	s.ctrl.TransposeTime += s.cfg.TransposeLatency(s.transKind)
}

// composeGroup fills the controller's page with group g's coefficients
// and returns it: fill writes component c of chunk j into dst, its
// lane, for every slot of g that holds one of the database's chunks;
// the other lanes stay zero.
func (s *SSD) composeGroup(g, chunks int, fill func(j, c int, dst []uint32)) []uint32 {
	clear(s.page)
	n := s.params.N
	for lane := 0; lane < s.lanesPerGroup; lane++ {
		slot := g*s.lanesPerGroup + lane
		if j := slot / 2; j < chunks {
			fill(j, slot%2, s.page[lane*n:(lane+1)*n])
		}
	}
	return s.page
}

// CMWriteDatabase stores an encrypted database into the CIPHERMATCH region
// in vertical layout (CM-write, §4.3.2): per group, the controller
// composes the page-width coefficient stream, transposes it into 32
// bit-planes, and programs 32 wordlines.
//
// A database that does not fit the region is refused before any page is
// programmed, so the drive keeps the database it held. The drive adopts
// the new database only once every group is written.
func (s *SSD) CMWriteDatabase(db *core.EncryptedDB) error {
	chunks := len(db.Chunks)
	groups := s.numGroups(chunks)
	if groups > 0 {
		if _, _, _, err := s.groupAddr(groups - 1); err != nil {
			return err
		}
	}
	for g := 0; g < groups; g++ {
		plane, block, wlBase, err := s.groupAddr(g)
		if err != nil {
			return err
		}
		page := s.composeGroup(g, chunks, func(j, c int, dst []uint32) {
			s.ctrl.HostBytesIn += int64(s.params.N * s.params.QBytes())
			for i, v := range db.Chunks[j].C[c] {
				dst[i] = uint32(v)
			}
		})
		mathutil.TransposeToBitPlanes(page, s.ops)
		s.transpose()
		for i, row := range s.ops {
			if err := s.planes[plane].ProgramPage(block, wlBase+i, row); err != nil {
				// The old database is partly overwritten: hold none.
				s.numChunks, s.dbBitLen = 0, 0
				return err
			}
		}
	}
	s.numChunks, s.dbBitLen = chunks, db.BitLen
	return nil
}

// StoredChunks returns the number of chunks in the CIPHERMATCH region.
func (s *SSD) StoredChunks() int { return s.numChunks }
