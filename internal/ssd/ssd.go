package ssd

import (
	"fmt"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/flash"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/ring"
)

// SSD is the CIPHERMATCH-enabled drive: an array of simulated planes plus
// the controller state (FTL regions, transposition unit, index-generation
// unit).
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

	// Conventional-region flash translation layer (lazily created on the
	// first conventional Read/Write).
	ftl *ftl

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

// Config returns the SSD configuration.
func (s *SSD) Config() Config { return s.cfg }

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

// slotAddr locates ciphertext component slot t: lane l of group g.
// Chunk j's components occupy slots 2j (c0) and 2j+1 (c1).
func (s *SSD) slotAddr(t int) (g, lane int) {
	return t / s.lanesPerGroup, t % s.lanesPerGroup
}

// numGroups returns the number of vertical groups used by the stored
// database.
func (s *SSD) numGroups() int {
	slots := 2 * s.numChunks
	return (slots + s.lanesPerGroup - 1) / s.lanesPerGroup
}

// u32ToPoly converts 32-bit coefficients to a mod-2^32 ring polynomial.
func u32ToPoly(c []uint32) ring.Poly {
	out := make(ring.Poly, len(c))
	for i, v := range c {
		out[i] = uint64(v)
	}
	return out
}

// transpose charges one page transposition to the controller.
func (s *SSD) transpose() {
	s.ctrl.TransposePages++
	s.ctrl.TransposeTime += s.cfg.TransposeLatency(s.transKind)
}

// composeGroup fills the controller's page with group g's coefficients
// and returns it: fill writes component c of chunk j into dst, its
// lane, for every slot of g that holds a stored chunk; the other lanes
// stay zero.
func (s *SSD) composeGroup(g int, fill func(j, c int, dst []uint32)) []uint32 {
	clear(s.page)
	n := s.params.N
	for lane := 0; lane < s.lanesPerGroup; lane++ {
		slot := g*s.lanesPerGroup + lane
		if j := slot / 2; j < s.numChunks {
			fill(j, slot%2, s.page[lane*n:(lane+1)*n])
		}
	}
	return s.page
}

// CMWriteDatabase stores an encrypted database into the CIPHERMATCH region
// in vertical layout (CM-write, §4.3.2): per group, the controller
// composes the page-width coefficient stream, transposes it into 32
// bit-planes, and programs 32 wordlines.
func (s *SSD) CMWriteDatabase(db *core.EncryptedDB) error {
	s.numChunks = len(db.Chunks)
	s.dbBitLen = db.BitLen
	for g := 0; g < s.numGroups(); g++ {
		plane, block, wlBase, err := s.groupAddr(g)
		if err != nil {
			return err
		}
		page := s.composeGroup(g, func(j, c int, dst []uint32) {
			s.ctrl.HostBytesIn += int64(s.params.N * s.params.QBytes())
			for i, v := range db.Chunks[j].C[c] {
				dst[i] = uint32(v)
			}
		})
		mathutil.TransposeToBitPlanes(page, s.ops)
		s.transpose()
		for i, row := range s.ops {
			if err := s.planes[plane].ProgramPage(block, wlBase+i, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// CMReadChunk reconstructs chunk j's ciphertext from the vertical layout
// (CM-read / page-fault path, §4.3.2): 32 flash reads per component plus a
// reverse transposition in the controller. This is the long-latency read
// the paper handles with OS huge-page support.
func (s *SSD) CMReadChunk(j int) (*bfv.Ciphertext, error) {
	if j < 0 || j >= s.numChunks {
		return nil, fmt.Errorf("ssd: chunk %d out of range [0, %d)", j, s.numChunks)
	}
	ct := &bfv.Ciphertext{C: make([]ring.Poly, 2)}
	for c := 0; c < 2; c++ {
		g, lane := s.slotAddr(2*j + c)
		plane, block, wlBase, err := s.groupAddr(g)
		if err != nil {
			return nil, err
		}
		full, err := s.planes[plane].ReadVertical(block, wlBase, s.cfg.Geometry.PageBits())
		if err != nil {
			return nil, err
		}
		s.transpose()
		ct.C[c] = u32ToPoly(full[lane*s.params.N : (lane+1)*s.params.N])
		s.ctrl.HostBytesOut += int64(s.params.N * s.params.QBytes())
	}
	return ct, nil
}

// StoredChunks returns the number of chunks in the CIPHERMATCH region.
func (s *SSD) StoredChunks() int { return s.numChunks }
