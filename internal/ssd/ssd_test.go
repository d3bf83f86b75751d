package ssd

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/flash"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/rng"
)

func newTestSSD(t *testing.T) *SSD {
	t.Helper()
	s, err := New(TestConfig(), bfv.ParamsToy(), SoftwareTransposition)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storedChunk reads chunk j's two components back out of the vertical
// layout: component c is slot 2j+c, lane slot%lanesPerGroup of group
// slot/lanesPerGroup, 32 page reads and one transposition.
func storedChunk(t *testing.T, s *SSD, j int) [2][]uint64 {
	t.Helper()
	var out [2][]uint64
	n := s.params.N
	for c := range out {
		slot := 2*j + c
		plane, block, wlBase, err := s.groupAddr(slot / s.lanesPerGroup)
		if err != nil {
			t.Fatal(err)
		}
		planes := s.cfg.Geometry.NewBitPlanes()
		for i, row := range planes {
			if err := s.planes[plane].ReadPage(block, wlBase+i); err != nil {
				t.Fatal(err)
			}
			copy(row, s.planes[plane].S)
		}
		full := make([]uint32, s.cfg.Geometry.PageBits())
		mathutil.TransposeFromBitPlanes(planes, full)
		lane := slot % s.lanesPerGroup
		for _, v := range full[lane*n : (lane+1)*n] {
			out[c] = append(out[c], uint64(v))
		}
	}
	return out
}

func plant(db []byte, query []byte, queryBits, o int) {
	for j := 0; j < queryBits; j++ {
		mathutil.SetBit(db, o+j, mathutil.GetBit(query, j))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(TestConfig(), bfv.ParamsToyMul(), SoftwareTransposition); err == nil {
		t.Error("accepted q != 2^32")
	}
	cfg := TestConfig()
	cfg.Geometry.PageBytes = 4 // 32 bitlines < n=64
	if _, err := New(cfg, bfv.ParamsToy(), SoftwareTransposition); err == nil {
		t.Error("accepted ring degree wider than the page")
	}
}

func TestCMWriteReadRoundtrip(t *testing.T) {
	s := newTestSSD(t)
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("ssd-rt"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 320) // 2560 bits = 3 toy chunks
	rng.NewSourceFromString("data").Bytes(data)
	edb, err := client.EncryptDatabase(data, 2560)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	if s.StoredChunks() != len(edb.Chunks) {
		t.Fatalf("stored %d chunks, want %d", s.StoredChunks(), len(edb.Chunks))
	}
	for j := range edb.Chunks {
		for c, got := range storedChunk(t, s, j) {
			if !slices.Equal(got, edb.Chunks[j].C[c]) {
				t.Fatalf("chunk %d component %d corrupted by vertical roundtrip", j, c)
			}
		}
	}
}

// TestCMSearchMatchesSoftware is the headline integration test: the
// in-flash search (bit-serial addition through the latch simulator plus
// controller index generation) must return exactly the candidates of the
// software evaluator path.
func TestCMSearchMatchesSoftware(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("ifp-vs-sw"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 320) // 2560 bits, 3 chunks
	rng.NewSourceFromString("ifp-data").Bytes(data)
	query := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	plant(data, query, 32, 96)
	plant(data, query, 32, 1016) // spans the chunk-0/chunk-1 boundary
	plant(data, query, 32, 2400)

	edb, err := client.EncryptDatabase(data, 2560)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(query, 32, 2560)
	if err != nil {
		t.Fatal(err)
	}

	// Software path.
	server := core.NewServer(cfg.Params, edb)
	swResult, err := server.SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}

	// In-flash path.
	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	ifpResult, err := s.CMSearch(q)
	if err != nil {
		t.Fatal(err)
	}

	if len(swResult.Candidates) == 0 {
		t.Fatal("software search found nothing; test is vacuous")
	}
	if len(ifpResult.Candidates) != len(swResult.Candidates) {
		t.Fatalf("IFP candidates %v != software %v", ifpResult.Candidates, swResult.Candidates)
	}
	for i := range swResult.Candidates {
		if ifpResult.Candidates[i] != swResult.Candidates[i] {
			t.Fatalf("IFP candidates %v != software %v", ifpResult.Candidates, swResult.Candidates)
		}
	}
	// Planted occurrences present.
	for _, o := range []int{96, 1016, 2400} {
		found := false
		for _, c := range ifpResult.Candidates {
			if c == o {
				found = true
			}
		}
		if !found {
			t.Fatalf("planted occurrence %d missing from IFP candidates %v", o, ifpResult.Candidates)
		}
	}
	// The hit records must agree record by record.
	if !ifpResult.Hits.Equal(swResult.Hits) {
		t.Fatalf("hit records: software %v, IFP %v", swResult.Hits.Words, ifpResult.Hits.Words)
	}
}

// TestRefusedWriteKeepsDatabase: a database too large for the
// CIPHERMATCH region is refused before any page is programmed, so the
// drive still holds, and searches, the database it held.
func TestRefusedWriteKeepsDatabase(t *testing.T) {
	dcfg := TestConfig()
	dcfg.Geometry.BlocksPerPlane = 2 // one CM block per plane
	dcfg.Geometry.SubBlocks = 1
	dcfg.Geometry.WLLayers = 32 // one group per block: 8 groups, 256 toy chunks
	s, err := New(dcfg, bfv.ParamsToy(), SoftwareTransposition)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("refused-write"))
	if err != nil {
		t.Fatal(err)
	}
	const chunkBits = 1024
	data := make([]byte, 10*chunkBits/8)
	rng.NewSourceFromString("refused-write-data").Bytes(data)
	query := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	plant(data, query, 32, 96)
	plant(data, query, 32, 5000)
	edb, err := client.EncryptDatabase(data, 10*chunkBits)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(query, 32, 10*chunkBits)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.CMSearch(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Candidates) == 0 {
		t.Fatal("search found nothing; test is vacuous")
	}
	programs := s.FlashStats().Programs

	big, err := client.EncryptDatabase(make([]byte, 257*chunkBits/8), 257*chunkBits)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CMWriteDatabase(big); err == nil {
		t.Fatal("a 257-chunk database fit a 256-chunk region")
	}
	if got := s.StoredChunks(); got != 10 {
		t.Fatalf("StoredChunks = %d after a refused write, want 10", got)
	}
	if got := s.FlashStats().Programs; got != programs {
		t.Fatalf("a refused write programmed %d pages", got-programs)
	}
	after, err := s.CMSearch(q)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after.Candidates, before.Candidates) {
		t.Fatalf("candidates %v after a refused write, want %v", after.Candidates, before.Candidates)
	}
}

func TestCMSearchRequiresTokens(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeClientDecrypt}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("no-tokens"))
	data := make([]byte, 128)
	edb, _ := client.EncryptDatabase(data, 1024)
	q, _ := client.PrepareQuery([]byte{0xAB, 0xCD}, 16, 1024)

	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CMSearch(q); err == nil {
		t.Error("CMSearch accepted a query without tokens")
	}
}

// TestCMSearchEmptyResidues: a token-bearing query with no shift
// variants (a hostile wire peer can send one) must return an empty
// result, not panic — FactorQuery returns an empty form for it and the
// controller must not touch the absent DBTok plane.
func TestCMSearchEmptyResidues(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeSeededMatch}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("empty-res"))
	data := make([]byte, 128)
	edb, _ := client.EncryptDatabase(data, 1024)
	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	q, _ := client.PrepareQuery([]byte{0xAB, 0xCD}, 16, 1024)
	q.Residues = nil
	ir, err := s.CMSearch(q)
	if err != nil {
		t.Fatalf("empty-residue search errored: %v", err)
	}
	if len(ir.Hits.Words) != 0 || len(ir.Candidates) != 0 {
		t.Fatalf("empty-residue search returned non-empty result: %+v", ir)
	}
}

func TestCMSearchValidatesDBShape(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeSeededMatch}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("shape"))
	data := make([]byte, 128)
	edb, _ := client.EncryptDatabase(data, 1024)
	s := newTestSSD(t)
	if _, err := s.CMSearch(&core.Query{YBits: 16}); err == nil {
		t.Error("CMSearch accepted search before CMWriteDatabase")
	}
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	qWrong, _ := client.PrepareQuery([]byte{0xAB, 0xCD}, 16, 2048)
	if _, err := s.CMSearch(qWrong); err == nil {
		t.Error("CMSearch accepted query for a different database size")
	}
}

// TestBatchRefusesBeforeFlashWork: the engine checks every batch member
// before it searches any, as the CPU engine does, so a malformed last
// member costs the drive nothing: neither the engine's HomAdds nor the
// controller's move, and no page is read.
func TestBatchRefusesBeforeFlashWork(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("batch-refusal"))
	if err != nil {
		t.Fatal(err)
	}
	edb, err := client.EncryptDatabase(make([]byte, 128), 1024) // one toy chunk
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineForDB(TestConfig(), cfg.Params, SoftwareTransposition, edb)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery([]byte{0xDE, 0xAD, 0xBE}, 24, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := eng.SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}
	ir.Release()
	badResidues := *q
	badResidues.Residues = []int{0, 0, 8}
	// As many RHS polynomials as residues, one of them moved to a phase
	// no chunk compares against.
	missingPhase := *q
	missingPhase.RHS = maps.Clone(q.RHS)
	for psi, p := range q.RHS {
		delete(missingPhase.RHS, psi)
		missingPhase.RHS[psi+q.YBits] = p
		break
	}
	for name, c := range map[string]struct {
		bad  *core.Query
		want error
	}{
		"residues":      {&badResidues, core.ErrQueryResidues},
		"missing phase": {&missingPhase, nil},
	} {
		ctrlAdds, reads := eng.drive.ControllerStats().HomAdds, eng.drive.FlashStats().Reads
		irs, err := eng.SearchAndIndexBatch(core.NewBatchQuery(q, q, c.bad))
		if err == nil || c.want != nil && !errors.Is(err, c.want) || irs != nil {
			t.Fatalf("%s: batch = (%v, %v), want a refusal (%v) and no result", name, irs, err, c.want)
		}
		if got := eng.drive.ControllerStats().HomAdds; got != ctrlAdds {
			t.Errorf("%s: controller HomAdds %d -> %d across a refused batch", name, ctrlAdds, got)
		}
		if got := eng.drive.FlashStats().Reads; got != reads {
			t.Errorf("%s: %d flash reads for a refused batch", name, got-reads)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: 16, Mode: core.ModeSeededMatch}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("acct"))
	data := make([]byte, 256) // 2048 bits = 2 chunks
	edb, _ := client.EncryptDatabase(data, 2048)
	q, _ := client.PrepareQuery([]byte{0x12, 0x34}, 16, 2048)

	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	writeTransposes := s.ControllerStats().TransposePages
	if writeTransposes == 0 {
		t.Fatal("CM-write must use the transposition unit")
	}
	if _, err := s.CMSearch(q); err != nil {
		t.Fatal(err)
	}
	cs := s.ControllerStats()
	fs := s.FlashStats()
	// One variant (16-bit query, 16-bit alignment), 2 chunks = 4 slots;
	// TestConfig lanes: 4096 bits / 64 = 64 lanes per group -> 1 group.
	if cs.HomAdds != 2 {
		t.Errorf("HomAdds = %d, want 2", cs.HomAdds)
	}
	if fs.Reads != 32 {
		t.Errorf("flash reads = %d, want 32 (one bit-serial pass)", fs.Reads)
	}
	if cs.IndexGenPages != 1 || cs.IndexGenTime != s.cfg.IndexGenLatency {
		t.Errorf("index generation accounting: %+v", cs)
	}
	if fs.Time == 0 || fs.Energy == 0 {
		t.Error("flash time/energy not accounted")
	}
	if s.MaxPlaneTime() == 0 || s.MaxPlaneTime() > fs.Time {
		t.Error("MaxPlaneTime inconsistent")
	}
}

// TestSearchPreservesStoredDatabase: CM-search computes entirely in the
// latches, so the stored ciphertexts must be bit-identical afterwards.
func TestSearchPreservesStoredDatabase(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeSeededMatch}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("preserve"))
	data := make([]byte, 256)
	rng.NewSourceFromString("preserve-data").Bytes(data)
	edb, _ := client.EncryptDatabase(data, 2048)
	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	q, _ := client.PrepareQuery([]byte{0x42, 0x24}, 16, 2048)
	if _, err := s.CMSearch(q); err != nil {
		t.Fatal(err)
	}
	for j := range edb.Chunks {
		for c, got := range storedChunk(t, s, j) {
			if !slices.Equal(got, edb.Chunks[j].C[c]) {
				t.Fatalf("chunk %d component %d mutated by CM-search", j, c)
			}
		}
	}
}

func TestSearchDoesNotWearFlash(t *testing.T) {
	// §4.3.1 Reliability: CM-search must not program or erase any block.
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeSeededMatch}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("wear"))
	data := make([]byte, 128)
	edb, _ := client.EncryptDatabase(data, 1024)
	q, _ := client.PrepareQuery([]byte{0xFF, 0x00}, 16, 1024)

	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	progsBefore := s.FlashStats().Programs
	if _, err := s.CMSearch(q); err != nil {
		t.Fatal(err)
	}
	if s.FlashStats().Programs != progsBefore {
		t.Error("CM-search programmed flash pages")
	}
	if s.FlashStats().Erases != 0 {
		t.Error("CM-search erased blocks")
	}
}

func TestOverheadReport(t *testing.T) {
	s, err := New(DefaultConfig(), bfv.ParamsPaper(), SoftwareTransposition)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Overheads()
	if r.ResultStagingBytes != PaperResultStagingBytes {
		t.Errorf("ResultStagingBytes = %d, want %d (0.5 MiB, §6.3)",
			r.ResultStagingBytes, PaperResultStagingBytes)
	}
	if r.MicroprogramBytes > 1024 {
		t.Errorf("µ-program footprint %d exceeds 1 KB", r.MicroprogramBytes)
	}
	if r.PeripheralAreaOverheadPct != 0.6 || r.TransposeUnitAreaMM2 != 0.24 || r.AESUnitAreaMM2 != 0.13 {
		t.Errorf("area overheads drifted from the paper: %+v", r)
	}
	if r.SLCCapacityLossBytes <= 0 {
		t.Error("SLC capacity loss must be positive")
	}
}

func TestTransposeLatencyScaling(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TransposeLatency(SoftwareTransposition) != cfg.SoftTransposeLatency {
		t.Error("4 KiB software transposition latency must equal the paper constant")
	}
	if cfg.TransposeLatency(HardwareTransposition) != cfg.HardTransposeLatency {
		t.Error("4 KiB hardware transposition latency must equal the paper constant")
	}
	small := TestConfig() // 512-byte pages: 1/8 of the reference
	if got, want := small.TransposeLatency(SoftwareTransposition), cfg.SoftTransposeLatency/8; got != want {
		t.Errorf("scaled software transposition = %v, want %v", got, want)
	}
	// The software unit must hide under the SLC flash read (§4.3.2); the
	// hardware unit must hide under a Z-NAND 3 µs read (§7.1).
	if cfg.TransposeLatency(SoftwareTransposition) > cfg.Timing.ReadSLC {
		t.Error("software transposition no longer hides under the flash read")
	}
}

// TestNewAllocs pins drive construction to O(planes), not O(blocks):
// the CIPHERMATCH region is a block-range rule on each plane, so
// building the full Table 3 drive materialises no flash block.
func TestNewAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := New(DefaultConfig(), bfv.ParamsPaper(), SoftwareTransposition); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("ssd.New allocates %v times, want <= 1000", allocs)
	}
	s, err := New(DefaultConfig(), bfv.ParamsPaper(), SoftwareTransposition)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*flash.Plane{s.planes[0], s.planes[len(s.planes)-1]} {
		if m := p.BlockMode(s.cmBlocks - 1); m != flash.ModeSLCESP {
			t.Errorf("last CM-region block in mode %v, want %v", m, flash.ModeSLCESP)
		}
		if m := p.BlockMode(s.cmBlocks); m != flash.ModeTLC {
			t.Errorf("first conventional block in mode %v, want %v", m, flash.ModeTLC)
		}
	}
}
