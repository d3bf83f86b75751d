package engine

import (
	"errors"
	"maps"
	"runtime"
	"slices"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/ssd"
)

// TestEngineRejectsWrongDegree: a query prepared under other parameters
// (ParamsToy tokens, n = 64) against a 1-chunk ParamsPaper database
// (n = 1024) agrees with it on every shape field, so only the
// polynomial degree tells them apart. Every engine must reject it with
// core.ErrQueryDegree, alone and as a batch member, before its kernel
// indexes past the short polynomials — on a pool that panic would kill
// the process from a worker goroutine.
func TestEngineRejectsWrongDegree(t *testing.T) {
	const dbBits = 512 // one chunk at either degree
	paper := core.Config{Params: bfv.ParamsPaper(), AlignBits: 8, Mode: core.ModeSeededMatch}
	owner, err := core.NewClient(paper, rng.NewSourceFromString("degree-owner"))
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(make([]byte, dbBits/8), dbBits)
	if err != nil {
		t.Fatal(err)
	}
	good, err := owner.PrepareQuery([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	toy := core.Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: core.ModeSeededMatch}
	stranger, err := core.NewClient(toy, rng.NewSourceFromString("degree-stranger"))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := stranger.PrepareQuery([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	if bad.NumChunks != len(edb.Chunks) || bad.DBBitLen != edb.BitLen {
		t.Fatalf("fixture: toy query has %d chunks/%d bits, database %d/%d; only the degree may differ",
			bad.NumChunks, bad.DBBitLen, len(edb.Chunks), edb.BitLen)
	}
	assertEnginesRefuse(t, paper.Params, edb, good, map[string]*core.Query{"toy degree": bad}, core.ErrQueryDegree)
}

// assertEnginesRefuse builds every engine kind on edb and requires each
// query of bad to fail with want, alone (allocating under 64 KiB, so
// nothing was sized from it) and as a batch member after good; the
// engine must then serve good.
func assertEnginesRefuse(t *testing.T, params bfv.Params, edb *core.EncryptedDB, good *core.Query, bad map[string]*core.Query, want error) {
	t.Helper()
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, spec := range []core.EngineSpec{
		{Kind: core.EngineSerial},
		{Kind: core.EnginePool, Workers: 2},
		{Kind: core.EngineSSD},
	} {
		eng, err := BuildWith(params, edb, spec, ssd.DefaultConfig(), ssd.SoftwareTransposition)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, name := range slices.Sorted(maps.Keys(bad)) {
			var err error
			if b := allocated(func() {
				var ir *core.IndexResult
				if ir, err = eng.SearchAndIndex(bad[name]); err == nil {
					ir.Release()
				}
			}); b >= 64<<10 {
				t.Errorf("%s %s: refused search allocated %d bytes", spec, name, b)
			}
			if !errors.Is(err, want) {
				t.Errorf("%s %s: single search err = %v, want %v", spec, name, err, want)
			}
			if irs, err := eng.SearchAndIndexBatch(core.NewBatchQuery(good, bad[name])); !errors.Is(err, want) {
				for _, ir := range irs {
					ir.Release()
				}
				t.Errorf("%s %s: batch err = %v, want %v", spec, name, err, want)
			}
		}
		ir, err := eng.SearchAndIndex(good)
		if err != nil {
			t.Fatalf("%s: well-formed query after the rejections: %v", spec, err)
		}
		ir.Release()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineRejectsHostileResidues: the residue list of a query comes
// off the wire and sizes the kernel's comparand rows and record room
// (the SSD controller's bitmaps), so every engine must refuse one no
// client prepares — duplicates, a residue outside [0, YBits), a
// descending list, more residues than RHS polynomials — with
// core.ErrQueryResidues, alone and as a batch member, before anything
// is sized from it: 4096 copies of residue 0 once cost megabytes.
func TestEngineRejectsHostileResidues(t *testing.T) {
	const dbBits = 512 // one chunk
	cfg := core.Config{Params: bfv.ParamsPaper(), AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("residues"))
	if err != nil {
		t.Fatal(err)
	}
	edb, err := client.EncryptDatabase(make([]byte, dbBits/8), dbBits)
	if err != nil {
		t.Fatal(err)
	}
	good, err := client.PrepareQuery([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Residues) != 4 || len(good.RHS) != 4 {
		t.Fatalf("fixture: %d residues, %d RHS polynomials; want 4 and 4", len(good.Residues), len(good.RHS))
	}
	bad := make(map[string]*core.Query)
	for name, residues := range map[string][]int{
		"duplicates":      make([]int, 4096),
		"negative":        {-8, 0, 8, 16},
		"at length":       {0, 8, 16, 32},
		"descending":      {0, 16, 8, 24},
		"more than RHS":   {0, 1, 2, 3, 4},
		"repeated at end": {0, 8, 16, 16},
	} {
		q := *good
		q.Residues = residues
		bad[name] = &q
	}
	assertEnginesRefuse(t, cfg.Params, edb, good, bad, core.ErrQueryResidues)
}

// TestEngineRejectsNarrowRing: on rings of degree 16 and 32 a chunk is
// narrower than one 64-window hit word. The CPU engine refuses a seeded
// search there with core.ErrNarrowRing, alone and in a batch, and the
// in-flash engine refuses the database itself with the same error.
func TestEngineRejectsNarrowRing(t *testing.T) {
	for _, n := range []int{16, 32} {
		params := bfv.Params{N: n, Q: 1 << 32, T: 1 << 16, Eta: 3, RelinBaseBits: 8}
		cfg := core.Config{Params: params, AlignBits: 8, Mode: core.ModeSeededMatch}
		client, err := core.NewClient(cfg, rng.NewSourceFromString("narrow-ring"))
		if err != nil {
			t.Fatal(err)
		}
		edb, err := client.EncryptDatabase(make([]byte, 256), 2048)
		if err != nil {
			t.Fatal(err)
		}
		q, err := client.PrepareQuery([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, 2048)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []core.EngineSpec{{Kind: core.EngineSerial}, {Kind: core.EnginePool, Workers: 2}} {
			eng, err := BuildWith(params, edb, spec, ssd.TestConfig(), ssd.SoftwareTransposition)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, spec, err)
			}
			if ir, err := eng.SearchAndIndex(q); !errors.Is(err, core.ErrNarrowRing) || ir != nil {
				t.Errorf("n=%d %s: search = (%v, %v), want ErrNarrowRing and no result", n, spec, ir, err)
			}
			if irs, err := eng.SearchAndIndexBatch(core.NewBatchQuery(q)); !errors.Is(err, core.ErrNarrowRing) || irs != nil {
				t.Errorf("n=%d %s: batch = (%v, %v), want ErrNarrowRing and no result", n, spec, irs, err)
			}
			eng.Close()
		}
		if eng, err := BuildWith(params, edb, core.EngineSpec{Kind: core.EngineSSD}, ssd.TestConfig(), ssd.SoftwareTransposition); !errors.Is(err, core.ErrNarrowRing) {
			t.Errorf("n=%d ssd: build = (%v, %v), want ErrNarrowRing", n, eng, err)
		}
	}
}

// TestEngineStatsAccumulate checks, for each substrate, that the
// per-search Stats of repeated searches sum to one search's count per
// search: each result reports its own work, none carries another's.
func TestEngineStatsAccumulate(t *testing.T) {
	const dbBits = 2304 // 3 chunks
	cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("stats"))
	if err != nil {
		t.Fatal(err)
	}
	edb, err := client.EncryptDatabase(make([]byte, dbBits/8), dbBits)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery([]byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC}, 48, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []core.EngineSpec{
		{Kind: core.EngineSerial},
		{Kind: core.EnginePool, Workers: 2},
		{Kind: core.EngineSSD},
	} {
		eng, err := BuildWith(cfg.Params, edb, spec, ssd.TestConfig(), ssd.SoftwareTransposition)
		if err != nil {
			t.Fatal(err)
		}
		ir, err := eng.SearchAndIndex(q)
		if err != nil {
			t.Fatal(err)
		}
		ir2, err := eng.SearchAndIndex(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ir.Stats.HomAdds+ir2.Stats.HomAdds, 2*ir.Stats.HomAdds; got != want || got == 0 {
			t.Errorf("%s: summed HomAdds = %d, want %d", eng.Describe(), got, want)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want core.EngineSpec
		ok   bool
	}{
		{"", core.EngineSpec{}, true},
		{"serial", core.EngineSpec{Kind: "serial"}, true},
		{"pool", core.EngineSpec{Kind: "pool"}, true},
		{"pool:8", core.EngineSpec{Kind: "pool", Workers: 8}, true},
		{"ssd", core.EngineSpec{Kind: "ssd"}, true},
		{"warp", core.EngineSpec{}, false},
		{"serial:4", core.EngineSpec{}, false},
		{"pool:x", core.EngineSpec{}, false},
		{"pool:0", core.EngineSpec{}, false},
		{"ssd:2", core.EngineSpec{}, false},
		{"ssd/shards=4", core.EngineSpec{}, false},
		{"pool:2/shards=3", core.EngineSpec{}, false},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok != (err == nil) {
			t.Errorf("Parse(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// Round trip through the spec's String form.
	for _, s := range []string{"serial", "pool", "pool:8", "ssd"} {
		spec, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if spec.String() != s {
			t.Errorf("round trip %q -> %q", s, spec.String())
		}
	}
}
