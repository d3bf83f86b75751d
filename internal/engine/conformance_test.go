package engine

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/ssd"
)

// conformanceVector is one end-to-end scenario shared by every engine;
// the set mirrors internal/core/match_test.go (single chunk, chunk
// boundary spans, bit alignment, segment alignment).
type conformanceVector struct {
	name      string
	dbBytes   int
	dbBits    int
	query     []byte
	queryBits int
	align     int
	plants    []int
}

var conformanceVectors = []conformanceVector{
	{"single-chunk", 64, 512, []byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, 8, []int{0, 128, 264}},
	{"chunk-boundary", 288, 2304, []byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC}, 48, 8, []int{1000, 2048}},
	{"bit-aligned", 40, 320, []byte{0xF0, 0x0D, 0xFA, 0xCE}, 32, 1, []int{13}},
	{"segment-aligned", 128, 1024, []byte{0xCA, 0xFE, 0xBA, 0xBE}, 32, 16, []int{64, 512}},
}

// conformanceSpecs lists every engine configuration under test: the
// CPU engine inline (serial, pool:1) and over pools of several sizes
// (pool = GOMAXPROCS), and the in-flash simulator. On the 3-chunk
// chunk-boundary vector pool:4 runs one chunk per job, so occurrences
// spanning a job boundary are exercised.
var conformanceSpecs = []core.EngineSpec{
	{Kind: core.EngineSerial},
	{Kind: core.EnginePool, Workers: 1},
	{Kind: core.EnginePool, Workers: 2},
	{Kind: core.EnginePool, Workers: 4},
	{Kind: core.EnginePool},
	{Kind: core.EngineSSD},
}

// TestEngineConformance proves the tentpole property: every engine
// returns byte-identical hit bitmaps and candidates (and the same
// homomorphic-addition count) on the shared vectors, with the plain
// reference as ground truth, at ParamsToy's q = 2^32 (4-byte token
// lanes) and, under "q=2^54/", ParamsN2048's q = 2^54 (8-byte lanes;
// the in-flash engine stores 32-bit coefficients and runs at 2^32
// only).
func TestEngineConformance(t *testing.T) {
	for _, params := range []bfv.Params{bfv.ParamsToy(), bfv.ParamsN2048()} {
		for _, v := range conformanceVectors {
			name := v.name
			if params.Q != 1<<32 {
				name = fmt.Sprintf("q=2^%d/%s", bits.TrailingZeros64(params.Q), v.name)
			}
			t.Run(name, func(t *testing.T) { conformVector(t, params, v) })
		}
	}
}

// conformVector runs one TestEngineConformance vector at params.
func conformVector(t *testing.T, params bfv.Params, v conformanceVector) {
	cfg := core.Config{Params: params, AlignBits: v.align, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("conf-"+v.name))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, v.dbBytes)
	rng.NewSourceFromString("conf-data-" + v.name).Bytes(data)
	for _, o := range v.plants {
		for j := 0; j < v.queryBits; j++ {
			mathutil.SetBit(data, o+j, mathutil.GetBit(v.query, j))
		}
	}
	edb, err := client.EncryptDatabase(data, v.dbBits)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(v.query, v.queryBits, v.dbBits)
	if err != nil {
		t.Fatal(err)
	}
	want := core.ExpectedCandidates(data, v.dbBits, v.query, v.queryBits, v.align)

	var ref *core.IndexResult
	for _, spec := range conformanceSpecs {
		if spec.Kind == core.EngineSSD && params.Q != 1<<32 {
			continue
		}
		eng, err := BuildWith(cfg.Params, edb, spec, ssd.TestConfig(), ssd.SoftwareTransposition)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		label := fmt.Sprintf("%s (%s)", spec, eng.Describe())
		ir, err := eng.SearchAndIndex(q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if ref == nil {
			ref = ir // serial is first: the reference result
			if !intsEqual(ir.Candidates, want) {
				t.Fatalf("%s: candidates %v != plain reference %v", label, ir.Candidates, want)
			}
			for _, o := range v.plants {
				if !containsInt(ir.Candidates, o) {
					t.Fatalf("%s: planted occurrence %d missing from %v", label, o, ir.Candidates)
				}
			}
			continue
		}
		if !intsEqual(ir.Candidates, ref.Candidates) {
			t.Fatalf("%s: candidates %v != serial %v", label, ir.Candidates, ref.Candidates)
		}
		if ir.Stats.HomAdds != ref.Stats.HomAdds {
			t.Fatalf("%s: HomAdds %d != serial %d", label, ir.Stats.HomAdds, ref.Stats.HomAdds)
		}
		if ir.Stats.CoeffCompares <= 0 {
			t.Fatalf("%s: no coefficient comparisons recorded", label)
		}
		if !ir.Hits.Equal(ref.Hits) {
			t.Fatalf("%s: hit records %v differ from serial %v", label, ir.Hits.Words, ref.Hits.Words)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
	}
}

// TestEngineBatchConformance proves the batch pipeline's correctness
// contract on every engine configuration: SearchAndIndexBatch returns
// bitmaps and candidates identical to per-member SearchAndIndex calls
// on the same engine. The batch mixes member lengths over four DBTok
// planes and includes a duplicate of member 0 prepared separately, so
// token dedup across members is exercised, and the CPU engine must
// demonstrably save homomorphic additions from it. The planes cover a
// second client and planes holding two lengths each (one group per
// length), among them lengths whose chunk phases never repeat within
// the database. Results are released in reverse member order, so each
// duplicate returns to the pool before its original is compared.
func TestEngineBatchConformance(t *testing.T) {
	v := conformanceVectors[1] // chunk-boundary: multi-chunk database
	cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: v.align, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("batch-conf"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, v.dbBytes)
	rng.NewSourceFromString("batch-conf-data").Bytes(data)
	for _, o := range v.plants {
		for j := 0; j < v.queryBits; j++ {
			mathutil.SetBit(data, o+j, mathutil.GetBit(v.query, j))
		}
	}
	edb, err := client.EncryptDatabase(data, v.dbBits)
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.NewClient(cfg, rng.NewSourceFromString("batch-conf-other"))
	if err != nil {
		t.Fatal(err)
	}
	prepareWith := func(c *core.Client, pat []byte, bits int) *core.Query {
		q, err := c.PrepareQuery(pat, bits, v.dbBits)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	prepare := func(pat []byte, bits int) *core.Query { return prepareWith(client, pat, bits) }
	// window returns bits [at, at+bits) of the database: a pattern that
	// occurs at offset at.
	window := func(at, bits int) []byte {
		pat := make([]byte, (bits+7)/8)
		for j := 0; j < bits; j++ {
			mathutil.SetBit(pat, j, mathutil.GetBit(data, at+j))
		}
		return pat
	}
	// remask moves q onto a DBTok plane of its own, as a user holding
	// the owner's keys with a different mask M' would: c0 − DBTok and
	// RHS both shift by M', so the hits are unchanged.
	remask := func(q *core.Query, seed string) *core.Query {
		r := cfg.Params.Ring()
		m := r.NewPoly()
		r.UniformPoly(rng.NewSourceFromString(seed), m)
		out := *q
		out.DBTok = make([][]byte, len(q.DBTok))
		tok := r.NewPoly()
		for j, row := range q.DBTok {
			r.WidenLanes(tok, row)
			r.Sub(tok, m, tok)
			out.DBTok[j] = make([]byte, len(row))
			r.PutLanes(out.DBTok[j], tok)
		}
		out.RHS = make(map[int]ring.Poly, len(q.RHS))
		for psi, rhs := range q.RHS {
			out.RHS[psi] = r.NewPoly()
			r.Add(rhs, m, out.RHS[psi])
		}
		return &out
	}
	members := []*core.Query{
		prepare(v.query, v.queryBits),
		prepare([]byte{0x0F, 0xF0, 0x55, 0xAA}, 32),
		prepare(v.query, v.queryBits), // duplicate content, separately prepared
		// A second client: its own DBTok plane, and no hits on this
		// database, so a member evaluated on the wrong plane shows.
		prepareWith(other, v.query, v.queryBits),
		// Coprime lengths 48 and 25 on one plane.
		remask(prepare(v.query, v.queryBits), "plane-b"),
		remask(prepare(window(2048, 25), 25), "plane-b"),
		// Lengths 57 and 59 on one plane: every chunk has its own phase.
		remask(prepare(window(1000, 57), 57), "plane-c"),
		remask(prepare(window(1000, 59), 59), "plane-c"),
	}
	members = append(members, members[1]) // the same query twice
	mustHit := map[int]int{4: 1000, 5: 2048, 6: 1000, 7: 1000}
	bq := core.NewBatchQuery(members...)

	for _, spec := range conformanceSpecs {
		eng, err := BuildWith(cfg.Params, edb, spec, ssd.TestConfig(), ssd.SoftwareTransposition)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		label := fmt.Sprintf("%s (%s)", spec, eng.Describe())
		irs, err := eng.SearchAndIndexBatch(bq)
		if err != nil {
			t.Fatalf("%s: batch: %v", label, err)
		}
		if len(irs) != len(members) {
			t.Fatalf("%s: %d results for %d members", label, len(irs), len(members))
		}
		var batchAdds, seqAdds int
		for mi := len(members) - 1; mi >= 0; mi-- {
			q := members[mi]
			want, err := eng.SearchAndIndex(q)
			if err != nil {
				t.Fatalf("%s: member %d: %v", label, mi, err)
			}
			if at, ok := mustHit[mi]; ok && !containsInt(want.Candidates, at) {
				t.Fatalf("%s: member %d: occurrence %d missing from %v; fixture is vacuous", label, mi, at, want.Candidates)
			}
			got := irs[mi]
			if !intsEqual(got.Candidates, want.Candidates) {
				t.Fatalf("%s: member %d: batch candidates %v != sequential %v", label, mi, got.Candidates, want.Candidates)
			}
			if !got.Hits.Equal(want.Hits) {
				t.Fatalf("%s: member %d: batch records %v differ from sequential %v", label, mi, got.Hits.Words, want.Hits.Words)
			}
			batchAdds += got.Stats.HomAdds
			seqAdds += want.Stats.HomAdds
			got.Release()
			want.Release()
			scribblePool(2)
		}
		// Member 2 duplicates member 0, so the CPU engine's batch pass
		// must do strictly less homomorphic work than the sequential runs.
		if spec.Kind != core.EngineSSD && batchAdds >= seqAdds {
			t.Fatalf("%s: batch did %d HomAdds, sequential %d — token dedup saved nothing", label, batchAdds, seqAdds)
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
	}
}

// TestEngineHitsMatchClientDecrypt proves the two index-generation
// modes agree bit for bit with the fused kernels in place: every
// engine's seeded-match bitmaps (the CPU engines' 16-bit
// ring.SubCmpNarrowBits, the in-flash engine's bit-serial sweep) must
// equal the client-decrypt bitmaps (Server.Search result ciphertexts
// decrypted and compared against t-1 by ExtractHits). The ground truth
// comes from a ModeClientDecrypt twin of the seeded client: one seed
// gives both the same keys and a byte-identical database, and the twin
// never builds tokens. This pins the
// kernels to the cryptographic ground truth, not just to each other,
// on every available kernel path and at two moduli: ParamsToy's 2^32
// (16 bits below Δ) and ParamsN2048's 2^54 (38).
func TestEngineHitsMatchClientDecrypt(t *testing.T) {
	v := conformanceVectors[1] // chunk-boundary: multi-chunk database
	for _, params := range []bfv.Params{bfv.ParamsToy(), bfv.ParamsN2048()} {
		t.Run(fmt.Sprintf("q=2^%d", bits.TrailingZeros64(params.Q)), func(t *testing.T) {
			cfg := core.Config{Params: params, AlignBits: v.align, Mode: core.ModeSeededMatch}
			client, err := core.NewClient(cfg, rng.NewSourceFromString("decrypt-conf"))
			if err != nil {
				t.Fatal(err)
			}
			twinCfg := cfg
			twinCfg.Mode = core.ModeClientDecrypt
			twin, err := core.NewClient(twinCfg, rng.NewSourceFromString("decrypt-conf"))
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, v.dbBytes)
			rng.NewSourceFromString("decrypt-conf-data").Bytes(data)
			for _, o := range v.plants {
				for j := 0; j < v.queryBits; j++ {
					mathutil.SetBit(data, o+j, mathutil.GetBit(v.query, j))
				}
			}
			edb, err := client.EncryptDatabase(data, v.dbBits)
			if err != nil {
				t.Fatal(err)
			}
			q, err := client.PrepareQuery(v.query, v.queryBits, v.dbBits)
			if err != nil {
				t.Fatal(err)
			}
			// Client-decrypt ground truth: the twin's homomorphic sums shipped
			// back and decrypted, windows compared against the match value t-1.
			tq, err := twin.PrepareQuery(v.query, v.queryBits, v.dbBits)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := core.NewServer(cfg.Params, edb).Search(tq)
			if err != nil {
				t.Fatal(err)
			}
			want := twin.ExtractHits(tq, sr)
			for _, kp := range ring.AvailableKernels() {
				withKernel(t, kp, func() {
					for _, spec := range conformanceSpecs {
						if spec.Kind == core.EngineSSD && params.Q != 1<<32 {
							continue // CM-IFP stores 32 wordlines per coefficient
						}
						eng, err := BuildWith(cfg.Params, edb, spec, ssd.TestConfig(), ssd.SoftwareTransposition)
						if err != nil {
							t.Fatalf("%s: %v", spec, err)
						}
						label := fmt.Sprintf("%s (%s) on the %s kernel", spec, eng.Describe(), kp)
						ir, err := eng.SearchAndIndex(q)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if len(ir.Hits.Residues) != len(want.Residues) {
							t.Fatalf("%s: %d residues, client decrypt has %d", label, len(ir.Hits.Residues), len(want.Residues))
						}
						if !ir.Hits.Equal(want) {
							t.Fatalf("%s: hit records %v differ from client-decrypt ExtractHits %v", label, ir.Hits.Words, want.Words)
						}
						if err := eng.Close(); err != nil {
							t.Fatalf("%s: close: %v", label, err)
						}
					}
				})
			}
		})
	}
}

// TestEngineSaturatedHits is the worst case of the record form: an
// all-zero database searched for an all-zero pattern hits every window
// for every residue. On ParamsToy and a small ParamsPaper database,
// serial, pool:2, pool:3 and the in-flash engine must return the
// client-decrypt twin's hits and candidates, and the CPU engine must
// emit exactly one record per residue per 64-window word — 16 B per
// word where the dense bitmaps held 8 B.
func TestEngineSaturatedHits(t *testing.T) {
	const queryBits, align = 32, 8
	for _, c := range []struct {
		params bfv.Params
		chunks int
	}{{bfv.ParamsToy(), 5}, {bfv.ParamsPaper(), 3}} {
		n := c.params.N
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			cfg := core.Config{Params: c.params, AlignBits: align, Mode: core.ModeSeededMatch}
			client, err := core.NewClient(cfg, rng.NewSourceFromString("saturated"))
			if err != nil {
				t.Fatal(err)
			}
			twinCfg := cfg
			twinCfg.Mode = core.ModeClientDecrypt
			twin, err := core.NewClient(twinCfg, rng.NewSourceFromString("saturated"))
			if err != nil {
				t.Fatal(err)
			}
			dbBits := c.chunks * n * core.SegmentBits
			data := make([]byte, dbBits/8)
			pattern := make([]byte, queryBits/8)
			edb, err := client.EncryptDatabase(data, dbBits)
			if err != nil {
				t.Fatal(err)
			}
			q, err := client.PrepareQuery(pattern, queryBits, dbBits)
			if err != nil {
				t.Fatal(err)
			}
			tq, err := twin.PrepareQuery(pattern, queryBits, dbBits)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := core.NewServer(cfg.Params, edb).Search(tq)
			if err != nil {
				t.Fatal(err)
			}
			want := twin.ExtractHits(tq, sr)
			wantCands := core.Candidates(want, dbBits, queryBits, align)
			if all := core.ExpectedCandidates(data, dbBits, pattern, queryBits, align); !intsEqual(wantCands, all) {
				t.Fatalf("client decrypt found %d candidates, every one of the %d aligned offsets expected", len(wantCands), len(all))
			}
			records := len(q.Residues) * c.chunks * n / 64
			if len(want.Words) != records {
				t.Fatalf("client decrypt hits %d words, want every window of %d residues: %d", len(want.Words), len(q.Residues), records)
			}
			for _, spec := range []core.EngineSpec{
				{Kind: core.EngineSerial},
				{Kind: core.EnginePool, Workers: 2},
				{Kind: core.EnginePool, Workers: 3},
				{Kind: core.EngineSSD},
			} {
				eng, err := BuildWith(cfg.Params, edb, spec, ssd.TestConfig(), ssd.SoftwareTransposition)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				ir, err := eng.SearchAndIndex(q)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				if len(ir.Hits.Words) != records {
					t.Fatalf("%s: %d records, want R·⌈windows/64⌉ = %d", spec, len(ir.Hits.Words), records)
				}
				if !ir.Hits.Equal(want) {
					t.Fatalf("%s: hit records differ from client-decrypt ExtractHits", spec)
				}
				if !intsEqual(ir.Candidates, wantCands) {
					t.Fatalf("%s: %d candidates, client decrypt %d", spec, len(ir.Candidates), len(wantCands))
				}
				ir.Release()
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// withKernel runs f with the ring kernel forced to p, restoring the
// previous path afterwards.
func withKernel(t *testing.T, p ring.KernelPath, f func()) {
	t.Helper()
	prev := ring.ActiveKernel()
	if err := ring.SetKernel(p); err != nil {
		t.Fatal(err)
	}
	defer ring.SetKernel(prev) //nolint:errcheck // prev was active, so it is available
	f()
}

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
	v := conformanceVectors[1]
	cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: v.align, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("stats"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, v.dbBytes)
	edb, err := client.EncryptDatabase(data, v.dbBits)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(v.query, v.queryBits, v.dbBits)
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

// scribblePool draws k record lists from the hit-record pool, fills
// their whole capacity with all-ones records and returns them: a result
// still sharing storage with one just released now reads garbage.
func scribblePool(k int) {
	hws := make([]*core.HitWords, k)
	for i := range hws {
		hws[i] = core.NewHitWords(nil)
		w := hws[i].Words[:cap(hws[i].Words)]
		for j := range w {
			w[j] = ring.HitWord{Word: ^uint32(0), Mask: ^uint64(0)}
		}
	}
	for _, hw := range hws {
		hw.Release()
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
