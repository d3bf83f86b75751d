package engine

import (
	"fmt"
	"slices"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/fault"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/segment"
	"ciphermatch/internal/ssd"
)

// TestConformance is the conformance matrix: CIPHERMATCH's claim that
// one addition-only search returns the same matches on every substrate,
// checked cell by cell. Each row is a fixture (parameters, a database
// with planted occurrences, patterns, alignment); its oracle is the
// client-decrypt twin's hits — Server.Search's homomorphic sums,
// decrypted and compared against t−1 by ExtractHits — computed once and
// held to the plaintext reference (ExpectedCandidates) and the plants.
// Every cell then runs one column against it:
//
//	<row>/<engine>/<kernel>/<shape>/<residency>
//
// engine is serial, pool:1–4 or pool (GOMAXPROCS), and ssd where
// q = 2^32; kernel is every ring.AvailableKernels path, forced for the
// CPU engines (the drive runs its own bit-serial sweep); shape is solo
// or batch; residency is the arena as encrypted, or reloaded from a
// sealed segment through mmap or through the copy loader. Two more
// columns per row run first: <row>/oracle holds the oracle to the
// plaintext, and the cells run only if it holds; <row>/reference
// replays core.FactorQuery through the 64-bit ring.SubCmpMultiBits,
// the plane form bench/ times.
func TestConformance(t *testing.T) {
	for _, r := range conformanceRows() {
		t.Run(r.name, func(t *testing.T) {
			if r.long && testing.Short() {
				t.Skip("random case in short mode")
			}
			f := newFixture(t, r)
			if !t.Run("oracle", f.checkOracle) {
				return
			}
			t.Run("reference", f.reference)
			for _, res := range f.residencies(t) {
				for _, spec := range conformanceSpecs {
					if spec.Kind == core.EngineSSD && r.params.Q != 1<<32 {
						continue // the drive stores 32 wordlines per coefficient
					}
					f.runEngine(t, spec, res)
				}
			}
		})
	}
}

// conformanceSpecs lists every engine configuration in the matrix:
// the CPU engine inline (serial, pool:1) and fanned out over chunk
// ranges, and the in-flash simulator.
var conformanceSpecs = []core.EngineSpec{
	{Kind: core.EngineSerial},
	{Kind: core.EnginePool, Workers: 1},
	{Kind: core.EnginePool, Workers: 2},
	{Kind: core.EnginePool, Workers: 3},
	{Kind: core.EnginePool, Workers: 4},
	{Kind: core.EnginePool},
	{Kind: core.EngineSSD},
}

// conformanceRow is one fixture: a database of dbBits with query
// planted at every offset of plants, searched for the query's prefixes
// of each length in lengths, candidates aligned to align bits.
type conformanceRow struct {
	name    string
	params  bfv.Params
	data    []byte
	dbBits  int
	query   []byte
	lengths []int
	align   int
	plants  []int
	// saturated rows search an all-zero database for zeros: every
	// window of every residue is a hit.
	saturated bool
	// long rows are skipped under -short.
	long bool
}

// conformanceRows builds every row of the matrix.
func conformanceRows() []conformanceRow {
	toy, n2048, paper := bfv.ParamsToy(), bfv.ParamsN2048(), bfv.ParamsPaper()
	var rows []conformanceRow
	// The four end-to-end vectors: one chunk, occurrences spanning chunk
	// boundaries, bit alignment, and segment alignment, where every
	// window is whole and candidates are the true occurrences.
	for _, p := range []struct {
		label  string
		params bfv.Params
	}{{"toy", toy}, {"n2048", n2048}} {
		rows = append(rows,
			plantedRow(p.label+"/single-chunk", p.params, 512, []byte{0xDE, 0xAD, 0xBE, 0xEF}, []int{32}, 8, 0, 128, 264),
			plantedRow(p.label+"/chunk-boundary", p.params, 2304, []byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC}, []int{48}, 8, 1000, 2048),
			plantedRow(p.label+"/bit-aligned", p.params, 320, []byte{0xF0, 0x0D, 0xFA, 0xCE}, []int{32}, 1, 13),
			plantedRow(p.label+"/segment-aligned", p.params, 1024, []byte{0xCA, 0xFE, 0xBA, 0xBE}, []int{32}, 16, 64, 512),
		)
	}
	// Saturation: the worst case of the record form, one record per
	// residue per 64-window word.
	for _, s := range []struct {
		label  string
		params bfv.Params
		chunks int
	}{{"toy", toy, 5}, {"paper", paper, 3}} {
		dbBits := s.chunks * s.params.N * core.SegmentBits
		rows = append(rows, conformanceRow{
			name: s.label + "/saturated", params: s.params, data: make([]byte, dbBits/8), dbBits: dbBits,
			query: make([]byte, 4), lengths: []int{32}, align: 8, saturated: true,
		})
	}
	// The kernel's tiles (ring.TileChunks): one chunk past a tile and
	// several tiles plus a part at the toy ring, one past a tile at
	// n = 2048, with an occurrence across every tile edge. 48 does not
	// divide a chunk's 16n bits, so neighbouring chunks of a tile
	// compare against different comparand rows, and with 32 the batch
	// holds two plane groups.
	tileQuery := []byte{0x5A, 0xC3, 0x0F, 0xF0, 0x96, 0x69}
	for _, s := range []struct {
		label  string
		params bfv.Params
		chunks int
	}{
		{"toy", toy, ring.TileChunks(64) + 1},
		{"toy", toy, 3*ring.TileChunks(64) + 5},
		{"n2048", n2048, ring.TileChunks(2048) + 1},
	} {
		chunkBits := core.SegmentBits * s.params.N
		dbBits := s.chunks * chunkBits
		plants := []int{8}
		for j := ring.TileChunks(s.params.N); j < s.chunks; j += ring.TileChunks(s.params.N) {
			plants = append(plants, j*chunkBits-24)
		}
		plants = append(plants, dbBits-48)
		rows = append(rows, plantedRow(fmt.Sprintf("%s/tile-%d", s.label, s.chunks), s.params, dbBits, tileQuery, []int{32, 48}, 8, plants...))
	}
	// The pool's chunk ranges: 24 chunks with an occurrence whose full
	// windows straddle every chunk edge, so every range pool:2–4 cuts
	// has one across its edge.
	const rangeChunks = 24
	chunkBits := core.SegmentBits * toy.N
	var plants []int
	for k := 1; k < rangeChunks; k++ {
		plants = append(plants, k*chunkBits-core.SegmentBits)
	}
	rows = append(rows, plantedRow(fmt.Sprintf("toy/pool-ranges-%d", rangeChunks), toy, rangeChunks*chunkBits, tileQuery, []int{48, 32}, 8, plants...))
	// Seeded random cases: database and pattern sizes, lengths that are
	// not whole bytes, alignments from one bit to one segment, and one
	// occurrence at a random aligned offset.
	for _, seed := range []string{"p1", "p2", "p3", "p4"} {
		src := rng.NewSourceFromString("gen-" + seed)
		dbBytes := 32 + src.Intn(64)
		data := make([]byte, dbBytes)
		src.Bytes(data)
		query := make([]byte, 2+src.Intn(4))
		src.Bytes(query)
		y := len(query)*8 - src.Intn(8)
		align := []int{1, 2, 8, 16}[src.Intn(4)]
		r := conformanceRow{
			name: "toy/random-" + seed, params: toy, data: data, dbBits: dbBytes * 8,
			query: query, lengths: []int{y}, align: align, long: true,
		}
		if maxO := r.dbBits - y; maxO > 0 {
			o := src.Intn(maxO) / align * align
			plant(r.data, query, y, o)
			if core.Detectable(o, y) {
				r.plants = []int{o}
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// plantedRow is a row over a random database of dbBits with query's
// longest prefix planted at each offset of plants.
func plantedRow(name string, params bfv.Params, dbBits int, query []byte, lengths []int, align int, plants ...int) conformanceRow {
	data := make([]byte, dbBits/8)
	rng.NewSourceFromString("conformance-data-" + name).Bytes(data)
	for _, o := range plants {
		plant(data, query, slices.Max(lengths), o)
	}
	return conformanceRow{name: name, params: params, data: data, dbBits: dbBits,
		query: query, lengths: lengths, align: align, plants: plants}
}

// plant copies the first bits of query into data at bit offset o.
func plant(data, query []byte, bits, o int) {
	for j := 0; j < bits; j++ {
		mathutil.SetBit(data, o+j, mathutil.GetBit(query, j))
	}
}

// conformanceFixture is a row built once: its encrypted database, one
// seeded query per length with its oracle, and the batch members.
type conformanceFixture struct {
	conformanceRow
	edb     *core.EncryptedDB
	queries []*core.Query
	// oracle[i] and cands[i] are queries[i]'s client-decrypt hits and
	// their candidates.
	oracle []*core.HitWords
	cands  [][]int
	// members is the batch: the queries, a separately prepared
	// duplicate, the first query twice, a second client's query and
	// queries moved onto DBTok planes of their own. solos[mi] is the
	// serial engine's search of members[mi] alone, and soloAdds the sum
	// of their HomAdds. bq batches the members.
	members  []*core.Query
	solos    []*core.IndexResult
	soloAdds int
	bq       *core.BatchQuery
}

// newFixture builds row r once: it encrypts the database, computes
// each query's oracle, and runs each batch member alone on the serial
// engine.
func newFixture(t *testing.T, r conformanceRow) *conformanceFixture {
	t.Helper()
	cfg := core.Config{Params: r.params, AlignBits: r.align, Mode: core.ModeSeededMatch}
	seed := "conformance-" + r.name
	client, err := core.NewClient(cfg, rng.NewSourceFromString(seed))
	if err != nil {
		t.Fatal(err)
	}
	// The twin shares the seed, so it holds the same keys and encrypts a
	// byte-identical database; it never builds tokens.
	twinCfg := cfg
	twinCfg.Mode = core.ModeClientDecrypt
	twin, err := core.NewClient(twinCfg, rng.NewSourceFromString(seed))
	if err != nil {
		t.Fatal(err)
	}
	f := &conformanceFixture{conformanceRow: r}
	if f.edb, err = client.EncryptDatabase(r.data, r.dbBits); err != nil {
		t.Fatal(err)
	}
	prepare := func(c *core.Client, pat []byte, bits int) *core.Query {
		q, err := c.PrepareQuery(pat, bits, r.dbBits)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, y := range r.lengths {
		q := prepare(client, r.query, y)
		tq := prepare(twin, r.query, y)
		sr, err := core.NewServer(r.params, f.edb).Search(tq)
		if err != nil {
			t.Fatal(err)
		}
		hits := twin.ExtractHits(tq, sr)
		t.Cleanup(hits.Release)
		cands := core.Candidates(hits, r.dbBits, y, r.align)
		f.queries, f.oracle, f.cands = append(f.queries, q), append(f.oracle, hits), append(f.cands, cands)
	}

	other, err := core.NewClient(cfg, rng.NewSourceFromString(seed+"-other"))
	if err != nil {
		t.Fatal(err)
	}
	at, y0 := 0, r.lengths[0]
	if len(r.plants) > 0 && r.plants[0]+59 <= r.dbBits {
		at = r.plants[0]
	}
	// window returns bits [at, at+bits) of the database: a pattern that
	// occurs at offset at.
	window := func(bits int) []byte {
		pat := make([]byte, (bits+7)/8)
		for j := 0; j < bits; j++ {
			mathutil.SetBit(pat, j, mathutil.GetBit(r.data, at+j))
		}
		return pat
	}
	f.members = append(slices.Clone(f.queries),
		prepare(client, r.query, y0), // duplicate content, separately prepared
		f.queries[0],                 // the same query twice
		// A second client: its own DBTok plane and no hits here, so a
		// member evaluated on the wrong plane shows.
		prepare(other, r.query, y0),
		remask(r.params, f.queries[0], "plane-b"),
	)
	// Two lengths on each remasked plane, among them 57 and 59, whose
	// chunk phases never repeat within a database. mustHit names the
	// offset such a member must find.
	mustHit := make(map[int]int)
	for _, w := range []struct {
		bits  int
		plane string
	}{{25, "plane-b"}, {57, "plane-c"}, {59, "plane-c"}} {
		if at%r.align == 0 && core.Detectable(at, w.bits) {
			mustHit[len(f.members)] = at
		}
		f.members = append(f.members, remask(r.params, prepare(client, window(w.bits), w.bits), w.plane))
	}
	serial, err := BuildWith(r.params, f.edb, core.EngineSpec{Kind: core.EngineSerial}, ssd.TestConfig(), ssd.SoftwareTransposition)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close() //nolint:errcheck
	for mi, q := range f.members {
		ir, err := serial.SearchAndIndex(q)
		if err != nil {
			t.Fatalf("member %d: %v", mi, err)
		}
		t.Cleanup(ir.Release)
		if at, ok := mustHit[mi]; ok && !slices.Contains(ir.Candidates, at) {
			t.Fatalf("member %d: occurrence %d missing from %v; the batch is vacuous", mi, at, ir.Candidates)
		}
		f.solos, f.soloAdds = append(f.solos, ir), f.soloAdds+ir.Stats.HomAdds
	}
	f.bq = core.NewBatchQuery(f.members...)
	return f
}

// checkOracle holds each query's client-decrypt hits to the plaintext:
// the candidates equal ExpectedCandidates, every plant is one of them,
// with whole windows they are the true occurrences, and on a saturated
// row every residue hits every word.
func (f *conformanceFixture) checkOracle(t *testing.T) {
	for i, q := range f.queries {
		hits, cands := f.oracle[i], f.cands[i]
		if len(hits.Residues) != len(q.Residues) {
			t.Fatalf("y=%d: client decrypt has %d residues, the seeded query %d", q.YBits, len(hits.Residues), len(q.Residues))
		}
		if want := core.ExpectedCandidates(f.data, f.dbBits, f.query, q.YBits, f.align); !slices.Equal(cands, want) {
			t.Fatalf("y=%d: client-decrypt candidates %v, plain reference %v", q.YBits, cands, want)
		}
		for _, o := range f.plants {
			if !slices.Contains(cands, o) {
				t.Fatalf("y=%d: planted occurrence %d missing from %v; the row is vacuous", q.YBits, o, cands)
			}
		}
		if f.align%core.SegmentBits == 0 && q.YBits%core.SegmentBits == 0 {
			if truth := core.FindOccurrences(f.data, f.dbBits, f.query, q.YBits, f.align); !slices.Equal(cands, truth) {
				t.Fatalf("y=%d: segment-aligned candidates %v, true occurrences %v", q.YBits, cands, truth)
			}
		}
		if records := len(q.Residues) * f.dbBits / core.SegmentBits / 64; f.saturated && len(hits.Words) != records {
			t.Fatalf("y=%d: client decrypt hits %d words, want R·windows/64 = %d", q.YBits, len(hits.Words), records)
		}
	}
}

// remask moves q onto a DBTok plane of its own, as a user holding the
// owner's keys with a different mask M' would: c0 − DBTok and RHS both
// shift by M', so the hits are unchanged.
func remask(params bfv.Params, q *core.Query, seed string) *core.Query {
	r := params.Ring()
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

// reference replays each query through core.FactorQuery and the 64-bit
// ring.SubCmpMultiBits, one chunk at a time into dense bitsets, and
// requires their nonzero words to be the oracle's records.
func (f *conformanceFixture) reference(t *testing.T) {
	r, n := f.params.Ring(), f.params.N
	for i, q := range f.queries {
		fq, err := core.FactorQuery(r, q, len(f.edb.Chunks))
		if err != nil {
			t.Fatal(err)
		}
		words := make([][]uint64, len(q.Residues))
		for v := range words {
			words[v] = make([]uint64, len(f.edb.Chunks)*n/64)
		}
		for j, chunk := range f.edb.Chunks {
			r.SubCmpMultiBits(chunk.C[0], fq.DBTok[j], fq.Row(core.ChunkPhi(n, j, q.YBits)), words, j*n)
		}
		got := &core.HitWords{Residues: q.Residues}
		for w := range words[0] {
			for v := range words {
				if m := words[v][w]; m != 0 {
					got.Words = append(got.Words, ring.HitWord{Word: uint32(w), Row: uint32(v), Mask: m})
				}
			}
		}
		if !got.Equal(f.oracle[i]) {
			t.Fatalf("y=%d: reference records %v, client decrypt %v", q.YBits, got.Words, f.oracle[i].Words)
		}
	}
}

// residency is one state of the arena an engine is built over.
type residency struct {
	name string
	db   *core.EncryptedDB
}

// residencies returns the arena as encrypted, and as reloaded from a
// sealed segment through mmap and through the copy loader (a fault FS
// on which every mmap fails).
func (f *conformanceFixture) residencies(t *testing.T) []residency {
	t.Helper()
	root := t.TempDir()
	dir, err := segment.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	const name = "conformance"
	meta := segment.Meta{Name: name, RingDegree: f.params.N, Modulus: f.params.Q, Chunks: len(f.edb.Chunks),
		BitLen: f.edb.BitLen, NumSegments: f.edb.NumSegments}
	if _, err := dir.SaveSealed(meta, f.edb); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Config{Seed: "conformance", MmapFail: true})
	reg := metrics.NewRegistry()
	inj.Bind(reg)
	copyDir, err := segment.OpenDirFS(inj.FS(segment.OSFS{}), root)
	if err != nil {
		t.Fatal(err)
	}
	out := []residency{{"encrypted", f.edb}}
	for _, d := range []struct {
		name string
		dir  *segment.Dir
	}{{"reloaded-mmap", dir}, {"reloaded-copy", copyDir}} {
		seg, err := d.dir.Load(name, f.params.N, f.params.Q)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		t.Cleanup(func() { seg.Close() }) //nolint:errcheck
		db, err := seg.DB()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		out = append(out, residency{d.name, db})
	}
	if fails, _ := metrics.Lookup(reg.Snapshot(), "fault_mmap_fails_total"); fails != 1 {
		t.Fatalf("the copy loader's fault FS refused %d mmaps, want 1", fails)
	}
	return out
}

// runEngine builds spec over res and runs its cells: every kernel path
// (the drive has one), each shape.
func (f *conformanceFixture) runEngine(t *testing.T, spec core.EngineSpec, res residency) {
	eng, err := BuildWith(f.params, res.db, spec, ssd.TestConfig(), ssd.SoftwareTransposition)
	if err != nil {
		t.Fatalf("%s/%s: %v", spec, res.name, err)
	}
	cpu := spec.Kind != core.EngineSSD
	kernels := ring.AvailableKernels()
	if !cpu {
		kernels = []ring.KernelPath{ring.ActiveKernel()}
	}
	for _, kp := range kernels {
		kernel := kp.String()
		if !cpu {
			kernel = "bit-serial" // the drive's own sweep; the ring kernel is unused
		}
		for _, shape := range []struct {
			name string
			run  func(*testing.T)
		}{
			{"solo", func(t *testing.T) { f.solo(t, eng) }},
			{"batch", func(t *testing.T) { f.batch(t, eng, cpu) }},
		} {
			t.Run(fmt.Sprintf("%s/%s/%s/%s", spec, kernel, shape.name, res.name), func(t *testing.T) {
				withKernel(t, kp, func() { shape.run(t) })
			})
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("%s/%s: close: %v", spec, res.name, err)
	}
}

// solo searches each query alone and holds the result to the oracle.
func (f *conformanceFixture) solo(t *testing.T, eng core.Engine) {
	for i, q := range f.queries {
		ir, err := eng.SearchAndIndex(q)
		if err != nil {
			t.Fatalf("y=%d: %v", q.YBits, err)
		}
		if len(ir.Hits.Residues) != len(f.oracle[i].Residues) || !ir.Hits.Equal(f.oracle[i]) {
			t.Fatalf("y=%d: records %v, client decrypt %v", q.YBits, ir.Hits.Words, f.oracle[i].Words)
		}
		if !slices.Equal(ir.Candidates, f.cands[i]) || !slices.IsSorted(ir.Candidates) {
			t.Fatalf("y=%d: candidates %v, client decrypt %v", q.YBits, ir.Candidates, f.cands[i])
		}
		if want := f.solos[i].Stats.HomAdds; ir.Stats.HomAdds != want {
			t.Fatalf("y=%d: HomAdds %d, serial %d", q.YBits, ir.Stats.HomAdds, want)
		}
		if ir.Stats.CoeffCompares <= 0 {
			t.Fatalf("y=%d: no coefficient comparisons recorded", q.YBits)
		}
		ir.Release()
	}
}

// batch searches the members as one batch and holds each to serial's
// search of it alone. Results are released in reverse member order, so
// each duplicate returns to the pool before its original is compared.
// A CPU batch shares the duplicates' plane work, so it must do strictly
// fewer HomAdds than the solo searches.
func (f *conformanceFixture) batch(t *testing.T, eng core.Engine, cpu bool) {
	irs, err := eng.SearchAndIndexBatch(f.bq)
	if err != nil {
		t.Fatal(err)
	}
	if len(irs) != len(f.members) {
		t.Fatalf("%d results for %d members", len(irs), len(f.members))
	}
	batchAdds := 0
	for mi := len(f.members) - 1; mi >= 0; mi-- {
		got, want := irs[mi], f.solos[mi]
		if !slices.Equal(got.Candidates, want.Candidates) {
			t.Fatalf("member %d: batch candidates %v, solo %v", mi, got.Candidates, want.Candidates)
		}
		if !got.Hits.Equal(want.Hits) {
			t.Fatalf("member %d: batch records %v, solo %v", mi, got.Hits.Words, want.Hits.Words)
		}
		batchAdds += got.Stats.HomAdds
		got.Release()
		scribblePool(2)
	}
	if cpu && batchAdds >= f.soloAdds {
		t.Fatalf("batch did %d HomAdds, solo %d: sharing the duplicates' planes saved nothing", batchAdds, f.soloAdds)
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
