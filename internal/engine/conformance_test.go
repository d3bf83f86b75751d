package engine

import (
	"fmt"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
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
// reference as ground truth.
func TestEngineConformance(t *testing.T) {
	for _, v := range conformanceVectors {
		t.Run(v.name, func(t *testing.T) {
			cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: v.align, Mode: core.ModeSeededMatch}
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
				for res, bm := range ref.Hits {
					got := ir.Hits[res]
					if got.Len() != bm.Len() {
						t.Fatalf("%s: residue %d bitmap length %d != %d", label, res, got.Len(), bm.Len())
					}
					for w := 0; w < bm.Len(); w++ {
						if bm.Get(w) != got.Get(w) {
							t.Fatalf("%s: residue %d window %d differs from serial", label, res, w)
						}
					}
				}
				if err := eng.Close(); err != nil {
					t.Fatalf("%s: close: %v", label, err)
				}
			}
		})
	}
}

// TestEngineBatchConformance proves the batch pipeline's correctness
// contract on every engine configuration: SearchAndIndexBatch returns
// bitmaps and candidates identical to per-member SearchAndIndex calls
// on the same engine. The batch mixes member lengths (all members share one DBTok
// plane) and includes a duplicate of member 0 prepared separately, so
// token dedup across members is exercised, and the CPU engine must
// demonstrably save homomorphic additions from it.
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
	prepare := func(pat []byte, bits int) *core.Query {
		q, err := client.PrepareQuery(pat, bits, v.dbBits)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	members := []*core.Query{
		prepare(v.query, v.queryBits),
		prepare([]byte{0x0F, 0xF0, 0x55, 0xAA}, 32),
		prepare(v.query, v.queryBits), // duplicate content, separately prepared
	}
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
		for mi, q := range members {
			want, err := eng.SearchAndIndex(q)
			if err != nil {
				t.Fatalf("%s: member %d: %v", label, mi, err)
			}
			got := irs[mi]
			if !intsEqual(got.Candidates, want.Candidates) {
				t.Fatalf("%s: member %d: batch candidates %v != sequential %v", label, mi, got.Candidates, want.Candidates)
			}
			for res, bm := range want.Hits {
				gbm := got.Hits[res]
				if gbm.Len() != bm.Len() {
					t.Fatalf("%s: member %d residue %d: bitmap length %d != %d", label, mi, res, gbm.Len(), bm.Len())
				}
				for w := 0; w < bm.Len(); w++ {
					if bm.Get(w) != gbm.Get(w) {
						t.Fatalf("%s: member %d residue %d window %d: batch differs from sequential", label, mi, res, w)
					}
				}
			}
			batchAdds += got.Stats.HomAdds
			seqAdds += want.Stats.HomAdds
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
// engine's seeded-match bitmaps (ring.SubCmpMultiBits against match tokens)
// must equal the client-decrypt bitmaps (Server.Search result
// ciphertexts decrypted and compared against t-1 by ExtractHits). This
// pins the fused kernel to the cryptographic ground truth, not just to
// the other engines.
func TestEngineHitsMatchClientDecrypt(t *testing.T) {
	v := conformanceVectors[1] // chunk-boundary: multi-chunk database
	cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: v.align, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("decrypt-conf"))
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
	// Client-decrypt ground truth: homomorphic sums shipped back and
	// decrypted, windows compared against the match value t-1.
	server := core.NewServer(cfg.Params, edb)
	sr, err := server.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	want := client.ExtractHits(q, sr)

	for _, spec := range conformanceSpecs {
		eng, err := BuildWith(cfg.Params, edb, spec, ssd.TestConfig(), ssd.SoftwareTransposition)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		label := fmt.Sprintf("%s (%s)", spec, eng.Describe())
		ir, err := eng.SearchAndIndex(q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(ir.Hits) != len(want) {
			t.Fatalf("%s: %d bitmaps, client decrypt has %d", label, len(ir.Hits), len(want))
		}
		for res, wbm := range want {
			gbm := ir.Hits[res]
			if gbm == nil || !gbm.Equal(wbm) {
				t.Fatalf("%s: residue %d bitmap differs from client-decrypt ExtractHits", label, res)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
	}
}

// TestEngineStatsAccumulate checks the cumulative Stats contract across
// repeated searches for each substrate.
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
		if _, err := eng.SearchAndIndex(q); err != nil {
			t.Fatal(err)
		}
		if got, want := eng.Stats().HomAdds, 2*ir.Stats.HomAdds; got != want {
			t.Errorf("%s: cumulative HomAdds = %d, want %d", eng.Describe(), got, want)
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
