package ciphermatch

// One benchmark per paper table/figure (each runs the corresponding
// harness experiment), plus micro-benchmarks of the primitive operations
// and ablation benchmarks for the design choices called out in DESIGN.md §6.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/harness"
	"ciphermatch/internal/perfmodel"
	"ciphermatch/internal/pum"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/ssd"
)

// runExperiment executes one harness experiment per iteration; on the
// first iteration the rendered table goes to the benchmark log so that
// `go test -bench` output doubles as the figure reproduction.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	m := perfmodel.NewPaperModel()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(m)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sink tableLogger
			sink.b = b
			if err := tbl.Render(&sink); err != nil {
				b.Fatal(err)
			}
		}
	}
}

type tableLogger struct{ b *testing.B }

func (t *tableLogger) Write(p []byte) (int, error) {
	t.b.Log(string(p))
	return len(p), nil
}

var _ io.Writer = (*tableLogger)(nil)

func BenchmarkTable1(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { runExperiment(b, "table3") }
func BenchmarkFigure2(b *testing.B)  { runExperiment(b, "fig2") }
func BenchmarkFigure3(b *testing.B)  { runExperiment(b, "fig3") }
func BenchmarkFigure7(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkOverhead(b *testing.B) { runExperiment(b, "overhead") }

// --- primitive micro-benchmarks (paper parameters) ---

func benchSetup(b *testing.B) (*bfv.Encoder, *bfv.Encryptor, *bfv.Decryptor, *bfv.Evaluator, *bfv.Ciphertext, *bfv.Ciphertext) {
	b.Helper()
	p := bfv.ParamsPaper()
	src := rng.NewSourceFromString("bench")
	sk, pk := bfv.KeyGen(p, src.Fork("keys"))
	enc := bfv.NewEncoder(p)
	encryptor := bfv.NewEncryptor(p, pk)
	dec := bfv.NewDecryptor(p, sk)
	ev := bfv.NewEvaluator(p)
	msg := make([]uint64, p.N)
	for i := range msg {
		msg[i] = src.Uniform(p.T)
	}
	pt, err := enc.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	ca := encryptor.Encrypt(pt, src.Fork("a"))
	cb := encryptor.Encrypt(pt, src.Fork("b"))
	return enc, encryptor, dec, ev, ca, cb
}

// BenchmarkHomAdd measures the only homomorphic operation CIPHERMATCH
// uses: the per-chunk cost of secure search.
func BenchmarkHomAdd(b *testing.B) {
	_, _, _, ev, ca, cb := benchSetup(b)
	out := ca.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.AddInto(ca, cb, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncrypt(b *testing.B) {
	enc, encryptor, _, _, _, _ := benchSetup(b)
	src := rng.NewSourceFromString("enc-bench")
	pt, _ := enc.Encode(make([]uint64, bfv.ParamsPaper().N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encryptor.Encrypt(pt, src)
	}
}

func BenchmarkDecrypt(b *testing.B) {
	_, _, dec, _, ca, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decrypt(ca)
	}
}

// BenchmarkPuMAdd32 measures one SIMDRAM-style row-wide 32-bit addition
// (65536 parallel lanes).
func BenchmarkPuMAdd32(b *testing.B) {
	bank := pum.NewBank(pum.ExternalDDR4())
	src := rng.NewSourceFromString("pum-bench")
	lanes := bank.Config().RowBits()
	a := make([]uint32, lanes)
	c := make([]uint32, lanes)
	for i := range a {
		a[i] = uint32(src.Uint64())
		c[i] = uint32(src.Uint64())
	}
	if err := bank.WriteVertical(0, a); err != nil {
		b.Fatal(err)
	}
	if err := bank.WriteVertical(32, c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.BitSerialAdd32(0, 32, 64)
	}
}

// BenchmarkEndToEndSearchSW measures a complete software search (1 KiB
// database, 32-bit query, byte alignment) through the public API.
func BenchmarkEndToEndSearchSW(b *testing.B) {
	cfg := Config{Params: ParamsPaper(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, NewSeed("e2e-bench"))
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1024)
	NewSeed("e2e-data").Bytes(data)
	db, err := client.EncryptDatabase(data, len(data)*8)
	if err != nil {
		b.Fatal(err)
	}
	server := NewServer(cfg.Params, db)
	q, err := client.PrepareQuery([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, len(data)*8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.SearchAndIndex(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSearchIFP measures the same search executed inside the
// simulated SSD (functional latch-level homomorphic addition).
func BenchmarkEndToEndSearchIFP(b *testing.B) {
	cfg := Config{Params: ParamsPaper(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, NewSeed("e2e-bench"))
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1024)
	NewSeed("e2e-data").Bytes(data)
	db, err := client.EncryptDatabase(data, len(data)*8)
	if err != nil {
		b.Fatal(err)
	}
	drive, err := NewSSD(DefaultSSDConfig(), cfg.Params, SoftwareTransposition)
	if err != nil {
		b.Fatal(err)
	}
	if err := drive.CMWriteDatabase(db); err != nil {
		b.Fatal(err)
	}
	q, err := client.PrepareQuery([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, len(data)*8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := drive.CMSearch(q); err != nil {
			b.Fatal(err)
		}
	}
}

// clientGeometries are the client-side benchmark shapes: small is the
// standard engine-bench workload (4 KiB database, 2 chunks, byte
// alignment, 32-bit pattern); dna_scan is the bench/ workload of that
// name (4 MiB database, 2 048 chunks, 2-bit alignment, 64-bit pattern,
// 32 phases), large enough for the client's parallel fan-out to show.
var clientGeometries = []struct {
	name      string
	dbBytes   int
	alignBits int
	pattern   []byte
}{
	{"small", 4096, 8, []byte{0xDE, 0xAD, 0xBE, 0xEF}},
	{"dna_scan", 4 << 20, 2, []byte{0x1B, 0xE4, 0x4E, 0xB1, 0x72, 0x8D, 0xC6, 0x39}},
}

// BenchmarkPrepareQuery measures client-side query preparation. cold
// prepares on a new Client each op (made outside the timer), so the
// token plane is derived: one EncryptC0To per chunk, not one per
// (residue, chunk), plus the closed-form RHS rows. warm prepares on a
// client primed by one untimed query, so its memo already holds the
// plane and only the phase encodings and RHS rows remain: a seeded
// query encrypts nothing.
func BenchmarkPrepareQuery(b *testing.B) {
	for _, g := range clientGeometries {
		cfg := Config{Params: ParamsPaper(), AlignBits: g.alignBits, Mode: ModeSeededMatch}
		newClient := func(b *testing.B) *Client {
			client, err := NewClient(cfg, NewSeed("prep-bench"))
			if err != nil {
				b.Fatal(err)
			}
			return client
		}
		prepare := func(b *testing.B, client *Client) {
			if _, err := client.PrepareQuery(g.pattern, 8*len(g.pattern), 8*g.dbBytes); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(g.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				client := newClient(b)
				b.StartTimer()
				prepare(b, client)
			}
		})
		b.Run(g.name+"/warm", func(b *testing.B) {
			client := newClient(b)
			prepare(b, client)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prepare(b, client)
			}
		})
	}
}

// BenchmarkEncryptDatabase measures the data owner's upload-side
// encryption (pack, encode and encrypt every chunk straight into the
// database arena) at the dna_scan geometry.
func BenchmarkEncryptDatabase(b *testing.B) {
	g := clientGeometries[1]
	b.Run(g.name, func(b *testing.B) {
		client, err := NewClient(Config{Params: ParamsPaper(), AlignBits: g.alignBits}, NewSeed("encdb-bench"))
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, g.dbBytes)
		NewSeed("encdb-data").Bytes(data)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := client.EncryptDatabase(data, 8*len(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngine runs the standard fixed workload (4 KiB database,
// 32-bit query, byte alignment, seeded-match mode, see
// harness.NewEngineBenchFixture) through every execution engine, the
// way the paper compares CPU, PuM and flash on one algorithm. The
// serving-scale numbers are bench/'s workloads; this is the in-process
// per-search cost without wire or store.
func BenchmarkEngine(b *testing.B) {
	cfg, db, q, err := harness.NewEngineBenchFixture()
	if err != nil {
		b.Fatal(err)
	}
	specs := []string{"serial", "pool", "ssd"}
	for _, specStr := range specs {
		b.Run(specStr, func(b *testing.B) {
			benchEngineSpec(b, cfg, db, q, specStr)
		})
	}
	// The large fixture (128 KiB database, 64 chunks, 1 MiB arena)
	// streams from memory instead of cache; the pool-vs-serial
	// crossover lives between the two sizes (see DESIGN.md §4.4).
	lcfg, ldb, lq, err := harness.NewEngineBenchLargeFixture()
	if err != nil {
		b.Fatal(err)
	}
	for _, specStr := range specs {
		b.Run("large/"+specStr, func(b *testing.B) {
			benchEngineSpec(b, lcfg, ldb, lq, specStr)
		})
	}
}

func benchEngineSpec(b *testing.B, cfg core.Config, db *core.EncryptedDB, q *core.Query, specStr string) {
	spec, err := ParseEngineSpec(specStr)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(cfg.Params, db, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir, err := eng.SearchAndIndex(q)
		if err != nil {
			b.Fatal(err)
		}
		// Recycle the hit records the way the wire server does
		// after encoding, so the steady state exercises the
		// record pool rather than the allocator.
		ir.Release()
	}
	b.StopTimer()
	_ = eng.Close()
}

// BenchmarkEngineBatch compares the batched multi-query pipeline
// against sequential execution: 8 in-flight queries answered by one
// SearchAndIndexBatch pass versus 8 SearchAndIndex calls, per engine
// kind. The batch models a production stream against a hot database —
// 2 distinct patterns each issued by 4 users — so the pipeline's two
// levers both engage: one chunk walk amortised across the batch, and
// pattern-ciphertext dedup collapsing repeated queries (seed-derived
// pattern randomness makes equal queries byte-identical). The SSD kind
// runs members back to back on its controller, so its pair is expected
// to tie.
func BenchmarkEngineBatch(b *testing.B) {
	cfg := Config{Params: ParamsPaper(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, NewSeed("engine-batch-bench"))
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4096)
	NewSeed("engine-batch-bench-data").Bytes(data)
	db, err := client.EncryptDatabase(data, len(data)*8)
	if err != nil {
		b.Fatal(err)
	}
	patterns := [][]byte{{0xDE, 0xAD, 0xBE, 0xEF}, {0xCA, 0xFE, 0xBA, 0xBE}}
	queries := make([]*Query, 8)
	for i := range queries {
		if queries[i], err = client.PrepareQuery(patterns[i%len(patterns)], 32, len(data)*8); err != nil {
			b.Fatal(err)
		}
	}
	bq := NewBatchQuery(queries...)
	for _, specStr := range []string{"serial", "pool", "ssd"} {
		spec, err := ParseEngineSpec(specStr)
		if err != nil {
			b.Fatal(err)
		}
		newEngine := func(b *testing.B) Engine {
			eng, err := NewEngine(cfg.Params, db, spec)
			if err != nil {
				b.Fatal(err)
			}
			return eng
		}
		b.Run(specStr+"/batch-8", func(b *testing.B) {
			eng := newEngine(b)
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SearchAndIndexBatch(bq); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(specStr+"/sequential-8", func(b *testing.B) {
			eng := newEngine(b)
			defer eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := eng.SearchAndIndex(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- ablation benchmarks (DESIGN.md §6) ---

// BenchmarkAblationPolyMul compares the negacyclic multiplication
// algorithms at the paper's ring degree: schoolbook and Karatsuba at
// q = 2^32, the exact auxiliary-prime NTT product Ring.Mul takes there when
// one factor is ternary (encryption's public key × ephemeral), and the NTT
// at a prime modulus.
func BenchmarkAblationPolyMul(b *testing.B) {
	r := ring.MustNew(1024, 1<<32)
	src := rng.NewSourceFromString("polymul")
	x := r.NewPoly()
	y := r.NewPoly()
	r.UniformPoly(src, x)
	r.UniformPoly(src, y)
	out := r.NewPoly()
	b.Run("schoolbook", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.MulSchoolbook(x, y, out)
		}
	})
	b.Run("karatsuba", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.MulKaratsuba(x, y, out)
		}
	})
	// NTT at a prime modulus of comparable size (the SEAL-style regime).
	q, err := ring.FindNTTPrime(33, 1024)
	if err != nil {
		b.Fatal(err)
	}
	rp := ring.MustNew(1024, q)
	xp := rp.NewPoly()
	yp := rp.NewPoly()
	rp.UniformPoly(src, xp)
	rp.UniformPoly(src, yp)
	outP := rp.NewPoly()
	b.Run("ntt-prime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rp.MulNTT(xp, yp, outP)
		}
	})
	u := r.NewPoly()
	r.TernaryPoly(src, u)
	b.Run("aux-ntt-ternary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Mul(x, u, out)
		}
	})
}

// BenchmarkAblationPackingWidth quantifies the memory-footprint effect of
// the packing width (the paper's core software contribution): 1-bit
// (Yasuda) vs 16-bit (CIPHERMATCH) vs per-bit Boolean, from the
// performance model's footprint (the one Fig. 2a plots).
func BenchmarkAblationPackingWidth(b *testing.B) {
	m := perfmodel.NewPaperModel()
	w := perfmodel.Workload{PlainBits: 1 << 23, QueryBits: 16}
	var cm, ya, bo int64
	for i := 0; i < b.N; i++ {
		cm, ya, bo = m.CMEncryptedBytes(w), m.ArithEncryptedBytes(w), m.BooleanEncryptedBytes(w)
	}
	plain := float64(w.PlainBits / 8)
	b.ReportMetric(float64(cm)/plain, "cm-expansion-x")
	b.ReportMetric(float64(ya)/plain, "yasuda-expansion-x")
	b.ReportMetric(float64(bo)/plain, "boolean-expansion-x")
}

// BenchmarkAblationTransposition compares the software (13.6 µs/4KiB) and
// hardware (158 ns/4KiB, §7.1) transposition units on a CM-search.
func BenchmarkAblationTransposition(b *testing.B) {
	for _, kind := range []struct {
		name string
		k    ssd.TranspositionKind
	}{{"software", ssd.SoftwareTransposition}, {"hardware", ssd.HardwareTransposition}} {
		b.Run(kind.name, func(b *testing.B) {
			cfg := DefaultSSDConfig()
			lat := cfg.TransposeLatency(kind.k)
			for i := 0; i < b.N; i++ {
				_ = lat
			}
			b.ReportMetric(float64(lat.Nanoseconds()), "ns-per-4KiB-page")
		})
	}
}

// BenchmarkAblationIndexGen compares the two index-generation modes
// end to end: client-side decryption vs server-side token comparison.
func BenchmarkAblationIndexGen(b *testing.B) {
	data := make([]byte, 2048)
	NewSeed("idxgen-data").Bytes(data)
	query := []byte{0x13, 0x37, 0x42, 0x24}
	for _, mode := range []struct {
		name string
		m    IndexMode
	}{{"client-decrypt", ModeClientDecrypt}, {"seeded-match", ModeSeededMatch}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{Params: ParamsPaper(), AlignBits: 8, Mode: mode.m}
			client, err := NewClient(cfg, NewSeed("idxgen"))
			if err != nil {
				b.Fatal(err)
			}
			db, err := client.EncryptDatabase(data, len(data)*8)
			if err != nil {
				b.Fatal(err)
			}
			server := NewServer(cfg.Params, db)
			q, err := client.PrepareQuery(query, 32, len(data)*8)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.m == ModeSeededMatch {
					if _, err := server.SearchAndIndex(q); err != nil {
						b.Fatal(err)
					}
					continue
				}
				sr, err := server.Search(q)
				if err != nil {
					b.Fatal(err)
				}
				hits := client.ExtractHits(q, sr)
				Candidates(hits, len(data)*8, 32, 8)
			}
		})
	}
}

// BenchmarkAblationShiftAlignment quantifies how the occurrence-alignment
// guarantee changes query cost: variants = y / gcd(align, y).
func BenchmarkAblationShiftAlignment(b *testing.B) {
	data := make([]byte, 2048)
	NewSeed("align-data").Bytes(data)
	query := []byte{0xCA, 0xFE, 0xBA, 0xBE}
	for _, align := range []int{1, 2, 8, 16} {
		b.Run(fmt.Sprintf("align-%d", align), func(b *testing.B) {
			cfg := Config{Params: ParamsPaper(), AlignBits: align, Mode: ModeSeededMatch}
			client, err := NewClient(cfg, NewSeed("align"))
			if err != nil {
				b.Fatal(err)
			}
			db, err := client.EncryptDatabase(data, len(data)*8)
			if err != nil {
				b.Fatal(err)
			}
			server := NewServer(cfg.Params, db)
			q, err := client.PrepareQuery(query, 32, len(data)*8)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(q.Residues)), "shift-variants")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := server.SearchAndIndex(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
