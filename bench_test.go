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
	"ciphermatch/internal/flash"
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

// BenchmarkHomMul measures the operation the CIPHERMATCH algorithm
// eliminates (Key Takeaway 1) at the arithmetic baseline's parameters.
func BenchmarkHomMul(b *testing.B) {
	p := bfv.ParamsArithBaseline()
	src := rng.NewSourceFromString("mul-bench")
	sk, pk := bfv.KeyGen(p, src.Fork("keys"))
	rlk := bfv.NewRelinKey(p, sk, src.Fork("rlk"))
	enc := bfv.NewEncoder(p)
	encryptor := bfv.NewEncryptor(p, pk)
	ev := bfv.NewEvaluator(p)
	msg := make([]uint64, p.N)
	for i := range msg {
		msg[i] = src.Uniform(2)
	}
	pt, _ := enc.Encode(msg)
	ca := encryptor.Encrypt(pt, src.Fork("a"))
	cb := encryptor.Encrypt(pt, src.Fork("b"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.MulRelin(ca, cb, rlk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHomRotation measures a Galois automorphism + key switch — the
// "costly rotation" of the scalable arithmetic baselines [34]/[29] that
// CIPHERMATCH's algorithm never needs.
func BenchmarkHomRotation(b *testing.B) {
	p := bfv.ParamsNTTArith()
	src := rng.NewSourceFromString("rot-bench")
	sk, pk := bfv.KeyGen(p, src.Fork("keys"))
	gk, err := bfv.NewGaloisKey(p, sk, 3, src.Fork("gk"))
	if err != nil {
		b.Fatal(err)
	}
	enc := bfv.NewEncoder(p)
	encryptor := bfv.NewEncryptor(p, pk)
	ev := bfv.NewEvaluator(p)
	pt, _ := enc.Encode(make([]uint64, p.N))
	ct := encryptor.Encrypt(pt, src.Fork("e"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Automorphism(ct, gk); err != nil {
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

// BenchmarkBitSerialAddFlash measures one in-flash 32-bit bit-serial
// addition over a full 4 KiB page (32768 parallel lanes), the µ-program of
// Fig. 5 on the functional simulator.
func BenchmarkBitSerialAddFlash(b *testing.B) {
	plane := flash.NewPlane(flash.DefaultGeometry(), flash.DefaultTiming(), flash.DefaultEnergy())
	if err := plane.SetBlockMode(0, flash.ModeSLCESP); err != nil {
		b.Fatal(err)
	}
	src := rng.NewSourceFromString("flash-bench")
	coeffs := make([]uint32, plane.Geometry().PageBits())
	operand := make([]uint32, len(coeffs))
	for i := range coeffs {
		coeffs[i] = uint32(src.Uint64())
		operand[i] = uint32(src.Uint64())
	}
	if err := plane.WriteVertical(0, 0, coeffs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plane.BitSerialAdd(0, 0, operand); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkEngine runs the standard fixed workload (4 KiB database,
// 32-bit query, byte alignment, seeded-match mode — the same fixture
// cmbench -json measures, see harness.NewEngineBenchFixture) through
// every execution engine, so BENCH snapshots track the per-substrate
// trajectory the way the paper compares CPU, PuM and flash on one
// algorithm.
// BenchmarkPrepareQuery measures client-side query preparation on the
// standard engine-bench workload: the token builder derives EncryptC0
// once per chunk plus once per phase (chunks+phases ring encryptions),
// not once per (residue, chunk).
func BenchmarkPrepareQuery(b *testing.B) {
	cfg := Config{Params: ParamsPaper(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, NewSeed("prep-bench"))
	if err != nil {
		b.Fatal(err)
	}
	const dbBits = 4096 * 8
	pattern := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := client.PrepareQuery(pattern, 32, dbBits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine(b *testing.B) {
	cfg, db, q, err := harness.NewEngineBenchFixture()
	if err != nil {
		b.Fatal(err)
	}
	for _, specStr := range harness.DefaultEngineBenchSpecs() {
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
	for _, specStr := range harness.DefaultEngineBenchSpecs() {
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
		// Recycle the hit bitmaps the way the wire server does
		// after encoding, so the steady state exercises the
		// bitset pool rather than the allocator.
		ir.Release()
	}
	b.StopTimer()
	if closer, ok := eng.(interface{ Close() error }); ok {
		_ = closer.Close()
	}
}

// BenchmarkRingKernels is the in-tree twin of harness.RunKernelBench:
// the fused compare kernels on the standard 64-chunk × n=1024 arena
// workload under every dispatch path available on this machine,
// reporting coefficients/sec. Force a path process-wide with
// CM_KERNEL=generic|unrolled|avx2 instead when benchmarking engines.
func BenchmarkRingKernels(b *testing.B) {
	prev := ring.ActiveKernel()
	defer ring.SetKernel(prev)
	const chunks, n, R = 64, 1024, 4
	for _, fam := range []struct {
		name string
		q    uint64
	}{{"pow2", 1 << 32}, {"generic", (1 << 40) + 15}} {
		r := ring.MustNew(n, fam.q)
		src := rng.NewSourceFromString("ring-kernel-bench-" + fam.name)
		planes := make([]ring.Poly, chunks)
		for c := range planes {
			planes[c] = r.NewPoly()
			r.UniformPoly(src, planes[c])
		}
		d := r.NewPoly()
		r.UniformPoly(src, d)
		rhs := make([]ring.Poly, R)
		for v := range rhs {
			rhs[v] = r.NewPoly()
			r.UniformPoly(src, rhs[v])
		}
		bits := make([][]uint64, R)
		for v := range bits {
			bits[v] = make([]uint64, (chunks*n+63)/64)
		}
		for _, path := range ring.AvailableKernels() {
			b.Run(fam.name+"/"+path.String(), func(b *testing.B) {
				if err := ring.SetKernel(path); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(2 * chunks * n * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for c := range planes {
						r.SubCmpMultiBits(planes[c], d, rhs, bits, c*n)
					}
				}
				coeffs := float64(chunks) * float64(n) * float64(R) * float64(b.N)
				b.ReportMetric(coeffs/b.Elapsed().Seconds(), "coeffs/s")
			})
		}
	}
}

// BenchmarkEngineBatch compares the batched multi-query pipeline
// against sequential execution: 8 in-flight queries answered by one
// SearchAndIndexBatch pass versus 8 SearchAndIndex calls, per engine
// kind. The batch models a production stream against a hot database —
// 2 distinct patterns each issued by 4 users — so the pipeline's two
// levers both engage: one chunk walk amortised across the batch, and
// pattern-ciphertext dedup collapsing repeated queries (seed-derived
// pattern randomness makes equal queries byte-identical). The SSD kind
// exercises the sequential fallback, so its pair is expected to tie.
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
		closeEngine := func(eng Engine) {
			if closer, ok := eng.(interface{ Close() error }); ok {
				_ = closer.Close()
			}
		}
		b.Run(specStr+"/batch-8", func(b *testing.B) {
			eng := newEngine(b)
			defer closeEngine(eng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SearchBatch(eng, bq); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(specStr+"/sequential-8", func(b *testing.B) {
			eng := newEngine(b)
			defer closeEngine(eng)
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

// BenchmarkAblationPolyMul compares the two negacyclic multiplication
// algorithms at the paper's ring degree.
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
}

// BenchmarkAblationPackingWidth quantifies the memory-footprint effect of
// the packing width (the paper's core software contribution): 1-bit
// (Yasuda) vs 16-bit (CIPHERMATCH) vs per-bit Boolean.
func BenchmarkAblationPackingWidth(b *testing.B) {
	p := bfv.ParamsPaper()
	const dbBits = 1 << 23
	var cm, ya, bo core.Footprint
	for i := 0; i < b.N; i++ {
		cm = core.FootprintCiphermatch(dbBits, p)
		ya = core.FootprintYasuda(dbBits, p)
		bo = core.FootprintBoolean(dbBits)
	}
	b.ReportMetric(cm.Expansion(), "cm-expansion-x")
	b.ReportMetric(ya.Expansion(), "yasuda-expansion-x")
	b.ReportMetric(bo.Expansion(), "boolean-expansion-x")
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
