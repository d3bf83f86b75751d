package core

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

// engineFixture builds a client, an encrypted database with planted
// occurrences, and a seeded-match query over it.
func engineFixture(t *testing.T) (Config, *EncryptedDB, *Query, *IndexResult) {
	t.Helper()
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, rng.NewSourceFromString("engine"))
	if err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 384) // 3 chunks at toy n=64
	rng.NewSourceFromString("engine-data").Bytes(db)
	query := []byte{0xAB, 0xCD, 0xEF}
	plantQuery(db, query, 24, 48)
	plantQuery(db, query, 24, 1016) // spans the chunk-0/chunk-1 boundary
	plantQuery(db, query, 24, 2000)

	edb, err := client.EncryptDatabase(db, 3072)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(query, 24, 3072)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewCPUEngine(cfg.Params, edb, 1).SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Candidates) == 0 {
		t.Fatal("serial engine found nothing; fixture is vacuous")
	}
	return cfg, edb, q, serial
}

// assertSameResult checks that two index results agree bit for bit.
func assertSameResult(t *testing.T, label string, got, want *IndexResult) {
	t.Helper()
	if !slices.Equal(got.Candidates, want.Candidates) {
		t.Fatalf("%s: candidates %v != %v", label, got.Candidates, want.Candidates)
	}
	if got.Stats.HomAdds != want.Stats.HomAdds {
		t.Fatalf("%s: HomAdds %d != %d", label, got.Stats.HomAdds, want.Stats.HomAdds)
	}
	if len(got.Hits.Residues) != len(want.Hits.Residues) {
		t.Fatalf("%s: %d hit residues != %d", label, len(got.Hits.Residues), len(want.Hits.Residues))
	}
	if !got.Hits.Equal(want.Hits) {
		t.Fatalf("%s: hit records differ:\n got %v\nwant %v", label, got.Hits.Words, want.Hits.Words)
	}
}

// TestPoolEngineConcurrentSearches drives one four-worker engine from
// many goroutines at once — the proto server's per-database concurrency
// — and is the -race target for the fanned-out search path.
func TestPoolEngineConcurrentSearches(t *testing.T) {
	cfg, edb, q, serial := engineFixture(t)
	pool := NewCPUEngine(cfg.Params, edb, 4)
	defer pool.Close() //nolint:errcheck
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	results := make([]*IndexResult, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = pool.SearchAndIndex(q)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		assertSameResult(t, "concurrent", results[i], serial)
	}
	var homAdds int
	for _, ir := range results {
		homAdds += ir.Stats.HomAdds
	}
	if homAdds != callers*serial.Stats.HomAdds {
		t.Fatalf("summed HomAdds = %d, want %d", homAdds, callers*serial.Stats.HomAdds)
	}
}

func TestEngineValidation(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy(), Mode: ModeClientDecrypt}
	client, _ := NewClient(cfg, rng.NewSourceFromString("ev"))
	db := make([]byte, 128)
	edb, _ := client.EncryptDatabase(db, 1024)
	q, _ := client.PrepareQuery([]byte{0x11, 0x22}, 16, 1024) // no tokens
	for _, eng := range []Engine{
		NewCPUEngine(cfg.Params, edb, 1),
		NewCPUEngine(cfg.Params, edb, 2),
	} {
		if _, err := eng.SearchAndIndex(q); err == nil {
			t.Errorf("%s: accepted tokenless query", eng.Describe())
		}
		eng.Close()
	}
}

// TestPoolEngineClosedRejectsSearches: for every worker count — inline
// and pooled — Close is idempotent and any later search, single or
// batched, fails.
func TestPoolEngineClosedRejectsSearches(t *testing.T) {
	cfg, edb, q, _ := engineFixture(t)
	bq := NewBatchQuery(q, q)
	for _, workers := range []int{1, 2, 4} {
		eng := NewCPUEngine(cfg.Params, edb, workers)
		for i := 0; i < 2; i++ { // idempotent
			if err := eng.Close(); err != nil {
				t.Fatalf("workers=%d: close %d: %v", workers, i, err)
			}
		}
		if ir, err := eng.SearchAndIndex(q); err == nil {
			ir.Release()
			t.Fatalf("workers=%d: closed engine accepted a search", workers)
		}
		if _, err := eng.SearchAndIndexBatch(bq); err == nil {
			t.Fatalf("workers=%d: closed engine accepted a batch", workers)
		}
	}
}

// TestEncryptedDBArena checks the one database form: a client-encrypted
// database sits on an arena whose C0 plane precedes its C1 plane, every
// chunk polynomial is the capacity-limited view of its plane row, and
// AdoptArena refuses an arena of the wrong size.
func TestEncryptedDBArena(t *testing.T) {
	cfg, edb, _, _ := engineFixture(t)
	n, chunks := cfg.Params.N, len(edb.Chunks)
	arena := edb.Arena()
	if len(arena) != 2*chunks*n {
		t.Fatalf("arena holds %d coefficients, want %d", len(arena), 2*chunks*n)
	}
	for j, ct := range edb.Chunks {
		for c, row := range []int{j, chunks + j} {
			if len(ct.C[c]) != n || cap(ct.C[c]) != n || &ct.C[c][0] != &arena[row*n] {
				t.Fatalf("chunk %d component %d is not the capacity-limited view of arena row %d", j, c, row)
			}
		}
	}
	if _, err := AdoptArena(n, chunks, arena[:len(arena)-1]); err == nil {
		t.Fatal("AdoptArena accepted a short arena")
	}
}

func TestNewEngineSpec(t *testing.T) {
	cfg, edb, _, _ := engineFixture(t)
	if _, err := NewEngine(cfg.Params, edb, EngineSpec{Kind: "warp-drive"}); err == nil {
		t.Error("unknown engine kind accepted")
	}
	if _, err := NewEngine(cfg.Params, edb, EngineSpec{Kind: EngineSSD}); err == nil {
		t.Error("core built an SSD engine without the simulator")
	}
	eng, err := NewEngine(cfg.Params, edb, EngineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Describe() != EngineSerial {
		t.Errorf("zero spec built %q, want serial", eng.Describe())
	}
	if got := (EngineSpec{Kind: EnginePool, Workers: 8}).String(); got != "pool:8" {
		t.Errorf("spec string = %q", got)
	}
}

// settledGoroutines waits until the goroutine count stops changing —
// earlier tests' workers may still be unwinding after their Close — and
// returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestCPUEngineOneWorkerRunsInline pins the scheduler's two modes: with
// one worker (the "serial" and "pool:1" specs) construction and a search
// start no goroutine, while a four-worker engine runs no goroutine at
// rest and leaves none behind after a single or a batched search.
// (Close semantics per worker count: TestPoolEngineClosedRejectsSearches.)
func TestCPUEngineOneWorkerRunsInline(t *testing.T) {
	cfg, edb, q, serial := engineFixture(t)
	defer serial.Release()
	bq := NewBatchQuery(q, q)

	for _, spec := range []EngineSpec{{Kind: EngineSerial}, {Kind: EnginePool, Workers: 1}} {
		before := settledGoroutines()
		eng, err := NewEngine(cfg.Params, edb, spec)
		if err != nil {
			t.Fatal(err)
		}
		ir, err := eng.SearchAndIndex(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, spec.String(), ir, serial)
		ir.Release()
		irs, err := eng.SearchAndIndexBatch(bq)
		if err != nil {
			t.Fatal(err)
		}
		for _, ir := range irs {
			ir.Release()
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("%s: %d goroutines before, %d after construction and search", spec, before, after)
		}
		if got := eng.Describe(); got != EngineSerial {
			t.Errorf("%s: Describe() = %q, want %q", spec, got, EngineSerial)
		}
	}

	before := settledGoroutines()
	pool := NewCPUEngine(cfg.Params, edb, 4)
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("pool:4 runs %d goroutines at rest, baseline %d", got, before)
	}
	ir, err := pool.SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "pool:4", ir, serial)
	ir.Release()
	if after := settledGoroutines(); after != before {
		t.Fatalf("pool:4: %d goroutines after a search, baseline %d", after, before)
	}
	irs, err := pool.SearchAndIndexBatch(bq)
	if err != nil {
		t.Fatal(err)
	}
	for _, ir := range irs {
		ir.Release()
	}
	if after := settledGoroutines(); after != before {
		t.Fatalf("pool:4: %d goroutines after a batched search, baseline %d", after, before)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if after := settledGoroutines(); after != before {
		t.Fatalf("pool:4: %d goroutines after Close, baseline %d", after, before)
	}
}

// TestCPUEngineCloseDuringSearches interleaves Close with concurrent
// single and batched searches: every search either completes with the
// serial result or fails because the engine closed — none hangs or
// panics. Run under -race it checks the scheduler's closed flag against
// in-flight searches on both the inline and the fanned-out path.
func TestCPUEngineCloseDuringSearches(t *testing.T) {
	cfg, edb, q, serial := engineFixture(t)
	defer serial.Release()
	bq := NewBatchQuery(q, q)
	for _, workers := range []int{1, 4} {
		eng := NewCPUEngine(cfg.Params, edb, workers)
		const callers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(batch bool) {
				defer wg.Done()
				<-start
				for k := 0; k < 20; k++ {
					var irs []*IndexResult
					var err error
					if batch {
						irs, err = eng.SearchAndIndexBatch(bq)
					} else {
						var ir *IndexResult
						ir, err = eng.SearchAndIndex(q)
						irs = []*IndexResult{ir}
					}
					if errors.Is(err, errEngineClosed) {
						return
					}
					if err != nil {
						t.Errorf("workers=%d: %v", workers, err)
						return
					}
					for _, ir := range irs {
						if !slices.Equal(ir.Candidates, serial.Candidates) {
							t.Errorf("workers=%d: candidates %v, serial %v", workers, ir.Candidates, serial.Candidates)
						}
						ir.Release()
					}
				}
			}(i%2 == 1)
		}
		close(start)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// TestSeededSearchRejectsOddQ: the CPU engine's 16-bit compare needs a
// power-of-two q (Δ = q/t a power of two) and chunks of whole bitset
// words (n ≥ 64). A seeded search under ParamsOddQ, or on a ring of
// degree 16 or 32, fails with ErrNarrowRing, alone and in a batch, on
// either scheduler, and returns no result.
func TestSeededSearchRejectsOddQ(t *testing.T) {
	for _, params := range []bfv.Params{
		bfv.ParamsOddQ(),
		{N: 16, Q: 1 << 32, T: 1 << 16, Eta: 3, RelinBaseBits: 8},
		{N: 32, Q: 1 << 32, T: 1 << 16, Eta: 3, RelinBaseBits: 8},
	} {
		cfg := Config{Params: params, AlignBits: 8, Mode: ModeSeededMatch}
		client, err := NewClient(cfg, rng.NewSourceFromString("odd-q"))
		if err != nil {
			t.Fatal(err)
		}
		db := make([]byte, 256)
		rng.NewSourceFromString("odd-q-data").Bytes(db)
		edb, err := client.EncryptDatabase(db, 2048)
		if err != nil {
			t.Fatal(err)
		}
		q, err := client.PrepareQuery(db[10:13], 24, 2048)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			eng := NewCPUEngine(cfg.Params, edb, workers)
			if ir, err := eng.SearchAndIndex(q); !errors.Is(err, ErrNarrowRing) || ir != nil {
				t.Errorf("n=%d q=%d workers=%d: single search = (%v, %v), want ErrNarrowRing and no result", params.N, params.Q, workers, ir, err)
			}
			if irs, err := eng.SearchAndIndexBatch(NewBatchQuery(q)); !errors.Is(err, ErrNarrowRing) || irs != nil {
				t.Errorf("n=%d q=%d workers=%d: batch = (%v, %v), want ErrNarrowRing and no result", params.N, params.Q, workers, irs, err)
			}
			eng.Close()
		}
	}
}

// TestEngineSubWordChunks: on rings of degree 16 and 32 a chunk is
// narrower than one bitset word. The client-decrypt path still serves
// them: with occurrences planted across chunk boundaries, its candidates
// equal the plain reference. The seeded CPU engine refuses the same
// database with ErrNarrowRing on every worker count instead of
// returning records.
func TestEngineSubWordChunks(t *testing.T) {
	query := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	for _, n := range []int{16, 32} {
		params := bfv.Params{N: n, Q: 1 << 32, T: 1 << 16, Eta: 3, RelinBaseBits: 8}
		cfg := Config{Params: params, AlignBits: 8, Mode: ModeSeededMatch}
		client, err := NewClient(cfg, rng.NewSourceFromString("sub-word"))
		if err != nil {
			t.Fatal(err)
		}
		twinCfg := cfg
		twinCfg.Mode = ModeClientDecrypt
		twin, err := NewClient(twinCfg, rng.NewSourceFromString("sub-word"))
		if err != nil {
			t.Fatal(err)
		}
		chunkBits := SegmentBits * n
		db := make([]byte, 10*chunkBits/8)
		rng.NewSourceFromString("sub-word-data").Bytes(db)
		dbBits := len(db) * 8
		planted := []int{8, chunkBits - 8, 5*chunkBits - 16, dbBits - 32}
		for _, o := range planted {
			plantQuery(db, query, 32, o)
		}
		edb, err := client.EncryptDatabase(db, dbBits)
		if err != nil {
			t.Fatal(err)
		}
		q, err := client.PrepareQuery(query, 32, dbBits)
		if err != nil {
			t.Fatal(err)
		}
		tq, err := twin.PrepareQuery(query, 32, dbBits)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewServer(params, edb).Search(tq)
		if err != nil {
			t.Fatal(err)
		}
		got := Candidates(twin.ExtractHits(tq, sr), dbBits, 32, cfg.AlignBits)
		wantCands := ExpectedCandidates(db, dbBits, query, 32, cfg.AlignBits)
		if !slices.Equal(got, wantCands) {
			t.Fatalf("n=%d client decrypt: candidates %v, plain reference %v", n, got, wantCands)
		}
		for _, o := range planted {
			if !slices.Contains(got, o) {
				t.Fatalf("n=%d client decrypt: planted occurrence at %d missing from %v", n, o, got)
			}
		}
		for _, workers := range []int{1, 2, 3} {
			eng := NewCPUEngine(params, edb, workers)
			if ir, err := eng.SearchAndIndex(q); !errors.Is(err, ErrNarrowRing) || ir != nil {
				t.Errorf("n=%d %s: seeded search = (%v, %v), want ErrNarrowRing and no result", n, eng.Describe(), ir, err)
			}
			eng.Close()
		}
	}
}

// TestBatchRejectsRHSLowBitMismatch: two batch members on one DBTok
// plane with one length fold into one factored query, whose comparands
// must all share the client mask's low part below Δ. A member whose
// RHS row differs from the other's in bit 0 alone breaks that, and the
// batch fails with ErrRHSLowBits instead of returning a result.
func TestBatchRejectsRHSLowBitMismatch(t *testing.T) {
	cfg, edb, q, serial := engineFixture(t)
	serial.Release()
	bad := *q
	bad.RHS = make(map[int]ring.Poly, len(q.RHS))
	for psi, p := range q.RHS {
		bad.RHS[psi] = p
	}
	for psi, p := range q.RHS {
		off := slices.Clone(p)
		off[7] ^= 1
		bad.RHS[psi] = off
		break
	}
	bq := NewBatchQuery(q, &bad)
	if !samePlane(q.DBTok, bad.DBTok) {
		t.Fatal("fixture: the members must share their DBTok plane")
	}
	for _, workers := range []int{1, 2} {
		eng := NewCPUEngine(cfg.Params, edb, workers)
		if irs, err := eng.SearchAndIndexBatch(bq); !errors.Is(err, ErrRHSLowBits) || irs != nil {
			t.Errorf("workers=%d: batch = (%v, %v), want ErrRHSLowBits and no result", workers, irs, err)
		}
		eng.Close()
	}
}

// TestPoolCutsSeveralRanges: on the conformance matrix's 24-chunk
// pool-range row (internal/engine), pool:2, pool:3 and pool:4 each cut
// more than one chunk range, so the row's occurrences straddle range
// edges and the engine joins more than one range's records.
func TestPoolCutsSeveralRanges(t *testing.T) {
	for _, workers := range []int{2, 3, 4} {
		if batch := (&CPUEngine{workers: workers}).batchSize(24); batch >= 24 {
			t.Errorf("pool:%d runs 24 chunks as one range", workers)
		}
	}
}
