package core

import (
	"testing"

	"ciphermatch/internal/ring"
)

// TestSearchChunkRangeZeroAllocs pins the steady-state allocation
// profile of the serial search loop: with the factored query built and
// a record buffer that has room for the search, streaming every chunk
// through the fused kernel allocates nothing. This is the runtime
// complement of the //cm:hotpath annotation on searchChunkRange — the
// static check forbids allocation sites, this catches allocations
// hiding in callees.
func TestSearchChunkRangeZeroAllocs(t *testing.T) {
	cfg, edb, q, serial := engineFixture(t)
	defer serial.Release()
	r := cfg.Params.Ring()
	fq, err := FactorQuery(r, q, len(edb.Chunks))
	if err != nil {
		t.Fatal(err)
	}
	groups := []planeGroup{{fq: *fq}}
	room := ring.HitRoom(cfg.Params.N, len(q.Residues))
	buf := runRange(r, edb, groups, 0, len(edb.Chunks), room, nil) // grown to the search's size
	stopped := 0
	avg := testing.AllocsPerRun(50, func() {
		stopped, _ = searchChunkRange(r, edb, groups, 0, len(edb.Chunks), room, buf[:0])
	})
	if avg != 0 {
		t.Fatalf("searchChunkRange allocates %.1f times per search, want 0", avg)
	}
	if stopped != len(edb.Chunks) {
		t.Fatalf("searchChunkRange stopped at chunk %d of %d in a buffer the same search filled", stopped, len(edb.Chunks))
	}
}

// TestCPUEngineAllocs pins whole-search allocation counts on the toy
// fixture, single and batch-of-two (a duplicate member, evaluated once
// and copied): one worker runs inline (no goroutine handoff, no
// per-call pool state), and two workers pay only for the shared call
// record.
func TestCPUEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, inflating allocation counts")
	}
	cfg, edb, q, serial := engineFixture(t)
	serial.Release()
	bq := NewBatchQuery(q, q)
	for _, c := range []struct {
		workers         int
		single, batched float64
	}{
		{1, 13, 22},
		{2, 14, 23},
	} {
		eng := NewCPUEngine(cfg.Params, edb, c.workers)
		single := testing.AllocsPerRun(50, func() {
			ir, err := eng.SearchAndIndex(q)
			if err != nil {
				t.Fatal(err)
			}
			ir.Release()
		})
		batched := testing.AllocsPerRun(50, func() {
			irs, err := eng.SearchAndIndexBatch(bq)
			if err != nil {
				t.Fatal(err)
			}
			for _, ir := range irs {
				ir.Release()
			}
		})
		eng.Close()
		if single > c.single || batched > c.batched {
			t.Errorf("workers=%d: %.1f allocs per search, %.1f per batch of 2; want <= %.0f, %.0f",
				c.workers, single, batched, c.single, c.batched)
		}
	}
}
