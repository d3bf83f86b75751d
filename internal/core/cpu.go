package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/ring"
)

var errEngineClosed = errors.New("core: engine is closed")

// CPUEngine is the CPU substrate: the two residue-fused kernels
// (searchChunkRange for one query, searchChunkRangeBatch for a batch)
// run over one chunk-range scheduler. With one worker — the "serial"
// spec, the paper's CPU baseline — every search runs on the caller's
// goroutine: no goroutine, channel or extra allocation is involved.
// With more, the (variant, chunk) work of a search fans out across a
// persistent pool: homomorphic additions are embarrassingly parallel —
// the coefficient-wise independence the paper exploits with SIMD on
// CPUs and with array-level parallelism in flash — so the search
// scales with cores until memory bandwidth saturates.
//
// Pool workers live for the lifetime of the engine and calls only pay
// for enqueueing word-aligned chunk ranges. Concurrent searches share
// the pool fairly (their ranges interleave on the same queue). The
// ring is shared and read-only, so concurrent searches are safe with
// any worker count.
type CPUEngine struct {
	ring    *ring.Ring
	db      *EncryptedDB
	workers int

	// jobs feeds the pool; nil with one worker, whose searches run
	// inline.
	jobs    chan rangeJob
	wg      sync.WaitGroup
	closeMu sync.RWMutex // guards closed and the enqueue/close race
	closed  bool

	statCounter
}

var _ Engine = (*CPUEngine)(nil)

// NewCPUEngine creates a CPU engine with the given number of workers
// (0 = GOMAXPROCS) and, for more than one, starts them.
func NewCPUEngine(params bfv.Params, db *EncryptedDB, workers int) *CPUEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &CPUEngine{ring: params.Ring(), db: db, workers: workers}
	if workers > 1 {
		// Room for one search's ~4 ranges per worker (batchSize), so a
		// lone search enqueues without waiting on the workers.
		e.jobs = make(chan rangeJob, 4*workers)
		for w := 0; w < workers; w++ {
			e.wg.Add(1)
			go e.worker()
		}
	}
	return e
}

// chunkSearch is the kernel input of one search: a single query (q, fq,
// words) or a batch (bq, fqs, bitmaps).
type chunkSearch struct {
	q     *Query
	fq    *FactoredQuery
	words [][]uint64 // per variant: the bitsets' backing words

	bq      *BatchQuery
	fqs     []*FactoredQuery
	bitmaps [][]*Bitset // [member][variant]
}

// run executes the search's kernel over chunks [lo, hi), adding the
// work it caused to stats: one entry per batch member, one for a single
// query.
func (s *chunkSearch) run(r *ring.Ring, db *EncryptedDB, lo, hi int, stats []Stats) error {
	if s.bq != nil {
		return searchChunkRangeBatch(r, db, s.bq, s.fqs, lo, hi, s.bitmaps, stats)
	}
	st, err := searchChunkRange(r, db, s.q, s.fq, lo, hi, s.words)
	stats[0].add(st)
	return err
}

// poolCall is the shared state of one search on the pool.
type poolCall struct {
	search  chunkSearch
	pending sync.WaitGroup

	mu       sync.Mutex
	firstErr error
	stats    []Stats
}

// rangeJob is one unit of queued work: chunks [lo, hi) of one search.
type rangeJob struct {
	call   *poolCall
	lo, hi int
}

// worker drains the job queue until Close. The fused kernels write hit
// bits straight into the search's shared bitsets — ranges are
// word-aligned (see batchSize), so workers never touch the same bitset
// word — and need no scratch ciphertext at all: the hot loop never
// allocates and never contends.
func (e *CPUEngine) worker() {
	defer e.wg.Done()
	for j := range e.jobs {
		c := j.call
		var one [1]Stats
		local := one[:]
		if len(c.stats) > 1 {
			local = make([]Stats, len(c.stats))
		}
		err := c.search.run(e.ring, e.db, j.lo, j.hi, local)
		c.mu.Lock()
		if err != nil && c.firstErr == nil {
			c.firstErr = err
		}
		for i := range local {
			c.stats[i].add(local[i])
		}
		c.mu.Unlock()
		c.pending.Done()
	}
}

// batchSize picks the chunk-range granularity: enough ranges to keep
// every worker busy (~4 per worker) without degenerating to one chunk
// per range on large databases. The residue-fused kernels evaluate
// every variant (and every batch member) inside one chunk range, so
// ranges split on chunks only. Ranges are additionally aligned so every
// job's bit range starts on a 64-window word boundary — at ring degrees
// below 64 a chunk is less than one bitset word, and two workers must
// never OR into the same word.
func (e *CPUEngine) batchSize(numChunks int) int {
	per := numChunks / (4 * e.workers)
	if per < 1 {
		per = 1
	}
	n := e.ring.N()
	if align := (63 + n) / n; align > 1 {
		per = (per + align - 1) / align * align
	}
	if per > numChunks {
		per = numChunks
	}
	return per
}

// schedule is the one chunk-range scheduler: it runs s over every chunk
// of the database and adds each member's work to stats. With one worker
// the whole range runs on the caller's goroutine; otherwise the ranges
// go to the pool and the caller waits for them.
func (e *CPUEngine) schedule(s *chunkSearch, stats []Stats) error {
	numChunks := len(e.db.Chunks)
	// Enqueue under the read half of closeMu: Close excludes itself with
	// the write half, so sends can never hit a closed channel. Workers
	// keep draining while this lock is held, so sends always progress.
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return errEngineClosed
	}
	if e.jobs == nil {
		e.closeMu.RUnlock()
		return s.run(e.ring, e.db, 0, numChunks, stats)
	}
	c := &poolCall{search: *s, stats: make([]Stats, len(stats))}
	batch := e.batchSize(numChunks)
	for lo := 0; lo < numChunks; lo += batch {
		c.pending.Add(1)
		e.jobs <- rangeJob{call: c, lo: lo, hi: min(lo+batch, numChunks)}
	}
	e.closeMu.RUnlock()
	c.pending.Wait()
	for i := range stats {
		stats[i].add(c.stats[i])
	}
	return c.firstErr
}

// SearchAndIndex implements Engine: one residue-fused pass over every
// chunk, all shift variants evaluated per chunk stream.
//
//cm:pooled
func (e *CPUEngine) SearchAndIndex(q *Query) (*IndexResult, error) {
	if err := validateSearchQuery(e.db, q, true); err != nil {
		return nil, err
	}
	fq, err := FactorQuery(e.ring, q, len(e.db.Chunks))
	if err != nil {
		return nil, err
	}
	numWindows := len(e.db.Chunks) * e.ring.N()
	ir := &IndexResult{Hits: make(HitBitmaps, len(q.Residues))}
	words := make([][]uint64, len(q.Residues))
	for vi, res := range q.Residues {
		bm := NewBitset(numWindows)
		ir.Hits[res] = bm
		words[vi] = bm.Words()
	}
	var st [1]Stats
	if err := e.schedule(&chunkSearch{q: q, fq: fq, words: words}, st[:]); err != nil {
		ir.Release() // return the pooled bitsets on the error path
		return nil, err
	}
	ir.Stats = st[0]
	ir.Candidates = Candidates(ir.Hits, q.DBBitLen, q.YBits, q.AlignBits)
	e.record(ir.Stats)
	return ir, nil
}

// SearchAndIndexBatch implements Engine: one pass over the database
// evaluating every member per chunk (searchChunkRangeBatch), instead of
// one pass per member.
//
//cm:pooled
func (e *CPUEngine) SearchAndIndexBatch(bq *BatchQuery) ([]*IndexResult, error) {
	if err := bq.validate(e.db); err != nil {
		return nil, err
	}
	if len(bq.Queries) == 0 {
		return nil, nil
	}
	numChunks := len(e.db.Chunks)
	fqs, err := factorBatch(e.ring, bq, numChunks)
	if err != nil {
		return nil, err
	}
	bitmaps := newBatchBitmaps(bq, numChunks*e.ring.N())
	memberStats := make([]Stats, len(bq.Queries))
	if err := e.schedule(&chunkSearch{bq: bq, fqs: fqs, bitmaps: bitmaps}, memberStats); err != nil {
		for _, member := range bitmaps {
			for _, bm := range member {
				bm.Release() // return the pooled bitsets on the error path
			}
		}
		return nil, err
	}
	results, total := assembleBatchResults(bq, bitmaps, memberStats)
	e.record(total)
	return results, nil
}

// Describe implements Engine: "serial" for one worker, otherwise
// "pool(N workers)".
func (e *CPUEngine) Describe() string {
	if e.workers == 1 {
		return EngineSerial
	}
	return fmt.Sprintf("pool(%d workers)", e.workers)
}

// Close implements Engine: it shuts the workers down. Searches already
// in flight complete; later calls fail. Close is idempotent and safe
// against concurrent searches.
func (e *CPUEngine) Close() error {
	e.closeMu.Lock()
	if !e.closed {
		e.closed = true
		if e.jobs != nil {
			close(e.jobs)
		}
	}
	e.closeMu.Unlock()
	e.wg.Wait()
	return nil
}
