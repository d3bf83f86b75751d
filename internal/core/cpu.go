package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/ring"
)

var errEngineClosed = errors.New("core: engine is closed")

// CPUEngine is the CPU substrate: one residue-fused kernel
// (searchChunkRange), for single queries and batches alike, runs over
// one chunk-range scheduler. With one worker — the "serial"
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

// planeGroup is a group of a search's members on one DBTok plane with
// one length, folded into one factored query. Its comparand rows are
// the search's record rows row0, row0+1, …, in member order.
type planeGroup struct {
	members []*Query // the group's evaluated members, in row order
	fq      FactoredQuery
	row0    int
}

// poolCall is the shared state of one search on the pool: each range
// job writes its records to its own slot of outs.
type poolCall struct {
	groups  []planeGroup
	room    int
	outs    []*HitWords
	pending sync.WaitGroup
}

// rangeJob is one unit of queued work: chunks [lo, hi) of one search,
// its k-th range.
type rangeJob struct {
	call      *poolCall
	k, lo, hi int
}

// worker drains the job queue until Close. Each job runs the kernel
// into a record list of its own, so workers share no output and never
// contend; the caller joins the lists in range order.
func (e *CPUEngine) worker() {
	defer e.wg.Done()
	for j := range e.jobs {
		c := j.call
		hw := newHitWords(nil)
		hw.Words = runRange(e.ring, e.db, c.groups, j.lo, j.hi, c.room, hw.Words)
		c.outs[j.k] = hw
		c.pending.Done()
	}
}

// runRange runs the kernel over chunks [lo, hi), room records per
// chunk, appending the records to buf: whenever buf lacks room for the
// next tile's records, the kernel returns and buf grows here, outside
// the allocation-free loop.
func runRange(r *ring.Ring, db *EncryptedDB, groups []planeGroup, lo, hi, room int, buf []ring.HitWord) []ring.HitWord {
	for {
		if lo, buf = searchChunkRange(r, db, groups, lo, hi, room, buf); lo == hi {
			return buf
		}
		buf = slices.Grow(buf, max(ring.TileChunks(r.N())*room, len(buf)))
	}
}

// batchSize picks the chunk-range granularity: enough ranges to keep
// every worker busy (~4 per worker) without degenerating to one chunk
// per range on large databases. The residue-fused kernel evaluates
// every variant (and every batch member) inside one chunk range, so
// ranges split on chunks only.
func (e *CPUEngine) batchSize(numChunks int) int {
	return max(numChunks/(4*e.workers), 1)
}

// schedule is the one chunk-range scheduler: it runs the kernel for
// groups over every chunk of the database, room records per chunk, and
// leaves the records in dst in range order. With one worker the whole
// range runs on the caller's goroutine, straight into dst; otherwise
// the ranges go to the pool and the caller joins their lists.
func (e *CPUEngine) schedule(groups []planeGroup, room int, dst *HitWords) error {
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
		dst.Words = runRange(e.ring, e.db, groups, 0, numChunks, room, dst.Words)
		return nil
	}
	batch := e.batchSize(numChunks)
	c := &poolCall{groups: groups, room: room, outs: make([]*HitWords, (numChunks+batch-1)/batch)}
	for k := range c.outs {
		lo := k * batch
		c.pending.Add(1)
		e.jobs <- rangeJob{call: c, k: k, lo: lo, hi: min(lo+batch, numChunks)}
	}
	e.closeMu.RUnlock()
	c.pending.Wait()
	for _, hw := range c.outs {
		dst.Words = append(dst.Words, hw.Words...)
		hw.Release()
	}
	return nil
}

// SearchAndIndex implements Engine: one residue-fused pass over every
// chunk, all shift variants evaluated per chunk stream.
//
//cm:pooled
func (e *CPUEngine) SearchAndIndex(q *Query) (*IndexResult, error) {
	if err := validateTokenQuery(e.db, q, e.ring); err != nil {
		return nil, err
	}
	var out [1]*IndexResult
	if err := e.search([]*Query{q}, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// SearchAndIndexBatch implements Engine: one pass over the database
// evaluating every member per chunk, instead of one pass per member.
//
//cm:pooled
func (e *CPUEngine) SearchAndIndexBatch(bq *BatchQuery) ([]*IndexResult, error) {
	if err := bq.validate(e.db, e.ring); err != nil {
		return nil, err
	}
	if len(bq.Queries) == 0 {
		return nil, nil
	}
	out := make([]*IndexResult, len(bq.Queries))
	if err := e.search(bq.Queries, out); err != nil {
		return nil, err
	}
	return out, nil
}

// search runs validated queries in one pass over the database, filling
// out[i] with query i's result. Members are grouped by DBTok plane
// (samePlane) and length, each group is folded into one factored query
// (factorPlane), and the kernel streams every chunk once for all
// groups, emitting hit records on the search's rows, from which each
// member takes its own. A member identical to an earlier one
// (sameMember) is evaluated once and gets its own copy of the records.
// Stats come from the plan: a plane streams every chunk once, charged
// to its first member; a group subtracts once per chunk, charged to its
// first member; and every member, duplicates included, compares every
// window once per residue. On error the results are released.
func (e *CPUEngine) search(queries []*Query, out []*IndexResult) error {
	n, numChunks := e.ring.N(), len(e.db.Chunks)
	var groups []planeGroup
	var dups [][2]int // (member, the earlier identical member it copies)
	for mi, q := range queries {
		ir := &IndexResult{Hits: newHitWords(q.Residues)}
		out[mi] = ir
		ir.Stats.CoeffCompares = int64(len(q.Residues)) * int64(numChunks*n)
		if k := slices.IndexFunc(queries[:mi], func(o *Query) bool { return sameMember(o, q) }); k >= 0 {
			dups = append(dups, [2]int{mi, k})
			continue
		}
		if len(q.Residues) == 0 {
			continue
		}
		g, onPlane := 0, false
		for ; g < len(groups); g++ {
			m := groups[g].members[0]
			if samePlane(m.DBTok, q.DBTok) {
				onPlane = true
				if m.YBits == q.YBits {
					break
				}
			}
		}
		if !onPlane {
			ir.Stats.ChunkStreams = int64(numChunks)
		}
		if g == len(groups) {
			groups = append(groups, planeGroup{})
			ir.Stats.HomAdds = numChunks
		}
		groups[g].members = append(groups[g].members, q)
	}
	var err error
	rows := 0
	for g := range groups {
		p := &groups[g]
		if p.fq, err = factorPlane(n, p.members, numChunks); err == nil {
			err = p.fq.cutNarrow(e.ring)
		}
		if err != nil {
			break
		}
		p.row0 = rows
		rows += p.fq.width
	}
	all := newHitWords(nil)
	defer all.Release()
	if err == nil {
		err = e.schedule(groups, ring.HitRoom(n, rows), all)
	}
	if err != nil {
		for _, ir := range out {
			ir.Release() // return the pooled records on the error path
		}
		return err
	}
	for g := range groups {
		row := groups[g].row0
		for _, q := range groups[g].members {
			hw := out[slices.Index(queries, q)].Hits
			for _, h := range all.Words {
				if r := int(h.Row) - row; r >= 0 && r < len(q.Residues) {
					h.Row = uint32(r)
					hw.Words = append(hw.Words, h)
				}
			}
			row += len(q.Residues)
		}
	}
	for _, d := range dups {
		out[d[0]].Hits.Words = append(out[d[0]].Hits.Words, out[d[1]].Hits.Words...)
	}
	var total Stats
	for mi, q := range queries {
		ir := out[mi]
		ir.Candidates = Candidates(ir.Hits, q.DBBitLen, q.YBits, q.AlignBits)
		total.add(ir.Stats)
	}
	e.record(total)
	return nil
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
