package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/ring"
)

var errEngineClosed = errors.New("core: engine is closed")

// CPUEngine is the CPU substrate: one residue-fused kernel
// (searchChunkRange), for single queries and batches alike, runs over
// one chunk-range scheduler. With one worker — the "serial"
// spec, the paper's CPU baseline — every search runs on the caller's
// goroutine: no goroutine, channel or extra allocation is involved.
// With more, each search fans its chunk ranges out over up to that many
// runners (ForEach), the caller among them: homomorphic additions are
// embarrassingly parallel — the coefficient-wise independence the paper
// exploits with SIMD on CPUs and with array-level parallelism in flash —
// so the search scales with cores until memory bandwidth saturates.
//
// The engine owns no goroutine: a search's runners exit before it
// returns. The ring is shared and read-only, so concurrent searches are
// safe with any worker count.
type CPUEngine struct {
	ring    *ring.Ring
	db      *EncryptedDB
	workers int
	closed  atomic.Bool

	statCounter
}

var _ Engine = (*CPUEngine)(nil)

// NewCPUEngine creates a CPU engine with the given number of workers
// (0 = GOMAXPROCS).
func NewCPUEngine(params bfv.Params, db *EncryptedDB, workers int) *CPUEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &CPUEngine{ring: params.Ring(), db: db, workers: workers}
}

// planeGroup is a group of a search's members on one DBTok plane with
// one length, folded into one factored query. Its comparand rows are
// the search's record rows row0, row0+1, …, in member order.
type planeGroup struct {
	members []*Query // the group's evaluated members, in row order
	fq      FactoredQuery
	row0    int
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
// ForEach runs the ranges, each into a record list of its own, so
// runners share no output, and the caller joins the lists in range
// order.
func (e *CPUEngine) schedule(groups []planeGroup, room int, dst *HitWords) error {
	if e.closed.Load() {
		return errEngineClosed
	}
	numChunks := len(e.db.Chunks)
	if e.workers == 1 {
		dst.Words = runRange(e.ring, e.db, groups, 0, numChunks, room, dst.Words)
		return nil
	}
	batch := e.batchSize(numChunks)
	outs := make([]*HitWords, (numChunks+batch-1)/batch)
	ForEach(e.workers, len(outs), func(k int) {
		lo := k * batch
		hw := NewHitWords(nil)
		hw.Words = runRange(e.ring, e.db, groups, lo, min(lo+batch, numChunks), room, hw.Words)
		outs[k] = hw
	})
	for _, hw := range outs {
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
	if err := ValidateTokenQuery(q, len(e.db.Chunks), e.db.BitLen, e.ring); err != nil {
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
		ir := &IndexResult{Hits: NewHitWords(q.Residues)}
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
	all := NewHitWords(nil)
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

// Close implements Engine: searches already in flight complete; later
// calls fail. Close is idempotent and safe against concurrent searches.
func (e *CPUEngine) Close() error {
	e.closed.Store(true)
	return nil
}
