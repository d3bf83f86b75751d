package core

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/ring"
)

// ShardedEngine splits one logical database into contiguous chunk ranges
// and searches each range with its own inner engine — the scale-out
// composition of the engine abstraction. Because a query's pattern phase
// for global chunk lo+j is the local phase shifted by a per-shard
// constant ((16·n·lo) mod y), every shard sees a self-consistent
// sub-query and any Engine implementation can serve a shard: CPU engines
// directly, or one simulated in-flash drive per shard (how the paper's
// drive-level parallelism would be deployed across multiple SSDs).
//
// Hit bitmaps merge back at global window offsets and candidate
// generation runs once over the merged bitmaps, so occurrences spanning
// a shard boundary are found exactly as in the unsharded engines.
type ShardedEngine struct {
	params bfv.Params
	db     *EncryptedDB
	shards []*engineShard
	statCounter
}

var _ Engine = (*ShardedEngine)(nil)

// engineShard is one chunk range [lo, hi) with its engine and the
// sub-database view the engine was built over.
type engineShard struct {
	lo, hi int
	sub    *EncryptedDB
	engine Engine
}

// ShardDB returns the sub-database view of chunks [lo, hi): the chunk
// slice plus the bit length and segment count the range covers. Engines
// built over this view accept the sub-queries ShardedEngine constructs.
func ShardDB(db *EncryptedDB, params bfv.Params, lo, hi int) *EncryptedDB {
	bitsPerChunk := params.N * SegmentBits
	bits := db.BitLen - lo*bitsPerChunk
	if maxBits := (hi - lo) * bitsPerChunk; bits > maxBits {
		bits = maxBits
	}
	segs := db.NumSegments - lo*params.N
	if maxSegs := (hi - lo) * params.N; segs > maxSegs {
		segs = maxSegs
	}
	return &EncryptedDB{Chunks: db.Chunks[lo:hi], BitLen: bits, NumSegments: segs}
}

// NewShardedEngine builds numShards engines over contiguous chunk ranges
// of db using the factory (called with the shard index and its
// sub-database view). numShards is clamped to the chunk count.
func NewShardedEngine(params bfv.Params, db *EncryptedDB, numShards int, factory func(shard int, sub *EncryptedDB) (Engine, error)) (*ShardedEngine, error) {
	numChunks := len(db.Chunks)
	if numChunks == 0 {
		return nil, fmt.Errorf("core: cannot shard an empty database")
	}
	if numShards < 1 {
		numShards = 1
	}
	if numShards > numChunks {
		numShards = numChunks
	}
	e := &ShardedEngine{params: params, db: db}
	for s := 0; s < numShards; s++ {
		lo := s * numChunks / numShards
		hi := (s + 1) * numChunks / numShards
		sub := ShardDB(db, params, lo, hi)
		inner, err := factory(s, sub)
		if err != nil {
			e.Close() //nolint:errcheck // best-effort cleanup of earlier shards
			return nil, fmt.Errorf("core: building shard %d: %w", s, err)
		}
		e.shards = append(e.shards, &engineShard{lo: lo, hi: hi, sub: sub, engine: inner})
	}
	return e, nil
}

// shardQuery rewrites a validated seeded-match query for chunks
// [lo, hi): local chunk j stands for global chunk lo+j, so every local
// RHS phase maps to the global phase shifted by (16·n·lo) mod y, and the
// DBTok plane narrows to the range. Polynomials are shared, not copied —
// which also keeps batch-level pointer dedup effective inside every
// shard.
func shardQuery(q *Query, n int, sh *engineShard) *Query {
	y := q.YBits
	shift := ChunkPhi(n, sh.lo, y)
	sub := &Query{
		YBits:     q.YBits,
		AlignBits: q.AlignBits,
		DBBitLen:  sh.sub.BitLen,
		NumChunks: sh.hi - sh.lo,
		Residues:  q.Residues,
		DBTok:     q.DBTok[sh.lo:sh.hi],
		RHS:       make(map[int]ring.Poly, len(q.RHS)),
		HitsOnly:  true, // candidates are generated once over merged bitmaps
	}
	for _, res := range q.Residues {
		for j := 0; j < sub.NumChunks; j++ {
			psiLocal := PatternPhase(n, j, res, y)
			if _, ok := sub.RHS[psiLocal]; ok {
				continue
			}
			if rhs, ok := q.RHS[(psiLocal+shift)%y]; ok {
				sub.RHS[psiLocal] = rhs
			}
		}
	}
	return sub
}

// SearchAndIndex implements Engine: it fans the query out to every
// shard concurrently and merges the hit bitmaps at global offsets.
//
//cm:pooled
func (e *ShardedEngine) SearchAndIndex(q *Query) (*IndexResult, error) {
	if err := validateSearchQuery(e.db, q, true); err != nil {
		return nil, err
	}
	n := e.params.N
	type shardResult struct {
		ir  *IndexResult
		err error
	}
	results := make([]shardResult, len(e.shards))
	var wg sync.WaitGroup
	for i, sh := range e.shards {
		wg.Add(1)
		go func(i int, sh *engineShard) {
			defer wg.Done()
			results[i].ir, results[i].err = sh.engine.SearchAndIndex(shardQuery(q, n, sh))
		}(i, sh)
	}
	wg.Wait()

	ir := &IndexResult{Hits: make(HitBitmaps, len(q.Residues))}
	numWindows := len(e.db.Chunks) * n
	for _, res := range q.Residues {
		ir.Hits[res] = NewBitset(numWindows)
	}
	for i, sh := range e.shards {
		if results[i].err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, results[i].err)
		}
		sub := results[i].ir
		ir.Stats.add(sub.Stats)
		for res, bm := range sub.Hits {
			ir.Hits[res].OrAt(bm, sh.lo*n)
		}
		sub.Hits.Release() // per-shard bitmaps are transient: recycle them
	}
	if !q.HitsOnly {
		ir.Candidates = Candidates(ir.Hits, q.DBBitLen, q.YBits, q.AlignBits)
	}
	e.record(ir.Stats)
	return ir, nil
}

// SearchAndIndexBatch implements BatchSearcher: every shard receives a
// sub-batch of per-member sub-queries and runs it through its own batch
// path (native or sequential), then hit bitmaps merge back per member at
// global offsets. Pattern ciphertext pointers are shared between member
// queries and their shard sub-queries, so the batch-level dedup carries
// into every shard's kernel.
func (e *ShardedEngine) SearchAndIndexBatch(bq *BatchQuery) ([]*IndexResult, error) {
	if err := bq.validate(e.db); err != nil {
		return nil, err
	}
	n := e.params.N
	type shardResult struct {
		irs []*IndexResult
		err error
	}
	results := make([]shardResult, len(e.shards))
	var wg sync.WaitGroup
	for i, sh := range e.shards {
		wg.Add(1)
		go func(i int, sh *engineShard) {
			defer wg.Done()
			subs := make([]*Query, len(bq.Queries))
			for mi, q := range bq.Queries {
				subs[mi] = shardQuery(q, n, sh)
			}
			// No re-dedup: shardQuery reuses the members' polynomial
			// pointers, so shared DBTok/RHS stay pointer-shared.
			results[i].irs, results[i].err = SearchBatch(sh.engine, &BatchQuery{Queries: subs})
		}(i, sh)
	}
	wg.Wait()

	numWindows := len(e.db.Chunks) * n
	out := make([]*IndexResult, len(bq.Queries))
	for mi, q := range bq.Queries {
		ir := &IndexResult{Hits: make(HitBitmaps, len(q.Residues))}
		for _, res := range q.Residues {
			ir.Hits[res] = NewBitset(numWindows)
		}
		out[mi] = ir
	}
	var total Stats
	for i, sh := range e.shards {
		if results[i].err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, results[i].err)
		}
		for mi := range bq.Queries {
			sub := results[i].irs[mi]
			out[mi].Stats.add(sub.Stats)
			for res, bm := range sub.Hits {
				out[mi].Hits[res].OrAt(bm, sh.lo*n)
			}
			sub.Hits.Release() // per-shard bitmaps are transient: recycle them
		}
	}
	for mi, q := range bq.Queries {
		if !q.HitsOnly {
			out[mi].Candidates = Candidates(out[mi].Hits, q.DBBitLen, q.YBits, q.AlignBits)
		}
		total.add(out[mi].Stats)
	}
	e.record(total)
	return out, nil
}

var _ BatchSearcher = (*ShardedEngine)(nil)

// Describe implements Engine, e.g. "sharded[0:3]=serial [3:6]=serial".
func (e *ShardedEngine) Describe() string {
	var b strings.Builder
	b.WriteString("sharded")
	for _, sh := range e.shards {
		fmt.Fprintf(&b, " [%d:%d]=%s", sh.lo, sh.hi, sh.engine.Describe())
	}
	return b.String()
}

// Close closes every inner engine that supports closing.
func (e *ShardedEngine) Close() error {
	var first error
	for _, sh := range e.shards {
		if sh == nil || sh.engine == nil {
			continue
		}
		if c, ok := sh.engine.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
