package core

import (
	"fmt"
	"sync/atomic"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/ring"
)

// Engine is the backend-agnostic execution interface for secure search
// with server-side index generation (ModeSeededMatch). CIPHERMATCH's
// central claim is that the same addition-only algorithm runs on three
// substrates — CPU, processing-using-memory, and in-flash processing —
// and Engine is the seam that makes the substrates interchangeable: the
// serial CPU path (SerialEngine), the worker-pool CPU path (PoolEngine),
// the chunk-range composition (ShardedEngine) and the in-flash simulator
// (internal/ssd.Engine) all satisfy it and return identical results on
// identical inputs (see internal/engine's conformance test).
//
// Implementations must be safe for concurrent SearchAndIndex calls; the
// proto server issues them under a read lock.
type Engine interface {
	// SearchAndIndex executes Algorithm 1 line 10 plus index generation
	// and returns the per-variant hit bitmaps and candidate offsets. The
	// query must carry match tokens (ModeSeededMatch). The result's
	// bitmaps are pool-backed: callers own them and must Release (or
	// hand off) the IndexResult on every path.
	//
	//cm:pooled
	SearchAndIndex(q *Query) (*IndexResult, error)
	// Stats returns the cumulative operation counts of every search this
	// engine has executed.
	Stats() Stats
	// Describe returns a short human-readable engine description, e.g.
	// "serial" or "pool(8 workers)".
	Describe() string
}

// Engine kind names used by EngineSpec and the CLI flags.
const (
	EngineSerial = "serial"
	EnginePool   = "pool"
	EngineSSD    = "ssd"
)

// EngineSpec selects and parameterises an execution engine. The zero
// value means "serial, unsharded".
type EngineSpec struct {
	// Kind is one of EngineSerial, EnginePool, EngineSSD ("" = serial).
	// The SSD kind is only constructible where the in-flash simulator is
	// linked in (internal/engine, the ciphermatch facade, the proto
	// server); core's NewEngine rejects it.
	Kind string
	// Workers is the pool size for EnginePool (0 = GOMAXPROCS).
	Workers int
	// Shards > 1 splits the database into that many chunk ranges, each
	// searched by its own engine of the selected Kind (chunk-range
	// sharding; see ShardedEngine).
	Shards int
}

// String renders the spec in the form accepted by internal/engine.Parse.
func (s EngineSpec) String() string {
	kind := s.Kind
	if kind == "" {
		kind = EngineSerial
	}
	out := kind
	if kind == EnginePool && s.Workers > 0 {
		out = fmt.Sprintf("%s:%d", kind, s.Workers)
	}
	if s.Shards > 1 {
		out = fmt.Sprintf("%s/shards=%d", out, s.Shards)
	}
	return out
}

// NewEngine builds a CPU engine (serial or pool, optionally sharded) for
// an encrypted database. The SSD kind lives behind internal/engine (or
// the ciphermatch facade) because internal/ssd depends on this package.
func NewEngine(params bfv.Params, db *EncryptedDB, spec EngineSpec) (Engine, error) {
	var base func(int, *EncryptedDB) (Engine, error)
	switch spec.Kind {
	case "", EngineSerial:
		base = func(_ int, sub *EncryptedDB) (Engine, error) {
			return NewSerialEngine(params, sub), nil
		}
	case EnginePool:
		base = func(_ int, sub *EncryptedDB) (Engine, error) {
			return NewPoolEngine(params, sub, spec.Workers), nil
		}
	case EngineSSD:
		return nil, fmt.Errorf("core: the %q engine requires the in-flash simulator; build it via internal/engine or the ciphermatch facade", spec.Kind)
	default:
		return nil, fmt.Errorf("core: unknown engine kind %q", spec.Kind)
	}
	if spec.Shards > 1 {
		return NewShardedEngine(params, db, spec.Shards, base)
	}
	return base(0, db)
}

// validateSearchQuery is the shared request validation of every engine:
// shape agreement between query and database, plus the match tokens
// (DBTok plane, one polynomial per chunk) that server-side index
// generation needs.
func validateSearchQuery(db *EncryptedDB, q *Query, needTokens bool) error {
	if q.YBits < 1 {
		return fmt.Errorf("core: query has invalid length %d", q.YBits)
	}
	if q.AlignBits < 1 {
		return fmt.Errorf("core: query has invalid alignment %d", q.AlignBits)
	}
	if q.NumChunks != len(db.Chunks) {
		return fmt.Errorf("core: query prepared for %d chunks, database has %d",
			q.NumChunks, len(db.Chunks))
	}
	if q.DBBitLen != db.BitLen {
		return fmt.Errorf("core: query prepared for %d-bit database, have %d bits",
			q.DBBitLen, db.BitLen)
	}
	if needTokens && len(q.DBTok) != len(db.Chunks) {
		return fmt.Errorf("core: query DBTok plane has %d chunks, database has %d (search requires ModeSeededMatch tokens)",
			len(q.DBTok), len(db.Chunks))
	}
	return nil
}

// searchChunkRange is the shared CPU kernel: it executes index
// generation for every shift variant at once over chunks [lo, hi) of
// db, setting hit bits in the per-residue-index bitsets (global window
// indexing). All CPU engines — serial, pool, sharded — are schedules
// over this kernel, mirroring how the paper maps one algorithm onto
// different substrates.
//
// Seeded-match index generation reads only the first ciphertext
// component, so the kernel never touches C[1] — half the ciphertext
// bytes — and ring.SubCmpMultiBits folds the homomorphic subtraction
// and all R token comparisons into one streaming pass with no
// intermediate store: chunk j's first component and DBTok[j] are each
// read once per search (not once per residue), the R cache-resident RHS
// polynomials are the only other operands, and the only writes are hit
// bits in the packed bitsets. With a compacted database the reads are
// one sequential walk of the C0 arena plane.
//
// words holds the raw backing words of the per-variant bitsets
// (bitsetWords), built once per search by the caller: the kernel itself
// is allocation-free, so a pool worker re-entering it per chunk-range
// job pays nothing.
//
//cm:hotpath
func searchChunkRange(r *ring.Ring, db *EncryptedDB, q *Query, fq *FactoredQuery, lo, hi int, words [][]uint64) (Stats, error) {
	var st Stats
	if len(words) == 0 {
		return st, nil
	}
	n := r.N()
	y := q.YBits
	for j := lo; j < hi; j++ {
		row := fq.Row(ChunkPhi(n, j, y))
		if row == nil {
			//cm:allow hotpath -- cold error exit: a malformed query aborts the search, never taken per-chunk in steady state
			return st, fmt.Errorf("core: factored query has no RHS row for chunk %d", j)
		}
		r.SubCmpMultiBits(db.Chunks[j].C[0], fq.DBTok[j], row, words, j*n)
		st.HomAdds++
		st.ChunkStreams++
		st.CoeffCompares += int64(len(row)) * int64(n)
	}
	return st, nil
}

// add folds another stats sample into s.
func (s *Stats) add(o Stats) {
	s.HomAdds += o.HomAdds
	s.CoeffCompares += o.CoeffCompares
	s.ResultBytes += o.ResultBytes
	s.ChunkStreams += o.ChunkStreams
}

// statCounter is the embeddable cumulative-stats half of Engine. The
// counters are atomics, not a mutex-guarded struct: concurrent searches
// (the pool engine under a loaded server) record without serialising on
// a lock.
type statCounter struct {
	homAdds       atomic.Int64
	coeffCompares atomic.Int64
	resultBytes   atomic.Int64
	chunkStreams  atomic.Int64
}

func (c *statCounter) record(st Stats) {
	c.homAdds.Add(int64(st.HomAdds))
	c.coeffCompares.Add(st.CoeffCompares)
	c.resultBytes.Add(st.ResultBytes)
	c.chunkStreams.Add(st.ChunkStreams)
}

func (c *statCounter) Stats() Stats {
	return Stats{
		HomAdds:       int(c.homAdds.Load()),
		CoeffCompares: c.coeffCompares.Load(),
		ResultBytes:   c.resultBytes.Load(),
		ChunkStreams:  c.chunkStreams.Load(),
	}
}

// SerialEngine executes searches on the calling goroutine — the paper's
// CPU baseline. It is stateless between calls (the ring is shared and
// read-only), so concurrent searches are safe.
type SerialEngine struct {
	params bfv.Params
	ring   *ring.Ring
	db     *EncryptedDB
	statCounter
}

var _ Engine = (*SerialEngine)(nil)

// NewSerialEngine creates a serial engine over an encrypted database.
func NewSerialEngine(params bfv.Params, db *EncryptedDB) *SerialEngine {
	return &SerialEngine{params: params, ring: params.Ring(), db: db}
}

// SearchAndIndex implements Engine: one residue-fused pass over every
// chunk, all shift variants evaluated per chunk stream.
//
//cm:pooled
func (e *SerialEngine) SearchAndIndex(q *Query) (*IndexResult, error) {
	if err := validateSearchQuery(e.db, q, true); err != nil {
		return nil, err
	}
	fq, err := FactorQuery(e.ring, q, len(e.db.Chunks))
	if err != nil {
		return nil, err
	}
	n := e.params.N
	numWindows := len(e.db.Chunks) * n
	ir := &IndexResult{Hits: make(HitBitmaps, len(q.Residues))}
	words := make([][]uint64, len(q.Residues))
	for vi, res := range q.Residues {
		bm := NewBitset(numWindows)
		ir.Hits[res] = bm
		words[vi] = bm.Words()
	}
	st, err := searchChunkRange(e.ring, e.db, q, fq, 0, len(e.db.Chunks), words)
	if err != nil {
		ir.Release() // return the pooled bitsets on the error path
		return nil, err
	}
	ir.Stats.add(st)
	if !q.HitsOnly {
		ir.Candidates = Candidates(ir.Hits, q.DBBitLen, q.YBits, q.AlignBits)
	}
	e.record(ir.Stats)
	return ir, nil
}

// SearchAndIndexBatch implements BatchSearcher: one pass over the
// database evaluating every member per chunk (searchChunkRangeBatch),
// instead of one pass per member.
//
//cm:pooled
func (e *SerialEngine) SearchAndIndexBatch(bq *BatchQuery) ([]*IndexResult, error) {
	if err := bq.validate(e.db); err != nil {
		return nil, err
	}
	numChunks := len(e.db.Chunks)
	fqs, err := factorBatch(e.ring, bq, numChunks)
	if err != nil {
		return nil, err
	}
	bitmaps := newBatchBitmaps(bq, numChunks*e.params.N)
	memberStats := make([]Stats, len(bq.Queries))
	if err := searchChunkRangeBatch(e.ring, e.db, bq, fqs, 0, numChunks, bitmaps, memberStats); err != nil {
		return nil, err
	}
	results, total := assembleBatchResults(bq, bitmaps, memberStats)
	e.record(total)
	return results, nil
}

var _ BatchSearcher = (*SerialEngine)(nil)

// Describe implements Engine.
func (e *SerialEngine) Describe() string { return EngineSerial }
