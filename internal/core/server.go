package core

import (
	"fmt"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/ring"
)

func errMissingPhase(psi int) error {
	return fmt.Errorf("core: query missing pattern phase %d", psi)
}

// Stats accumulates the operation counts of a search; the performance model
// (internal/perfmodel) consumes these to compose end-to-end latency.
type Stats struct {
	// HomAdds is the number of homomorphic ring operations executed (the
	// only homomorphic operation CIPHERMATCH uses, §4.2.2). With the
	// residue-fused kernel this is one per chunk streamed — the single
	// subtraction whose difference is compared against every residue's
	// RHS — instead of one per (chunk, residue).
	HomAdds int
	// CoeffCompares is the number of coefficient comparisons performed by
	// index generation (still one per coefficient per residue).
	CoeffCompares int64
	// ResultBytes is the volume of result ciphertexts produced.
	ResultBytes int64
	// ChunkStreams counts how many times a database chunk's first
	// component was streamed from the ciphertext arena. A single-pass
	// search streams each chunk once, so ChunkStreams == NumChunks per
	// search regardless of the residue count — the arena-traffic
	// invariant the factored representation buys.
	ChunkStreams int64
}

// Server holds the encrypted database and executes secure string search
// (Algorithm 1, lines 10-12). It never sees the secret key. Index
// generation (SearchAndIndex) is delegated to an Engine; NewServer wires
// in the serial CPU engine, NewServerWithEngine accepts any substrate.
type Server struct {
	params bfv.Params
	ev     *bfv.Evaluator
	ring   *ring.Ring
	db     *EncryptedDB
	engine Engine
}

// NewServer creates a server over an encrypted database with the serial
// CPU engine.
func NewServer(params bfv.Params, db *EncryptedDB) *Server {
	return NewServerWithEngine(params, db, NewSerialEngine(params, db))
}

// NewServerWithEngine creates a server whose SearchAndIndex executes on
// the given engine (serial, pool, sharded, or the in-flash simulator).
// The engine must have been built over the same database.
func NewServerWithEngine(params bfv.Params, db *EncryptedDB, e Engine) *Server {
	return &Server{params: params, ev: bfv.NewEvaluator(params), ring: params.Ring(), db: db, engine: e}
}

// DB returns the stored encrypted database.
func (s *Server) DB() *EncryptedDB { return s.db }

// Engine returns the execution engine behind SearchAndIndex.
func (s *Server) Engine() Engine { return s.engine }

// SearchResult holds one result ciphertext per (variant, chunk), in the
// order of Query.Residues (ModeClientDecrypt).
type SearchResult struct {
	Results [][]*bfv.Ciphertext
	Stats   Stats
}

// Search performs the homomorphic additions of Algorithm 1 line 10 and
// returns the result ciphertexts for client-side index generation. This
// path ships ciphertexts back to the client, so it always runs on the
// CPU regardless of the configured engine.
func (s *Server) Search(q *Query) (*SearchResult, error) {
	if err := s.checkQuery(q); err != nil {
		return nil, err
	}
	n := s.params.N
	sr := &SearchResult{Results: make([][]*bfv.Ciphertext, len(q.Residues))}
	for vi, res := range q.Residues {
		row := make([]*bfv.Ciphertext, len(s.db.Chunks))
		for j, chunk := range s.db.Chunks {
			psi := PatternPhase(n, j, res, q.YBits)
			pattern, ok := q.Patterns[psi]
			if !ok {
				return nil, errMissingPhase(psi)
			}
			sum := s.ev.Add(chunk, pattern)
			row[j] = sum
			sr.Stats.HomAdds++
			sr.Stats.ResultBytes += int64(sum.SizeBytes(s.params))
		}
		sr.Results[vi] = row
	}
	return sr, nil
}

// IndexResult is the output of server-side index generation
// (ModeSeededMatch): per-variant window-hit bitmaps (packed Bitsets) and
// the final candidate offsets.
type IndexResult struct {
	Hits       HitBitmaps
	Candidates []int
	Stats      Stats
}

// Release recycles the result's hit-bitmap storage through the bitset
// pool. Call it when the result will not be used again (the wire server
// does, after encoding candidates); afterwards ir.Hits is empty. Safe on
// nil.
func (ir *IndexResult) Release() {
	if ir == nil {
		return
	}
	ir.Hits.Release()
}

// SearchAndIndex performs the homomorphic additions and then generates the
// match index on the server by comparing each result's first component
// against the query's match tokens ("encrypted match polynomial", §4.2.2).
// Only the hit pattern leaves the server, not the result ciphertexts. The
// work executes on the server's engine.
//
//cm:pooled
func (s *Server) SearchAndIndex(q *Query) (*IndexResult, error) {
	return s.engine.SearchAndIndex(q)
}

// SearchAndIndexBatch runs every member of bq through the server's
// engine in one batched pass where the engine supports it (sequentially
// otherwise), returning one IndexResult per member in member order.
//
//cm:pooled
func (s *Server) SearchAndIndexBatch(bq *BatchQuery) ([]*IndexResult, error) {
	return SearchBatch(s.engine, bq)
}

func (s *Server) checkQuery(q *Query) error {
	return validateSearchQuery(s.db, q, false)
}
