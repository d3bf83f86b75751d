package core

import (
	"fmt"
	"sync"

	"ciphermatch/internal/ring"
)

// BatchQuery carries N independent queries destined for the same
// encrypted database, so an engine can amortise a single pass over
// db.Chunks across all of them. This is the throughput lever of a
// multi-user deployment: when many queries arrive against one hot
// database, walking the ciphertext chunks once per *batch* instead of
// once per *query* turns the dominant memory traffic into shared work —
// the same data-reuse argument the paper makes for array-level
// parallelism inside the flash die.
//
// Members are fully independent: they may differ in length, alignment
// and shift variants. Members prepared by the same client against the
// same database (token randomness is seed-derived and therefore
// identical) share their DBTok plane — and, for the same hot query
// issued by several users, their RHS comparands — once the batch has
// been through DedupTokens.
type BatchQuery struct {
	// Queries are the member queries; results come back in this order.
	Queries []*Query
}

// NewBatchQuery assembles a batch and canonicalises shared match-token
// polynomials across members (DedupTokens), so batch kernels evaluate
// each distinct (chunk comparand, RHS) combination once per chunk.
func NewBatchQuery(queries ...*Query) *BatchQuery {
	bq := &BatchQuery{Queries: queries}
	bq.DedupTokens()
	return bq
}

// DedupTokens rewrites content-identical match-token polynomials (DBTok
// plane and RHS comparands) across members to one shared ring.Poly, and
// returns the number of distinct token polynomials. Queries prepared
// from the same client seed against the same database share their
// entire DBTok plane, so after deduplication the batch kernel
// recognises "same chunk comparand, same RHS" pairs by pointer identity
// and streams each chunk once for the whole group.
// Tokens are keyed by a 64-bit content hash with a full coefficient
// compare only inside a hash bucket, so deduplication never copies the
// token stream.
func (bq *BatchQuery) DedupTokens() int {
	buckets := make(map[uint64][]ring.Poly)
	distinct := 0
	dedup := func(p ring.Poly) ring.Poly {
		h := polyHash(p)
		for _, cand := range buckets[h] {
			if polysEqual(cand, p) {
				return cand
			}
		}
		buckets[h] = append(buckets[h], p)
		distinct++
		return p
	}
	for _, q := range bq.Queries {
		for i, tok := range q.DBTok {
			q.DBTok[i] = dedup(tok)
		}
		for psi, rhs := range q.RHS {
			q.RHS[psi] = dedup(rhs)
		}
	}
	return distinct
}

// polyHash is FNV-1a over the coefficients.
func polyHash(p ring.Poly) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range p {
		h = (h ^ c) * 1099511628211
	}
	return h
}

func polysEqual(a, b ring.Poly) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validate checks every member against the database, so a batch fails
// before any work starts rather than mid-pass.
func (bq *BatchQuery) validate(db *EncryptedDB) error {
	for i, q := range bq.Queries {
		if err := validateSearchQuery(db, q, true); err != nil {
			return fmt.Errorf("core: batch member %d: %w", i, err)
		}
	}
	return nil
}

// BatchSearcher is the batched extension of Engine: engines that can
// amortise one database pass across many queries implement it natively
// (serial, pool, sharded); SearchBatch falls back to sequential
// SearchAndIndex calls for engines that cannot (a physical drive
// serialises on its controller anyway).
type BatchSearcher interface {
	Engine
	// SearchAndIndexBatch executes every member of bq and returns one
	// IndexResult per member, in member order. Results are identical to
	// N sequential SearchAndIndex calls.
	SearchAndIndexBatch(bq *BatchQuery) ([]*IndexResult, error)
}

// SearchBatch dispatches bq to e's native batch implementation when it
// has one, and otherwise runs the members sequentially. Either way the
// results equal per-member SearchAndIndex calls in member order.
//
//cm:pooled
func SearchBatch(e Engine, bq *BatchQuery) ([]*IndexResult, error) {
	if bs, ok := e.(BatchSearcher); ok {
		return bs.SearchAndIndexBatch(bq)
	}
	return SearchAndIndexBatchSequential(e, bq)
}

// SearchAndIndexBatchSequential is the generic loop fallback: one
// SearchAndIndex call per member. Engines without a batched pass (the
// in-flash simulator, whose controller serialises commands) use it to
// satisfy BatchSearcher.
//
//cm:pooled
func SearchAndIndexBatchSequential(e Engine, bq *BatchQuery) ([]*IndexResult, error) {
	out := make([]*IndexResult, len(bq.Queries))
	for i, q := range bq.Queries {
		ir, err := e.SearchAndIndex(q)
		if err != nil {
			return nil, fmt.Errorf("core: batch member %d: %w", i, err)
		}
		out[i] = ir
	}
	return out, nil
}

// newBatchBitmaps allocates the per-(member, variant) hit bitsets of a
// batched search, each covering numWindows global windows.
func newBatchBitmaps(bq *BatchQuery, numWindows int) [][]*Bitset {
	bitmaps := make([][]*Bitset, len(bq.Queries))
	for mi, q := range bq.Queries {
		bitmaps[mi] = make([]*Bitset, len(q.Residues))
		for vi := range q.Residues {
			bitmaps[mi][vi] = NewBitset(numWindows)
		}
	}
	return bitmaps
}

// assembleBatchResults converts kernel output into per-member
// IndexResults (hit maps plus candidates unless the member is HitsOnly)
// and returns the batch-total stats for the engine's cumulative counter.
func assembleBatchResults(bq *BatchQuery, bitmaps [][]*Bitset, memberStats []Stats) ([]*IndexResult, Stats) {
	var total Stats
	out := make([]*IndexResult, len(bq.Queries))
	for mi, q := range bq.Queries {
		ir := &IndexResult{Hits: make(HitBitmaps, len(q.Residues)), Stats: memberStats[mi]}
		for vi, res := range q.Residues {
			ir.Hits[res] = bitmaps[mi][vi]
		}
		if !q.HitsOnly {
			ir.Candidates = Candidates(ir.Hits, q.DBBitLen, q.YBits, q.AlignBits)
		}
		total.add(ir.Stats)
		out[mi] = ir
	}
	return out, total
}

// factorBatch arranges every batch member into the kernel-ready form
// (FactorQuery) once per batched search, so chunk-range jobs share the
// arrangement instead of redoing it. Rows reference the members'
// (already deduplicated) RHS polynomials by pointer.
func factorBatch(r *ring.Ring, bq *BatchQuery, numChunks int) ([]*FactoredQuery, error) {
	fqs := make([]*FactoredQuery, len(bq.Queries))
	for mi, q := range bq.Queries {
		fq, err := FactorQuery(r, q, numChunks)
		if err != nil {
			return nil, fmt.Errorf("core: batch member %d: %w", mi, err)
		}
		fqs[mi] = fq
	}
	return fqs, nil
}

// batchScratch is the reusable per-chunk state of the batched kernel:
// one entry per evaluation class — a distinct (chunk comparand, RHS)
// pair, identified by first-coefficient addresses — plus the distinct
// chunk-comparand groups and the gather buffers one fused
// SubCmpMultiBits call per group needs. Lookups are a linear pointer
// scan — the class set never exceeds the batch's (member × variant)
// count, which is small. Scratches recycle through a sync.Pool so
// concurrent batch jobs on a loaded server stop allocating slabs
// entirely.
type batchScratch struct {
	pairClass []int // class index per (member, variant) pair, in order

	classDb    []*uint64   // chunk-comparand identity per class
	classRhs   []ring.Poly // RHS comparand per class
	classWords [][]uint64  // first pair's bitset words per class
	classFirst []int       // pair index of the class's first pair
	classOwner []int       // member the class's evaluation is accounted to

	groupDb  []*uint64   // distinct chunk-comparand identities
	groupTok []ring.Poly // the comparand polynomial per group

	rhsList  []ring.Poly // gather buffer: one SubCmpMultiBits call per group
	wordList [][]uint64
}

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// reset prepares the scratch for a new chunk.
func (s *batchScratch) reset() {
	s.pairClass = s.pairClass[:0]
	s.classDb = s.classDb[:0]
	s.classRhs = s.classRhs[:0]
	s.classWords = s.classWords[:0]
	s.classFirst = s.classFirst[:0]
	s.classOwner = s.classOwner[:0]
	s.groupDb = s.groupDb[:0]
	s.groupTok = s.groupTok[:0]
	s.rhsList = s.rhsList[:0]
	s.wordList = s.wordList[:0]
}

// scrub drops all polynomial/bitset references across the backing
// arrays before pooling, so a cached scratch never pins query data.
func (s *batchScratch) scrub() {
	clear(s.classDb[:cap(s.classDb)])
	clear(s.classRhs[:cap(s.classRhs)])
	clear(s.classWords[:cap(s.classWords)])
	clear(s.groupDb[:cap(s.groupDb)])
	clear(s.groupTok[:cap(s.groupTok)])
	clear(s.rhsList[:cap(s.rhsList)])
	clear(s.wordList[:cap(s.wordList)])
	s.reset()
}

// class returns the evaluation-class index of (dtok, rhs), adding a new
// class (and, when unseen, its comparand group) for new pairs.
func (s *batchScratch) class(dtok, rhs ring.Poly, words []uint64, pair, owner int) int {
	dbID, rhsID := &dtok[0], &rhs[0]
	for k := range s.classDb {
		if s.classDb[k] == dbID && &s.classRhs[k][0] == rhsID {
			return k
		}
	}
	s.classDb = append(s.classDb, dbID)
	s.classRhs = append(s.classRhs, rhs)
	s.classWords = append(s.classWords, words)
	s.classFirst = append(s.classFirst, pair)
	s.classOwner = append(s.classOwner, owner)
	found := false
	for _, g := range s.groupDb {
		if g == dbID {
			found = true
			break
		}
	}
	if !found {
		s.groupDb = append(s.groupDb, dbID)
		s.groupTok = append(s.groupTok, dtok)
	}
	return len(s.classDb) - 1
}

// searchChunkRangeBatch is the batched CPU kernel: one pass over chunks
// [lo, hi) evaluating every (member, variant) pair per chunk, so each
// ciphertext chunk is walked once per batch instead of once per query.
//
// Pairs are grouped into evaluation classes by (chunk comparand, RHS)
// pointer identity — after DedupTokens, members prepared
// by the same client against the same database share their whole DBTok
// plane, so all their residues collapse into one comparand group. Each
// group streams the chunk's first component through a single fused
// ring.SubCmpMultiBits call covering every distinct RHS in the group;
// duplicate pairs (the same hot query issued by several users) receive
// the identical verdict as a word-wise OR of that 64-windows-per-word
// range. Only first ciphertext components are touched; no difference
// polynomial is ever materialised.
//
// bitmaps[m][v] is member m's bitset for its variant v (global window
// indexing); memberStats[m] accumulates the work member m caused — a
// group's homomorphic subtraction and chunk stream are accounted to the
// member whose pair created the group, so per-member stats add up to
// the batch total.
func searchChunkRangeBatch(r *ring.Ring, db *EncryptedDB, bq *BatchQuery, fqs []*FactoredQuery, lo, hi int, bitmaps [][]*Bitset, memberStats []Stats) error {
	n := r.N()
	// Word-aligned chunk ranges let a class's verdict be copied as
	// whole words. All bfv parameter sets have n ≥ 64 (a multiple of
	// 64); for smaller rings duplicate pairs simply re-run the fused
	// kernel.
	aligned := n%64 == 0
	scratch := batchScratchPool.Get().(*batchScratch)
	defer func() {
		scratch.scrub()
		batchScratchPool.Put(scratch)
	}()
	for j := lo; j < hi; j++ {
		scratch.reset()
		chunkC0 := db.Chunks[j].C[0]
		base := j * n

		// Pass 1 — classify every (member, variant) pair.
		pair := 0
		for mi, q := range bq.Queries {
			if len(q.Residues) == 0 {
				continue
			}
			row := fqs[mi].Row(ChunkPhi(n, j, q.YBits))
			if row == nil {
				return fmt.Errorf("core: batch member %d: no RHS row for chunk %d", mi, j)
			}
			dtok := fqs[mi].DBTok[j]
			for vi := range q.Residues {
				k := scratch.class(dtok, row[vi], bitmaps[mi][vi].Words(), pair, mi)
				scratch.pairClass = append(scratch.pairClass, k)
				pair++
			}
		}

		// Pass 2 — one fused streaming evaluation per comparand group,
		// covering every distinct RHS of the group at once.
		for g, dbID := range scratch.groupDb {
			scratch.rhsList = scratch.rhsList[:0]
			scratch.wordList = scratch.wordList[:0]
			owner := -1
			for k := range scratch.classDb {
				if scratch.classDb[k] != dbID {
					continue
				}
				if owner < 0 {
					owner = scratch.classOwner[k]
				}
				scratch.rhsList = append(scratch.rhsList, scratch.classRhs[k])
				scratch.wordList = append(scratch.wordList, scratch.classWords[k])
			}
			r.SubCmpMultiBits(chunkC0, scratch.groupTok[g], scratch.rhsList, scratch.wordList, base)
			memberStats[owner].HomAdds++
			memberStats[owner].ChunkStreams++
		}

		// Pass 3 — propagate verdicts to duplicate pairs.
		pair = 0
		for mi, q := range bq.Queries {
			for vi := range q.Residues {
				k := scratch.pairClass[pair]
				memberStats[mi].CoeffCompares += int64(n)
				if scratch.classFirst[k] == pair {
					pair++
					continue
				}
				pair++
				words := bitmaps[mi][vi].Words()
				if aligned {
					// Identical (comparand, RHS) ⇒ identical verdict:
					// OR the evaluated word range across.
					w0, w1 := base>>6, (base+n)>>6
					src := scratch.classWords[k][w0:w1]
					dst := words[w0:w1]
					for i, w := range src {
						if w != 0 {
							dst[i] |= w
						}
					}
				} else {
					// Sub-word ring degree: chunk bit ranges share
					// words, so re-run the fused kernel (a real chunk
					// stream — count it) instead of a word-copy.
					r.SubCmpMultiBits(chunkC0, fqs[mi].DBTok[j], scratch.classRhs[k:k+1], [][]uint64{words}, base)
					memberStats[mi].HomAdds++
					memberStats[mi].ChunkStreams++
				}
			}
		}
	}
	return nil
}
