package core

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"slices"

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
// polynomials across members (DedupTokens), so engines stream each
// distinct DBTok plane once and evaluate each distinct member once.
func NewBatchQuery(queries ...*Query) *BatchQuery {
	bq := &BatchQuery{Queries: queries}
	bq.DedupTokens()
	return bq
}

// DedupTokens rewrites content-identical match-token rows and
// polynomials (DBTok rows and RHS comparands) across members to one
// shared slice each, and returns the number of distinct ones. Queries
// prepared from the same client seed against the same database share
// their entire DBTok plane, so after deduplication the CPU engine
// recognises members on one plane, and identical members, by pointer
// identity. Tokens are keyed by a 64-bit content hash with a full
// compare only inside a hash bucket, so deduplication never copies the
// token stream.
func (bq *BatchQuery) DedupTokens() int {
	seed := maphash.MakeSeed()
	rows := make(map[uint64][][]byte)
	polys := make(map[uint64][]ring.Poly)
	distinct := 0
	for _, q := range bq.Queries {
		for i, tok := range q.DBTok {
			q.DBTok[i] = dedup(rows, maphash.Bytes(seed, tok), tok, bytes.Equal, &distinct)
		}
		for psi, rhs := range q.RHS {
			q.RHS[psi] = dedup(polys, polyHash(rhs), rhs, slices.Equal, &distinct)
		}
	}
	return distinct
}

// dedup returns the first value of buckets[h] equal to v, or records v
// there as a new distinct value.
func dedup[T any](buckets map[uint64][]T, h uint64, v T, equal func(a, b T) bool, distinct *int) T {
	for _, cand := range buckets[h] {
		if equal(cand, v) {
			return cand
		}
	}
	buckets[h] = append(buckets[h], v)
	*distinct++
	return v
}

// polyHash is FNV-1a over the coefficients.
func polyHash(p ring.Poly) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range p {
		h = (h ^ c) * 1099511628211
	}
	return h
}

// validate checks every member against the database of ring degree n,
// so a batch fails before any work starts rather than mid-pass.
func (bq *BatchQuery) validate(db *EncryptedDB, r *ring.Ring) error {
	for i, q := range bq.Queries {
		if err := ValidateTokenQuery(q, len(db.Chunks), db.BitLen, r); err != nil {
			return fmt.Errorf("core: batch member %d: %w", i, err)
		}
	}
	return nil
}

// samePlane reports whether a and b are one DBTok plane: the same
// row, by pointer, at every chunk (DedupTokens makes planes of one
// client against one database so, and a batch decoded off the wire
// shares its plane pool's rows).
func samePlane(a, b [][]byte) bool {
	for j := range a {
		if &a[j][0] != &b[j][0] {
			return false
		}
	}
	return true
}

// sameMember reports whether a and b search for exactly the same hits:
// the same plane, length, residues and RHS polynomials by pointer —
// the same hot query from several users, once deduplicated.
func sameMember(a, b *Query) bool {
	if a.YBits != b.YBits || !slices.Equal(a.Residues, b.Residues) ||
		len(a.RHS) != len(b.RHS) || !samePlane(a.DBTok, b.DBTok) {
		return false
	}
	for psi, p := range a.RHS {
		if o, ok := b.RHS[psi]; !ok || &o[0] != &p[0] {
			return false
		}
	}
	return true
}
