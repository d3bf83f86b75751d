package core

import (
	"fmt"
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

// DedupTokens rewrites content-identical match-token polynomials (DBTok
// plane and RHS comparands) across members to one shared ring.Poly, and
// returns the number of distinct token polynomials. Queries prepared
// from the same client seed against the same database share their
// entire DBTok plane, so after deduplication the CPU engine recognises
// members on one plane, and identical members, by pointer identity.
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

// validate checks every member against the database of ring degree n,
// so a batch fails before any work starts rather than mid-pass.
func (bq *BatchQuery) validate(db *EncryptedDB, n int) error {
	for i, q := range bq.Queries {
		if err := validateSearchQuery(db, q, n, true); err != nil {
			return fmt.Errorf("core: batch member %d: %w", i, err)
		}
	}
	return nil
}

// samePlane reports whether a and b are one DBTok plane: the same
// polynomial, by pointer, at every chunk (DedupTokens makes planes of
// one client against one database so).
func samePlane(a, b []ring.Poly) bool {
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
