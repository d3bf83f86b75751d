package core

import (
	"fmt"

	"ciphermatch/internal/ring"
)

// FactoredQuery is the kernel-ready factored form of a seeded-match
// query: the per-chunk DBTok plane plus, for every chunk phase phi that
// occurs in the database, one RHS polynomial per shift variant. The
// residue-fused kernels stream chunk j's first component and DBTok[j]
// once and compare the difference against Row(phi_j) — all residues in
// a single arena pass. Building it is pointer arrangement only (a phase
// lookup per residue); no polynomial is copied or computed.
type FactoredQuery struct {
	// DBTok[j] is the chunk-dependent comparand subtracted from chunk
	// j's first component: the client's masked plane.
	DBTok []ring.Poly
	// rows[phi][ri] is the comparand for residue index ri on chunks
	// with ChunkPhi == phi. Keyed by map, not a y-sized array: y comes
	// off the wire, and the number of phases actually occurring is
	// bounded by the chunk count, not by y.
	rows map[int][]ring.Poly
}

// Row returns the per-residue-index RHS polynomials for chunks of phase
// phi (nil when no chunk in range has that phase).
//
//cm:hotpath
func (fq *FactoredQuery) Row(phi int) []ring.Poly {
	//cm:allow hotpath -- phase-keyed map lookup: once per chunk, amortised over the n-coefficient stream
	return fq.rows[phi]
}

func errMissingRHS(psi int) error {
	return fmt.Errorf("core: query missing RHS for phase %d", psi)
}

// FactorQuery arranges q into the kernel-ready form for a database of
// numChunks chunks. The query must already have passed
// validateSearchQuery.
func FactorQuery(r *ring.Ring, q *Query, numChunks int) (*FactoredQuery, error) {
	if len(q.Residues) == 0 {
		return &FactoredQuery{}, nil
	}
	y := q.YBits
	n := r.N()
	fq := &FactoredQuery{DBTok: q.DBTok, rows: make(map[int][]ring.Poly)}
	for j := 0; j < numChunks; j++ {
		phi := ChunkPhi(n, j, y)
		if fq.rows[phi] != nil {
			continue
		}
		row := make([]ring.Poly, len(q.Residues))
		for ri, s := range q.Residues {
			psi := ((phi-s)%y + y) % y
			rhs, ok := q.RHS[psi]
			if !ok {
				return nil, errMissingRHS(psi)
			}
			row[ri] = rhs
		}
		fq.rows[phi] = row
	}
	return fq, nil
}
