package core

import (
	"fmt"

	"ciphermatch/internal/ring"
)

// FactoredQuery is the kernel-ready factored form of one (DBTok plane,
// length) group of a search: the per-chunk DBTok plane plus, for every
// chunk phase that occurs in the database, one row of RHS comparands.
// The fused kernel streams chunk j's first component and DBTok[j] once
// and compares the difference against the chunk's row — every residue
// of every member in a single arena pass. Building it is pointer
// arrangement only (a phase lookup per residue); no polynomial is
// copied or computed.
//
// A single query is a group with one member. A batch folds the members
// that share a plane and a length into one FactoredQuery: a row is the
// concatenation of the members' rows, in member order.
type FactoredQuery struct {
	// DBTok[j] is the chunk-dependent comparand subtracted from chunk
	// j's first component: the client's masked plane.
	DBTok []ring.Poly
	// y is the members' common length: chunk j's row is keyed on
	// ChunkPhi(n, j, y).
	y int
	// rows[phi] is the comparand row of chunks with ChunkPhi == phi.
	// Keyed by map, not a y-sized array: y comes off the wire, and the
	// number of phases actually occurring is bounded by the chunk count.
	rows map[int][]ring.Poly
}

// Row returns the RHS polynomials for chunks of phase phi (nil when no
// chunk in range has that phase). For a single query's FactorQuery,
// phi is ChunkPhi(n, j, q.YBits) and the row holds one polynomial per
// residue index.
//
//cm:hotpath
func (fq *FactoredQuery) Row(phi int) []ring.Poly {
	//cm:allow hotpath -- phase-keyed map lookup: once per chunk, amortised over the n-coefficient stream
	return fq.rows[phi]
}

// chunkRow returns the comparand row of chunk j at ring degree n.
//
//cm:hotpath
func (fq *FactoredQuery) chunkRow(n, j int) []ring.Poly {
	return fq.Row(ChunkPhi(n, j, fq.y))
}

func errMissingRHS(psi int) error {
	return fmt.Errorf("core: query missing RHS for phase %d", psi)
}

// FactorQuery arranges q into the kernel-ready form for a database of
// numChunks chunks. The query must already have passed
// validateSearchQuery.
func FactorQuery(r *ring.Ring, q *Query, numChunks int) (*FactoredQuery, error) {
	fq, err := factorPlane(r.N(), []*Query{q}, numChunks)
	if err != nil {
		return nil, err
	}
	return &fq, nil
}

// factorPlane folds members that share one DBTok plane and one length
// y into one FactoredQuery over numChunks chunks of degree n: a row for
// every chunk phase, the members' rows concatenated. Every member must
// already have passed validateSearchQuery.
func factorPlane(n int, members []*Query, numChunks int) (FactoredQuery, error) {
	width := 0
	for _, q := range members {
		width += len(q.Residues)
	}
	if width == 0 || numChunks == 0 {
		return FactoredQuery{}, nil
	}
	y := members[0].YBits
	fq := FactoredQuery{DBTok: members[0].DBTok, y: y, rows: make(map[int][]ring.Poly)}
	// Phases repeat with period y/gcd(16n, y) in j; one array backs every row.
	rows := make([]ring.Poly, 0, width*min(numChunks, y/gcd(SegmentBits*n, y)))
	for j := 0; j < numChunks; j++ {
		phi := ChunkPhi(n, j, y)
		if fq.rows[phi] != nil {
			continue
		}
		start := len(rows)
		for _, q := range members {
			for _, s := range q.Residues {
				psi := ((phi-s)%y + y) % y
				rhs, ok := q.RHS[psi]
				if !ok {
					return FactoredQuery{}, errMissingRHS(psi)
				}
				rows = append(rows, rhs)
			}
		}
		fq.rows[phi] = rows[start:len(rows):len(rows)]
	}
	return fq, nil
}
