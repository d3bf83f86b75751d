package core

import (
	"errors"
	"fmt"

	"ciphermatch/internal/ring"
)

// FactoredQuery is the kernel-ready factored form of one (DBTok plane,
// length) group of a search: the per-chunk DBTok plane (token rows, as
// the query carries them) plus, for every chunk phase that occurs in
// the database, one row of RHS comparands.
// The fused kernel streams chunk j's first component and DBTok[j] once
// and compares the difference against the chunk's row — every residue
// of every member in a single arena pass. Arranging the rows is pointer
// work only (a phase lookup per residue); the engine then cuts each
// distinct comparand once into its 16-bit narrow form (cutNarrow).
//
// A single query is a group with one member. A batch folds the members
// that share a plane and a length into one FactoredQuery: a row is the
// concatenation of the members' rows, in member order.
type FactoredQuery struct {
	// DBTok[j] is the chunk-dependent comparand subtracted from chunk
	// j's first component, the client's masked plane, widened to a
	// Poly: FactorQuery fills it for replays through SubCmpMultiBits.
	// The engine's own factoring leaves it nil and sweeps tok.
	DBTok []ring.Poly
	// tok is the query's DBTok plane of token rows, the narrow
	// kernel's subtrahends.
	tok [][]byte
	// n and y are the ring degree and the members' common length:
	// chunk j's row is keyed on ChunkPhi(n, j, y).
	n, y int
	// width is the number of comparands in a row.
	width int
	// wide holds the rows back to back: chunk j's row is row j mod
	// (len(wide)/width). Phases repeat with period y/gcd(16n, y) in j,
	// so no more rows than that (or than chunks) exist; y comes off the
	// wire, and nothing here is sized from it alone.
	wide []ring.Poly
	// top[k] is wide[k] cut to its 16-bit narrow lanes, sharing one
	// block per distinct comparand, and low is a comparand whose low
	// part (below Δ) every comparand shares: the narrow kernel's
	// operands, set by cutNarrow.
	top [][]uint16
	low ring.Poly
}

// ErrNarrowRing reports a seeded search on a ring the 16-bit compare
// does not serve: q must be a power of two, so that Δ = q/t is one too,
// and the degree at least 64, so that every chunk covers whole bitset
// words. Every CPU search rejects it before its kernel runs, and the
// in-flash simulator (internal/ssd) refuses such a ring when the drive
// is built.
var ErrNarrowRing = errors.New("core: seeded search requires a power-of-two modulus and a degree of at least 64")

// ErrRHSLowBits reports a group of RHS rows that disagree below Δ:
// every comparand of one DBTok plane carries the client mask's low part
// M mod Δ, and the 16-bit compare relies on it. A search that breaks it
// fails before its kernel runs.
var ErrRHSLowBits = errors.New("core: query RHS rows disagree below Δ")

// Row returns the RHS polynomials for chunks of phase phi (nil when no
// chunk in range has that phase). For a single query's FactorQuery,
// phi is ChunkPhi(n, j, q.YBits) and the row holds one polynomial per
// residue index.
//
//cm:hotpath
func (fq *FactoredQuery) Row(phi int) []ring.Poly {
	for k := 0; k*fq.width < len(fq.wide); k++ {
		if ChunkPhi(fq.n, k, fq.y) == phi {
			return fq.wide[k*fq.width : (k+1)*fq.width : (k+1)*fq.width]
		}
	}
	return nil
}

// narrowRow returns the narrow lanes of chunk j's comparand row.
//
//cm:hotpath
func (fq *FactoredQuery) narrowRow(j int) [][]uint16 {
	k := j % (len(fq.top) / fq.width) * fq.width
	return fq.top[k : k+fq.width : k+fq.width]
}

func errMissingRHS(psi int) error {
	return fmt.Errorf("core: query missing RHS for phase %d", psi)
}

// FactorQuery arranges q into the kernel-ready form for a database of
// numChunks chunks, with the DBTok plane also widened into DBTok for a
// replay through the 64-bit SubCmpMultiBits. The query must already
// have passed ValidateTokenQuery.
func FactorQuery(r *ring.Ring, q *Query, numChunks int) (*FactoredQuery, error) {
	fq, err := factorPlane(r.N(), []*Query{q}, numChunks)
	if err == nil {
		err = fq.cutNarrow(r)
	}
	if err != nil {
		return nil, err
	}
	if fq.width > 0 {
		n := r.N()
		block := make(ring.Poly, len(fq.tok)*n)
		fq.DBTok = make([]ring.Poly, len(fq.tok))
		for j, row := range fq.tok {
			fq.DBTok[j] = block[j*n : (j+1)*n : (j+1)*n]
			r.WidenLanes(fq.DBTok[j], row)
		}
	}
	return &fq, nil
}

// factorPlane folds members that share one DBTok plane and one length
// y into one FactoredQuery over numChunks chunks of degree n: a row for
// every chunk phase, the members' rows concatenated. Every member must
// already have passed ValidateTokenQuery.
func factorPlane(n int, members []*Query, numChunks int) (FactoredQuery, error) {
	width := 0
	for _, q := range members {
		width += len(q.Residues)
	}
	if width == 0 || numChunks == 0 {
		return FactoredQuery{}, nil
	}
	y := members[0].YBits
	period := min(numChunks, y/gcd(SegmentBits*n, y))
	fq := FactoredQuery{tok: members[0].DBTok, n: n, y: y, width: width, wide: make([]ring.Poly, 0, width*period)}
	for j := 0; j < period; j++ {
		phi := ChunkPhi(n, j, y)
		for _, q := range members {
			for _, s := range q.Residues {
				psi := ((phi-s)%y + y) % y
				rhs, ok := q.RHS[psi]
				if !ok {
					return FactoredQuery{}, errMissingRHS(psi)
				}
				fq.wide = append(fq.wide, rhs)
			}
		}
	}
	return fq, nil
}

// rowPad is the gap, in lanes, between consecutive narrow comparand
// rows: one 128-byte block, so the rows' slices of one block position
// start 2n+128 bytes apart and walk through the L1 sets (see
// cutNarrow).
const rowPad = 64

// cutNarrow builds the narrow kernel's operands from the arranged rows:
// each distinct comparand (rows repeat across phases, and batch members
// share them) is cut once into one block of 16-bit rows, so the block
// is bounded by the query's own RHS bytes, not by rows × phases. Rows
// sit rowPad lanes apart beyond their n: the kernel's filter reads one
// 128-byte slice of every row per block position, and slices 2n bytes
// apart (a multiple of 4 KiB at n ≥ 2048, of 2 KiB at n = 1024) would
// share a handful of L1 sets and evict each other on every chunk of a
// tile. The same pass checks that every comparand shares the first
// one's low part below Δ, which the narrow kernel's guard compares
// against.
func (fq *FactoredQuery) cutNarrow(r *ring.Ring) error {
	if len(fq.wide) == 0 {
		return nil
	}
	n := r.N()
	if _, ok := r.NarrowShift(); !ok || n < 64 {
		return fmt.Errorf("%w: n = %d, q = %d", ErrNarrowRing, n, r.Q())
	}
	slot := make(map[*uint64]int) // distinct comparand → its block row
	for _, p := range fq.wide {
		if _, ok := slot[&p[0]]; !ok {
			slot[&p[0]] = len(slot)
		}
	}
	stride := n + rowPad
	block := make([]uint16, len(slot)*stride)
	fq.top = make([][]uint16, len(fq.wide))
	fq.low = fq.wide[0]
	agree, cut := true, 0
	for k, p := range fq.wide {
		i := slot[&p[0]]
		fq.top[k] = block[i*stride : i*stride+n : i*stride+n]
		if i == cut { // first occurrence: slots were numbered in this order
			agree = r.CutNarrow(p, fq.low, fq.top[k]) && agree
			cut++
		}
	}
	if !agree {
		return ErrRHSLowBits
	}
	return nil
}
