package ssd

import (
	"fmt"

	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/ring"
)

// CMSearch executes a secure string search entirely inside the SSD
// (CM-search, §4.3.2), residue-fused over the factored match-token
// representation: the hit condition (c0 - DBTok[j]) mod q == RHS[psi]
// becomes c0 + (q - DBTok[j]) == RHS[psi] mod 2^32, so the controller
// negates each chunk's DBTok row into that chunk's c0 lane of the
// operand page, and a single bop_add µ-program sweep (bit-serial
// homomorphic addition across all bitlines of each group's plane)
// serves every shift variant at once — the flash array is read once
// per search, not once per residue. Index generation then compares
// each c0 lane's sums against its chunk's R cache-resident RHS rows and
// emits the hit records (core.HitWords) straight from them. Only the
// hit index leaves the drive.
//
// The query is checked first with the CPU engine's validation
// (core.ValidateTokenQuery), so it must carry match tokens
// (core.ModeSeededMatch). The token rows are read as they came off the
// wire, widened one row at a time.
//
//cm:pooled
func (s *SSD) CMSearch(q *core.Query) (*core.IndexResult, error) {
	rows, err := s.comparands(q)
	if err != nil {
		return nil, err
	}
	return s.search(q, rows)
}

// comparands checks q against the stored database and returns chunk j's
// comparands in rows[j], one RHS polynomial per residue. It does no
// flash work, so a batch checks every member with it before searching
// any.
func (s *SSD) comparands(q *core.Query) ([][]ring.Poly, error) {
	if s.numChunks == 0 {
		return nil, fmt.Errorf("ssd: no database in the CIPHERMATCH region")
	}
	if err := core.ValidateTokenQuery(q, s.numChunks, s.dbBitLen, s.params.Ring()); err != nil {
		return nil, err
	}
	n, res := s.params.N, len(q.Residues)
	all := make([]ring.Poly, s.numChunks*res)
	rows := make([][]ring.Poly, s.numChunks)
	for j := range rows {
		rows[j] = all[j*res : (j+1)*res]
		for vi, r := range q.Residues {
			psi := core.PatternPhase(n, j, r, q.YBits)
			if rows[j][vi] = q.RHS[psi]; rows[j][vi] == nil {
				return nil, fmt.Errorf("ssd: query missing RHS for phase %d", psi)
			}
		}
	}
	return rows, nil
}

// search runs CM-search for a query comparands has checked, with its
// comparand rows. Records come out in canonical order with no sort:
// groups hold ascending chunks, every chunk covers whole 64-window
// words (New requires n ≥ 64), and each chunk's words are emitted in
// order, every residue's record of a word in row order.
//
//cm:pooled
func (s *SSD) search(q *core.Query, rows [][]ring.Poly) (*core.IndexResult, error) {
	// What the client shipped for this query (DBTok + RHS polynomials).
	s.ctrl.HostBytesIn += q.SizeBytes(s.params)
	ir := &core.IndexResult{Hits: core.NewHitWords(q.Residues)}
	if len(q.Residues) == 0 {
		// Nothing to detect: answer before touching the plane.
		return ir, nil
	}
	// Snapshot the controller counters so ir.Stats reports this call's
	// work (the cumulative counters stay in ControllerStats), keeping
	// per-call stats comparable across engines.
	startAdds := s.ctrl.HomAdds
	n, r := s.params.N, s.params.Ring()
	wide := r.NewPoly()
	for g := 0; g < s.numGroups(s.numChunks); g++ {
		plane, block, wlBase, err := s.groupAddr(g)
		if err != nil {
			ir.Release()
			return nil, err
		}
		// Operand page: chunk j's c0 lane gets its DBTok row negated
		// mod 2^32 (two's complement on the 32-bit lanes), so the
		// in-flash addition computes the difference the factored
		// comparison needs; c1 lanes stay zero (seeded-match index
		// generation never reads second components).
		operand := s.composeGroup(g, s.numChunks, func(j, c int, dst []uint32) {
			if c == 0 {
				r.WidenLanes(wide, q.DBTok[j])
				for i, v := range wide {
					dst[i] = -uint32(v)
				}
			}
		})

		// Controller: transpose operand to bit-planes (the software
		// unit pipelines this under the flash reads; accounted here,
		// discounted in the performance model).
		mathutil.TransposeToBitPlanes(operand, s.ops)
		s.transpose()

		// Flash: bop_add — bit-serial addition across all bitlines
		// of the group, one sweep for every residue.
		if err := s.planes[plane].BitSerialAddPlanes(block, wlBase, s.ops, s.sums); err != nil {
			ir.Release()
			return nil, err
		}
		sums := s.page
		mathutil.TransposeFromBitPlanes(s.sums, sums)
		s.transpose()
		// Count the per-chunk ciphertext operations actually
		// performed: occupied slots in this group, two slots
		// (c0, c1) per chunk, one fused evaluation per chunk.
		occupied := min((g+1)*s.lanesPerGroup, 2*s.numChunks) - g*s.lanesPerGroup
		if occupied > 0 {
			s.ctrl.HomAdds += occupied / 2
		}

		// Controller: index generation — compare each c0 lane's
		// differences against its chunk's R RHS comparands, 64
		// windows at a time, keeping the words that hold a hit.
		for lane := 0; lane < s.lanesPerGroup; lane++ {
			slot := g*s.lanesPerGroup + lane
			j := slot / 2
			if slot%2 != 0 || j >= s.numChunks {
				continue
			}
			laneSums := sums[lane*n : (lane+1)*n]
			for w := 0; w < n; w += 64 {
				for vi, rhs := range rows[j] {
					var m uint64
					for k, v := range laneSums[w : w+64] {
						if uint64(v) == rhs[w+k] {
							m |= 1 << k
						}
					}
					if m != 0 {
						ir.Hits.Words = append(ir.Hits.Words, ring.HitWord{Word: uint32((j*n + w) / 64), Row: uint32(vi), Mask: m})
					}
				}
			}
			ir.Stats.CoeffCompares += int64(n * len(rows[j]))
			ir.Stats.ChunkStreams++
		}
		s.ctrl.IndexGenPages++
		s.ctrl.IndexGenTime += s.cfg.IndexGenLatency
		s.ctrl.IndexGenEnergy += s.cfg.Energy.IndexGenPerPage
	}
	ir.Candidates = core.Candidates(ir.Hits, q.DBBitLen, q.YBits, q.AlignBits)
	s.ctrl.HostBytesOut += int64(len(ir.Candidates) * core.CandidateWireBytes)
	ir.Stats.HomAdds = s.ctrl.HomAdds - startAdds
	return ir, nil
}
