package ssd

import (
	"fmt"

	"ciphermatch/internal/core"
	"ciphermatch/internal/flash"
	"ciphermatch/internal/mathutil"
)

// CMSearch executes a secure string search entirely inside the SSD
// (CM-search, §4.3.2), residue-fused over the factored match-token
// representation: the hit condition (c0 - DBTok[j]) mod q == RHS[psi]
// becomes c0 + (q - DBTok[j]) == RHS[psi] mod 2^32, so the controller
// negates the per-chunk DBTok plane once, composes it as the operand
// page, and a single bop_add µ-program sweep (bit-serial homomorphic
// addition across all bitlines of each group's plane) serves every
// shift variant at once — the flash array is read once per search, not
// once per residue. Index generation then compares each c0 lane's sums
// against the R cache-resident RHS rows. Only the hit index leaves the
// drive.
//
// The query must carry match tokens (core.ModeSeededMatch).
func (s *SSD) CMSearch(q *core.Query) (*core.IndexResult, error) {
	if s.numChunks == 0 {
		return nil, fmt.Errorf("ssd: no database in the CIPHERMATCH region")
	}
	if !q.HasTokens() {
		return nil, fmt.Errorf("ssd: CM-search requires match tokens (core.ModeSeededMatch)")
	}
	if q.YBits < 1 || q.AlignBits < 1 {
		return nil, fmt.Errorf("ssd: query has invalid length %d or alignment %d", q.YBits, q.AlignBits)
	}
	if q.NumChunks != s.numChunks || q.DBBitLen != s.dbBitLen {
		return nil, fmt.Errorf("ssd: query prepared for %d chunks/%d bits, stored %d chunks/%d bits",
			q.NumChunks, q.DBBitLen, s.numChunks, s.dbBitLen)
	}
	if len(q.DBTok) != s.numChunks {
		return nil, fmt.Errorf("ssd: query DBTok plane has %d chunks, stored %d", len(q.DBTok), s.numChunks)
	}
	n := s.params.N
	fq, err := core.FactorQuery(s.params.Ring(), q, s.numChunks)
	if err != nil {
		return nil, err
	}
	// What the client shipped for this query (DBTok + RHS polynomials).
	s.ctrl.HostBytesIn += q.SizeBytes(s.params)

	ir := &core.IndexResult{Hits: make(core.HitBitmaps, len(q.Residues))}
	if len(q.Residues) == 0 {
		// Nothing to detect: FactorQuery returns an empty form (no
		// DBTok to negate), so answer before touching it.
		return ir, nil
	}
	numWindows := s.numChunks * n
	bms := make([]*core.Bitset, len(q.Residues))
	for vi, res := range q.Residues {
		bms[vi] = core.NewBitset(numWindows)
		ir.Hits[res] = bms[vi]
	}
	// Snapshot the controller counters so ir.Stats reports this call's
	// work (the cumulative counters stay in ControllerStats), keeping
	// per-call stats comparable across engines.
	startAdds := s.ctrl.HomAdds

	// Controller: negate the DBTok plane once (mod 2^32, two's
	// complement on the 32-bit lanes) so the in-flash addition computes
	// the difference the factored comparison needs.
	negTok := make([][]uint32, s.numChunks)
	for j := range negTok {
		p := fq.DBTok[j]
		out := make([]uint32, len(p))
		for i, c := range p {
			out[i] = -uint32(c)
		}
		negTok[j] = out
	}

	for g := 0; g < s.numGroups(); g++ {
		plane, block, wlBase, err := s.groupAddr(g)
		if err != nil {
			return nil, err
		}
		// Operand page: chunk j's c0 slot gets the negated DBTok
		// plane; c1 slots stay zero (seeded-match index generation
		// never reads second components).
		operand := s.composeGroup(g, func(slot int) []uint32 {
			j, c := slot/2, slot%2
			if c != 0 || j >= s.numChunks {
				return nil
			}
			return negTok[j]
		})

		// Controller: transpose operand to bit-planes (the software
		// unit pipelines this under the flash reads; accounted here,
		// discounted in the performance model).
		bPlanes := make([][]uint64, flash.OperandBits)
		for i := range bPlanes {
			bPlanes[i] = make([]uint64, s.cfg.Geometry.PageWords())
		}
		mathutil.TransposeToBitPlanes(operand, bPlanes)
		s.transpose()

		// Flash: bop_add — bit-serial addition across all bitlines
		// of the group, one sweep for every residue.
		sumPlanes, err := s.planes[plane].BitSerialAddPlanes(block, wlBase, bPlanes)
		if err != nil {
			return nil, err
		}
		sums := make([]uint32, s.cfg.Geometry.PageBits())
		mathutil.TransposeFromBitPlanes(sumPlanes, sums)
		s.transpose()
		// Count the per-chunk ciphertext operations actually
		// performed: occupied slots in this group, two slots
		// (c0, c1) per chunk, one fused evaluation per chunk.
		occupied := min((g+1)*s.lanesPerGroup, 2*s.numChunks) - g*s.lanesPerGroup
		if occupied > 0 {
			s.ctrl.HomAdds += occupied / 2
		}

		// Controller: index generation — compare each c0 lane's
		// differences against its chunk's R RHS comparands.
		for lane := 0; lane < s.lanesPerGroup; lane++ {
			slot := g*s.lanesPerGroup + lane
			j, c := slot/2, slot%2
			if c != 0 || j >= s.numChunks {
				continue
			}
			row := fq.Row(core.ChunkPhi(n, j, q.YBits))
			if row == nil {
				return nil, fmt.Errorf("ssd: factored query has no RHS row for chunk %d", j)
			}
			base := j * n
			laneSums := sums[lane*n : (lane+1)*n]
			for vi, rhs := range row {
				bm := bms[vi]
				for i, v := range laneSums {
					if uint64(v) == rhs[i] {
						bm.Set(base + i)
					}
				}
				ir.Stats.CoeffCompares += int64(n)
			}
			ir.Stats.ChunkStreams++
		}
		s.ctrl.IndexGenPages++
		s.ctrl.IndexGenTime += s.cfg.IndexGenLatency
		s.ctrl.IndexGenEnergy += s.cfg.Energy.IndexGenPerPage
	}
	if !q.HitsOnly {
		ir.Candidates = core.Candidates(ir.Hits, q.DBBitLen, q.YBits, q.AlignBits)
		s.ctrl.HostBytesOut += int64(len(ir.Candidates) * core.CandidateWireBytes)
	}
	ir.Stats.HomAdds = s.ctrl.HomAdds - startAdds
	return ir, nil
}
