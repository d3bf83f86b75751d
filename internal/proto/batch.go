// Batch wire messages: MsgBatchQuery carries N independent queries
// against one named database in a single request, and MsgBatchResult
// returns the per-member candidate lists. Heavy payload travels through
// shared pools on the wire: token polynomials and whole DBTok planes are
// deduplicated by content — each distinct object travels once and
// members reference it by pool index. Dedup keys are encoded bytes,
// which is sound because the encoders are deterministic (maps are
// emitted in sorted key order). Decoding shares pool entries by pointer,
// so the CPU engine gets its pointer-identity grouping for free: members
// prepared by the same client against the same database share one DBTok
// plane on the wire AND one chunk stream in the kernel.

package proto

import (
	"fmt"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/ring"
)

// batchTokFactored is the member token-kind word of the v1 batch layout
// (DBTok plane index + RHS poly-pool references). Kinds 0 and 1 carried
// the retired tokenless and expanded-token members; the decoder rejects
// them.
const batchTokFactored = 2

// EncodeNamedBatchQuery frames a batch of queries addressed to a named
// database: name, sentinel, version, an empty pattern-ciphertext pool
// (a v1 layout slot no member references any more), polynomial pool,
// DBTok plane pool (index lists into the polynomial pool), then
// members. Members reference their DBTok plane by pool index — a batch
// of queries from one client against one database ships the plane
// exactly once.
func EncodeNamedBatchQuery(name string, bq *core.BatchQuery, p bfv.Params) []byte {
	var b buffer
	b.putString(name)
	b.putUint32(factoredSentinel)
	b.putInt(factoredWireVersion)
	qb, lb := p.QBytes(), ring.LaneBytesFor(p.Q)

	// Polynomial pool (DBTok rows and RHS comparands). A row or
	// polynomial seen before by address and length — one client's
	// queries share their DBTok rows — is not encoded and hashed again.
	// A row encodes as its widened polynomial (putLanes), so equal
	// contents share one entry whichever form they come in.
	type addr struct {
		row  *byte
		poly *uint64
		n    int
	}
	seen := make(map[addr]int)
	polyIndex := make(map[string]int)
	var polyPool []string
	intern := func(a addr, put func(*buffer)) int {
		if idx, ok := seen[a]; ok {
			return idx
		}
		var pb buffer
		put(&pb)
		key := string(pb.data)
		idx, ok := polyIndex[key]
		if !ok {
			idx = len(polyPool)
			polyIndex[key] = idx
			polyPool = append(polyPool, key)
		}
		seen[a] = idx
		return idx
	}
	polyRef := func(poly ring.Poly) int {
		a := addr{n: len(poly)} // every empty polynomial encodes alike
		if len(poly) > 0 {
			a.poly = &poly[0]
		}
		return intern(a, func(pb *buffer) { pb.putPoly(poly, qb) })
	}
	rowRef := func(row []byte) int {
		a := addr{n: len(row) / lb}
		if len(row) > 0 {
			a.row = &row[0]
		}
		return intern(a, func(pb *buffer) { pb.putLanes(row, lb, qb) })
	}
	// DBTok plane pool: a plane is its chunk-ordered poly-index list.
	planeIndex := make(map[string]int)
	var planePool [][]int
	planeRef := func(plane [][]byte) int {
		refs := make([]int, len(plane))
		var kb buffer
		for i, row := range plane {
			refs[i] = rowRef(row)
			kb.putInt(refs[i])
		}
		key := string(kb.data)
		idx, ok := planeIndex[key]
		if !ok {
			idx = len(planePool)
			planeIndex[key] = idx
			planePool = append(planePool, refs)
		}
		return idx
	}

	// First pass populates the pools in first-appearance order so the
	// encoding is deterministic; member sections are built alongside.
	var members buffer
	for _, q := range bq.Queries {
		members.putInt(q.YBits)
		members.putInt(q.AlignBits)
		members.putInt(q.DBBitLen)
		members.putInt(q.NumChunks)
		members.putInt(len(q.Residues))
		for _, r := range q.Residues {
			members.putInt(r)
		}
		members.putInt(0) // pattern references: none, as in putQuery
		members.putInt(batchTokFactored)
		members.putInt(planeRef(q.DBTok))
		members.putInt(len(q.RHS))
		for _, psi := range sortedKeys(q.RHS) {
			members.putInt(psi)
			members.putInt(polyRef(q.RHS[psi]))
		}
	}

	b.putInt(0) // pattern-ciphertext pool: always empty
	b.putInt(len(polyPool))
	for _, enc := range polyPool {
		b.data = append(b.data, enc...)
	}
	b.putInt(len(planePool))
	for _, refs := range planePool {
		b.putInt(len(refs))
		for _, ref := range refs {
			b.putInt(ref)
		}
	}
	b.putInt(len(bq.Queries))
	b.data = append(b.data, members.data...)
	return b.data
}

// DecodeNamedBatchQuery is the inverse of EncodeNamedBatchQuery.
// Members referencing the same pool entry share one object — RHS
// polynomials and whole DBTok planes come back pointer-shared, which is
// exactly the identity the CPU engine groups members by: one factored
// query per DBTok plane and length, one evaluation per identical member.
// Every pool entry's length word and bytes are checked up front. Plane
// rows are then token rows as DecodeQuery's are (sliced out of data
// when the wire width is the lane width, so the batch aliases data,
// else widened), and an entry an RHS references is decoded once, on
// first reference, into a polynomial of its own.
func DecodeNamedBatchQuery(data []byte, p bfv.Params) (string, *core.BatchQuery, error) {
	b := &buffer{data: data}
	name, err := b.string()
	if err != nil {
		return "", nil, err
	}
	if err := decodeWireVersion(b); err != nil {
		return "", nil, err
	}
	qb, lb := p.QBytes(), ring.LaneBytesFor(p.Q)
	if nct, err := b.int(); err != nil {
		return "", nil, err
	} else if nct != 0 {
		return "", nil, fmt.Errorf("proto: batch carries %d pattern ciphertexts; seeded-match batches ship none", nct)
	}
	npoly, err := b.count(4 + p.N*qb) // poly length word + n coefficients
	if err != nil {
		return "", nil, err
	}
	raw := make([][]byte, npoly)
	for i := range raw {
		if raw[i], err = b.coeffs(qb, p.N); err != nil {
			return "", nil, err
		}
	}
	rows, polys := tokenRows(raw, p.N, lb, qb), make([]ring.Poly, npoly)
	poly := func(idx int) ring.Poly {
		if polys[idx] == nil {
			polys[idx] = make(ring.Poly, p.N)
			loadCoeffs(polys[idx], raw[idx], qb)
		}
		return polys[idx]
	}
	nplane, err := b.count(4)
	if err != nil {
		return "", nil, err
	}
	planePool := make([][][]byte, nplane)
	for i := range planePool {
		cnt, err := b.count(4)
		if err != nil {
			return "", nil, err
		}
		plane := make([][]byte, cnt)
		for j := range plane {
			idx, err := b.int()
			if err != nil {
				return "", nil, err
			}
			if idx < 0 || idx >= npoly {
				return "", nil, fmt.Errorf("proto: batch plane %d references poly pool entry %d of %d", i, idx, npoly)
			}
			plane[j] = rows[idx]
		}
		planePool[i] = plane
	}
	nmem, err := b.count(36) // nine 4-byte words minimum per member
	if err != nil {
		return "", nil, err
	}
	queries := make([]*core.Query, nmem)
	for mi := range queries {
		q := &core.Query{}
		if err := decodeQueryHeader(b, q); err != nil {
			return "", nil, err
		}
		npat, err := b.int()
		if err != nil {
			return "", nil, err
		}
		kind, err := b.int()
		if err != nil {
			return "", nil, err
		}
		if npat != 0 || kind != batchTokFactored {
			return "", nil, fmt.Errorf("proto: batch member %d has %d pattern references and token kind %d; only factored members (kind %d, no patterns) are supported", mi, npat, kind, batchTokFactored)
		}
		planeIdx, err := b.int()
		if err != nil {
			return "", nil, err
		}
		if planeIdx < 0 || planeIdx >= len(planePool) {
			return "", nil, fmt.Errorf("proto: batch member %d references DBTok plane %d of %d", mi, planeIdx, len(planePool))
		}
		plane := planePool[planeIdx]
		if len(plane) != q.NumChunks {
			return "", nil, fmt.Errorf("proto: batch member %d DBTok plane has %d chunks, header says %d", mi, len(plane), q.NumChunks)
		}
		q.DBTok = plane
		nrhs, err := b.count(8) // psi word + pool-index word
		if err != nil {
			return "", nil, err
		}
		q.RHS = make(map[int]ring.Poly, nrhs)
		for i := 0; i < nrhs; i++ {
			psi, err := b.int()
			if err != nil {
				return "", nil, err
			}
			idx, err := b.int()
			if err != nil {
				return "", nil, err
			}
			if idx < 0 || idx >= npoly {
				return "", nil, fmt.Errorf("proto: batch member %d references poly pool entry %d of %d", mi, idx, npoly)
			}
			q.RHS[psi] = poly(idx)
		}
		queries[mi] = q
	}
	return name, &core.BatchQuery{Queries: queries}, nil
}

// EncodeBatchResult serialises per-member candidate offsets, in member
// order. Like EncodeResult, it rejects offsets the 4-byte encoding
// cannot represent.
func EncodeBatchResult(results [][]int) ([]byte, error) {
	var b buffer
	b.putInt(len(results))
	for mi, candidates := range results {
		if err := b.putCandidates(candidates); err != nil {
			return nil, fmt.Errorf("proto: batch member %d: %w", mi, err)
		}
	}
	return b.data, nil
}

// DecodeBatchResult is the inverse of EncodeBatchResult.
func DecodeBatchResult(data []byte) ([][]int, error) {
	b := buffer{data: data}
	n, err := b.count(4) // one count word minimum per member
	if err != nil {
		return nil, err
	}
	out := make([][]int, n)
	for i := range out {
		if out[i], err = b.candidates(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
