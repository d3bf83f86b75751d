package core

import (
	"bytes"
	"slices"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

// factoredFixture builds a client in seeded-match mode, an encrypted
// multi-chunk database with planted occurrences, and a query for the
// planted pattern.
func factoredFixture(t *testing.T) (Config, *EncryptedDB, *Query) {
	t.Helper()
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, rng.NewSourceFromString("factored"))
	if err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 384) // 3 chunks at toy n=64
	rng.NewSourceFromString("factored-data").Bytes(db)
	query := []byte{0xAB, 0xCD, 0xEF}
	plantQuery(db, query, 24, 48)
	plantQuery(db, query, 24, 1016) // spans the chunk-0/chunk-1 boundary
	plantQuery(db, query, 24, 2000)
	edb, err := client.EncryptDatabase(db, 3072)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(query, 24, 3072)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, edb, q
}

// TestSearchSingleArenaPass pins the acceptance invariant of the
// residue-fused kernel: one search streams each chunk exactly once —
// Stats.ChunkStreams == NumChunks — even though the query has multiple
// shift variants.
func TestSearchSingleArenaPass(t *testing.T) {
	cfg, edb, q := factoredFixture(t)
	if len(q.Residues) < 2 {
		t.Fatalf("fixture has %d residues; need >1 for the invariant to bite", len(q.Residues))
	}
	eng := NewCPUEngine(cfg.Params, edb, 1)
	ir, err := eng.SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ir.Candidates) == 0 {
		t.Fatal("fixture found nothing")
	}
	if want := int64(len(edb.Chunks)); ir.Stats.ChunkStreams != want {
		t.Fatalf("ChunkStreams = %d, want %d (one arena pass)", ir.Stats.ChunkStreams, want)
	}
	if ir.Stats.HomAdds != len(edb.Chunks) {
		t.Fatalf("HomAdds = %d, want %d (one ring op per chunk)", ir.Stats.HomAdds, len(edb.Chunks))
	}
	// CoeffCompares still covers every residue: fusing the passes
	// does not skip comparisons.
	if want := int64(len(q.Residues)) * int64(len(edb.Chunks)) * int64(cfg.Params.N); ir.Stats.CoeffCompares != want {
		t.Fatalf("CoeffCompares = %d, want %d", ir.Stats.CoeffCompares, want)
	}
}

// TestBatchSharedPlaneSingleArenaPass: batch members prepared by the
// same client share one DBTok plane after dedup, so the whole batch
// costs one arena pass — ChunkStreams across members == NumChunks.
func TestBatchSharedPlaneSingleArenaPass(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, rng.NewSourceFromString("batch-pass"))
	if err != nil {
		t.Fatal(err)
	}
	db := make([]byte, 256) // 2 chunks
	rng.NewSourceFromString("batch-pass-data").Bytes(db)
	edb, err := client.EncryptDatabase(db, 2048)
	if err != nil {
		t.Fatal(err)
	}
	prepare := func(pat []byte) *Query {
		q, err := client.PrepareQuery(pat, len(pat)*8, 2048)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	bq := NewBatchQuery(
		prepare([]byte{0xAB, 0xCD, 0xEF}),
		prepare([]byte{0x01, 0x02, 0x03, 0x04}),
		prepare([]byte{0xAB, 0xCD, 0xEF}), // duplicate content
	)
	// Dedup must collapse the three members' DBTok planes to one.
	for mi := 1; mi < 3; mi++ {
		if &bq.Queries[mi].DBTok[0][0] != &bq.Queries[0].DBTok[0][0] {
			t.Fatalf("member %d DBTok not deduplicated", mi)
		}
	}
	eng := NewCPUEngine(cfg.Params, edb, 1)
	irs, err := eng.SearchAndIndexBatch(bq)
	if err != nil {
		t.Fatal(err)
	}
	var streams int64
	for _, ir := range irs {
		streams += ir.Stats.ChunkStreams
	}
	if want := int64(len(edb.Chunks)); streams != want {
		t.Fatalf("batch ChunkStreams = %d, want %d (one arena pass for the whole batch)", streams, want)
	}
}

// TestEncryptC0CallCounts pins the client-side token derivation cost:
// a cold client's PrepareQuery runs EncryptC0To once per chunk — NOT once
// per (residue, chunk), and not at all per phase (RHS is closed-form,
// see TestRHSClosedForm) — and after that only for chunks the client's
// token-plane memo does not hold yet. A client that encrypted the
// database derives its rows there, with no EncryptC0To at all.
func TestEncryptC0CallCounts(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: ModeSeededMatch}
	newClient := func() *Client {
		client, err := NewClient(cfg, rng.NewSourceFromString("c0-count"))
		if err != nil {
			t.Fatal(err)
		}
		return client
	}
	chunkBits := cfg.Params.N * SegmentBits
	prepare := func(client *Client, pattern []byte, chunks int) (*Query, int64) {
		t.Helper()
		start := encryptC0Calls.Load()
		q, err := client.PrepareQuery(pattern, 8*len(pattern), chunks*chunkBits)
		if err != nil {
			t.Fatal(err)
		}
		return q, encryptC0Calls.Load() - start
	}

	client := newClient()
	q, got := prepare(client, []byte{0xDE, 0xAD, 0xBE}, 3)
	chunks, phases, residues := int64(q.NumChunks), int64(len(q.RHS)), int64(len(q.Residues))
	if got != chunks {
		t.Fatalf("cold PrepareQuery ran EncryptC0To %d times, want one per chunk = %d", got, chunks)
	}
	if perResidue := residues*chunks + phases; got >= perResidue {
		t.Fatalf("token builder (%d calls) does not beat the per-residue derivation (%d)", got, perResidue)
	}
	if _, got := prepare(client, []byte{0x01, 0x02, 0x03, 0x04}, 3); got != 0 {
		t.Fatalf("second PrepareQuery ran EncryptC0To %d times, want 0", got)
	}
	if _, got := prepare(client, []byte{0xDE, 0xAD, 0xBE}, 5); got != 2 {
		t.Fatalf("PrepareQuery over 2 more chunks ran EncryptC0To %d times, want 2", got)
	}

	owner := newClient()
	if _, err := owner.EncryptDatabase(make([]byte, 3*chunkBits/8), 3*chunkBits); err != nil {
		t.Fatal(err)
	}
	if _, got := prepare(owner, []byte{0xDE, 0xAD, 0xBE}, 3); got != 0 {
		t.Fatalf("PrepareQuery after EncryptDatabase ran EncryptC0To %d times, want 0", got)
	}
}

// TestTokenPlaneDerivations holds both fills of the token-plane memo to
// the definition DBTok[j] = EncryptC0(t−1, src_j) − M, computed by a
// fresh client with the same seed, on a power-of-two and an odd
// modulus: the rows EncryptDatabase derives from its ciphertexts, the
// same rows after a second database of other content, and a query over
// more chunks than the database (derived rows, then lazily encrypted
// ones).
func TestTokenPlaneDerivations(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    bfv.Params
	}{{"toy", bfv.ParamsToy()}, {"paper", bfv.ParamsPaper()}, {"oddq", bfv.ParamsOddQ()}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Params: tc.p, AlignBits: 8, Mode: ModeSeededMatch}
			seed := "token-plane-" + tc.name
			client, err := NewClient(cfg, rng.NewSourceFromString(seed))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewClient(cfg, rng.NewSourceFromString(seed))
			if err != nil {
				t.Fatal(err)
			}
			ones := make([]uint64, tc.p.N)
			for i := range ones {
				ones[i] = tc.p.T - 1
			}
			onesPT, err := ref.enc.Encode(ones)
			if err != nil {
				t.Fatal(err)
			}
			mask := ref.mask
			check := func(what string, plane [][]byte) {
				t.Helper()
				for j, got := range plane {
					want := ref.ring.NewPoly()
					ref.encryptor.EncryptC0To(onesPT, ref.dbSource().ForkIndexed("chunk", j), want)
					ref.ring.Sub(want, mask, want)
					wantRow := make([]byte, tc.p.N*ref.ring.LaneBytes())
					ref.ring.PutLanes(wantRow, want)
					if !bytes.Equal(got, wantRow) {
						t.Fatalf("%s: row %d differs from the lanes of EncryptC0(t-1, src_%d) - M", what, j, j)
					}
				}
			}

			const dbChunks = 2
			chunkBytes := tc.p.N * SegmentBits / 8
			data := make([]byte, dbChunks*chunkBytes-5) // last chunk partly padding
			rng.NewSourceFromString("token-plane-data").Bytes(data)
			if _, err := client.EncryptDatabase(data, 8*len(data)); err != nil {
				t.Fatal(err)
			}
			if len(client.tokRows) != dbChunks {
				t.Fatalf("EncryptDatabase left %d memo rows, want %d", len(client.tokRows), dbChunks)
			}
			derived := slices.Clone(client.tokRows)
			check("EncryptDatabase", derived)

			rng.NewSourceFromString("token-plane-other").Bytes(data)
			if _, err := client.EncryptDatabase(data, 8*len(data)); err != nil {
				t.Fatal(err)
			}
			if !samePlane(client.tokRows, derived) {
				t.Fatal("a second database replaced memo rows")
			}
			check("second database", client.tokRows)

			q, err := client.PrepareQuery([]byte{0xC0, 0xFF, 0xEE}, 24, (dbChunks+2)*chunkBytes*8)
			if err != nil {
				t.Fatal(err)
			}
			if len(q.DBTok) != dbChunks+2 || !samePlane(derived, q.DBTok[:dbChunks]) {
				t.Fatalf("query over %d chunks does not start with the %d derived rows", len(q.DBTok), dbChunks)
			}
			check("derived then lazy", q.DBTok)
		})
	}
}

// TestQueriesShareTokenPlane: two queries of one client are on one
// DBTok plane by pointer before any DedupTokens call, and a shorter
// query's plane is a prefix of a longer one's.
func TestQueriesShareTokenPlane(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, rng.NewSourceFromString("share-plane"))
	if err != nil {
		t.Fatal(err)
	}
	dbBits := 3 * cfg.Params.N * SegmentBits
	q1, err := client.PrepareQuery([]byte{0xAB, 0xCD, 0xEF}, 24, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := client.PrepareQuery([]byte{0x01, 0x02, 0x03, 0x04}, 32, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	short, err := client.PrepareQuery([]byte{0x01}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !samePlane(q1.DBTok, q2.DBTok) || !samePlane(short.DBTok, q1.DBTok) {
		t.Fatal("queries of one client are not on one DBTok plane")
	}
	if &q1.DBTok[0] == &q2.DBTok[0] {
		t.Fatal("queries share one DBTok slice, want a slice each")
	}
}

// TestQueryPlaneHeaderIsOwn: rewriting a query's DBTok slice entries
// (what DedupTokens does) leaves the next query's plane alone.
func TestQueryPlaneHeaderIsOwn(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, rng.NewSourceFromString("own-header"))
	if err != nil {
		t.Fatal(err)
	}
	dbBits := 2 * cfg.Params.N * SegmentBits
	q1, err := client.PrepareQuery([]byte{0xAB, 0xCD, 0xEF}, 24, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(q1.DBTok)
	for j := range q1.DBTok {
		q1.DBTok[j] = make([]byte, len(q1.DBTok[j]))
	}
	q2, err := client.PrepareQuery([]byte{0xAB, 0xCD, 0xEF}, 24, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	if !samePlane(q2.DBTok, want) {
		t.Fatal("rewriting one query's DBTok entries changed the next query's plane")
	}
}

// TestRHSClosedForm pins the RHS rows to both of their derivations: the
// encryption-based definition EncryptC0(0, src_psi) − pattern_psi.C[0]
// + M, with pattern_psi = Encrypt(pt_psi, src_psi) encrypted here from
// the fork a client-decrypt query draws it from, and the closed form
// M − Δ·pt_psi the client computes, on a power-of-two and an odd
// modulus.
func TestRHSClosedForm(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    bfv.Params
	}{{"toy", bfv.ParamsToy()}, {"paper", bfv.ParamsPaper()}, {"oddq", bfv.ParamsOddQ()}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Params: tc.p, AlignBits: 8, Mode: ModeSeededMatch}
			client, err := NewClient(cfg, rng.NewSourceFromString("rhs-"+tc.name))
			if err != nil {
				t.Fatal(err)
			}
			query := []byte{0xC0, 0xFF, 0xEE}
			q, err := client.PrepareQuery(query, 24, 2*tc.p.N*SegmentBits)
			if err != nil {
				t.Fatal(err)
			}
			phases := patternPhases(tc.p.N, q.NumChunks, q.YBits, q.Residues)
			if len(q.RHS) == 0 || len(q.RHS) != len(phases) {
				t.Fatalf("%d RHS rows for %d pattern phases", len(q.RHS), len(phases))
			}
			r, mask := client.ring, client.mask
			zero, err := client.enc.Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			for psi, got := range q.RHS {
				pt, err := client.enc.EncodeUint16(buildPatternSegments(query, q.YBits, psi, tc.p.N))
				if err != nil {
					t.Fatal(err)
				}
				src := func() *rng.Source { return client.querySource().ForkIndexed("pattern", psi) }
				def := r.NewPoly()
				client.encryptor.EncryptC0To(zero, src(), def)
				r.Sub(def, client.encryptor.Encrypt(pt, src()).C[0], def)
				r.Add(def, mask, def)
				closed := r.NewPoly()
				r.MulScalar(pt.Coeffs, tc.p.Delta(), closed)
				r.Sub(mask, closed, closed)
				for i := range got {
					if got[i] != def[i] || got[i] != closed[i] {
						t.Fatalf("RHS[%d][%d] = %d, definition %d, closed form %d", psi, i, got[i], def[i], closed[i])
					}
				}
			}
		})
	}
}

// FuzzFactorPlane holds the batch row merge to its definition with no
// encryption involved: for members of one length and arbitrary
// alignments on one plane, at every chunk the merged row is the
// concatenation, in member order, of each member's
// RHS[PatternPhase(n, j, s, y)] over its residues s.
func FuzzFactorPlane(f *testing.F) {
	// logN, chunks-1, y-1, members-1, then each member's align-1.
	f.Add(uint8(6), uint16(2), uint16(47), uint8(1), uint8(7), uint8(3), uint8(0))       // 48 bits, 2 members
	f.Add(uint8(6), uint16(63), uint16(24), uint8(2), uint8(0), uint8(4), uint8(7))      // 25 bits, 3 members
	f.Add(uint8(10), uint16(255), uint16(1000), uint8(0), uint8(15), uint8(0), uint8(0)) // y > 16n
	f.Add(uint8(0), uint16(0), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0))        // n = 1, y = 1
	f.Fuzz(func(t *testing.T, logN uint8, chunks, yBits uint16, count, a0, a1, a2 uint8) {
		n := 1 << (logN % 11)
		numChunks := 1 + int(chunks%256)
		y := 1 + int(yBits%1024)
		var members []*Query
		for _, a := range []uint8{a0, a1, a2}[:1+count%3] {
			align := 1 + int(a%64)
			q := &Query{YBits: y, AlignBits: align, RHS: make(map[int]ring.Poly, y)}
			for s := 0; s < y; s += gcd(align, y) {
				q.Residues = append(q.Residues, s)
			}
			for psi := 0; psi < y; psi++ {
				q.RHS[psi] = ring.Poly{uint64(len(members))<<32 | uint64(psi)}
			}
			members = append(members, q)
		}
		fq, err := factorPlane(n, members, numChunks)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < numChunks; j++ {
			row := fq.Row(ChunkPhi(n, j, y))
			i := 0
			for mi, q := range members {
				for _, s := range q.Residues {
					want := q.RHS[PatternPhase(n, j, s, y)]
					if i >= len(row) || &row[i][0] != &want[0] {
						t.Fatalf("n=%d chunk %d: merged row entry %d is not member %d's residue %d comparand (row has %d entries)",
							n, j, i, mi, s, len(row))
					}
					i++
				}
			}
			if i != len(row) {
				t.Fatalf("n=%d chunk %d: merged row has %d entries, members have %d residues", n, j, len(row), i)
			}
		}
	})
}

// TestBuildPatternSegmentsBitwise holds the word-at-a-time pattern
// encoder to its definition, coefficient i bit b (MSB-first) = NOT
// query[(psi + 16i + b) mod y], computed one bit at a time, over
// lengths below, at and above one coefficient and not multiples of a
// byte, every phase, and degrees on both sides of one period.
func TestBuildPatternSegmentsBitwise(t *testing.T) {
	src := rng.NewSourceFromString("pattern-segments")
	for _, y := range []int{1, 3, 8, 15, 16, 17, 24, 31, 64, 100, 257} {
		query := make([]byte, (y+7)/8)
		src.Bytes(query)
		for _, n := range []int{4, 64} {
			for psi := 0; psi < y; psi++ {
				got := buildPatternSegments(query, y, psi, n)
				for i, v := range got {
					var want uint16
					for b := 0; b < SegmentBits; b++ {
						want = want<<1 | uint16(mathutil.GetBit(query, (psi+SegmentBits*i+b)%y)^1)
					}
					if v != want {
						t.Fatalf("y=%d psi=%d n=%d: coefficient %d = %#04x, bitwise %#04x", y, psi, n, i, v, want)
					}
				}
			}
		}
	}
}
