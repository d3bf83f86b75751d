package proto

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/rng"
)

func TestMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, MsgQuery, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgQuery || string(payload) != "hello" {
		t.Fatalf("roundtrip: type=%d payload=%q", msgType, payload)
	}
}

func TestMessageLimits(t *testing.T) {
	var buf bytes.Buffer
	// A forged oversized header must be rejected without allocation.
	buf.Write([]byte{MsgQuery, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadMessage(&buf); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestDBRoundtrip(t *testing.T) {
	p := bfv.ParamsToy()
	client, err := core.NewClient(core.Config{Params: p}, rng.NewSourceFromString("proto-db"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 160)
	rng.NewSourceFromString("payload").Bytes(data)
	db, err := client.EncryptDatabase(data, 1280)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeDB(EncodeDB(db, p), p)
	if err != nil {
		t.Fatal(err)
	}
	if back.BitLen != db.BitLen || back.NumSegments != db.NumSegments || len(back.Chunks) != len(db.Chunks) {
		t.Fatal("metadata lost")
	}
	r := p.Ring()
	for i := range db.Chunks {
		for c := range db.Chunks[i].C {
			if !r.Equal(back.Chunks[i].C[c], db.Chunks[i].C[c]) {
				t.Fatalf("chunk %d comp %d corrupted", i, c)
			}
		}
	}
}

// checkGoldenDigest pins an encoding to the SHA-256 recorded at the
// commit before the un-versioned layouts were deleted: the surviving
// encoders must keep emitting byte-identical v1 payloads.
func checkGoldenDigest(t *testing.T, what string, enc []byte, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != want {
		t.Fatalf("%s encoding changed: sha256 %s (%d bytes), golden %s", what, got, len(enc), want)
	}
}

func TestQueryRoundtrip(t *testing.T) {
	p := bfv.ParamsToy()
	client, err := core.NewClient(core.Config{Params: p, Mode: core.ModeSeededMatch}, rng.NewSourceFromString("proto-q"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery([]byte{0xAB, 0xCD, 0xEF}, 24, 1280)
	if err != nil {
		t.Fatal(err)
	}
	if !q.HasTokens() {
		t.Fatal("PrepareQuery did not produce match tokens")
	}
	checkGoldenDigest(t, "MsgQuery", EncodeNamedQuery("corpus", q, p),
		"268e93557272a77af96295106d49639649163938e237e018a96c60e5bdca3d90")
	back, err := DecodeQuery(EncodeQuery(q, p), p)
	if err != nil {
		t.Fatal(err)
	}
	if back.YBits != q.YBits || back.AlignBits != q.AlignBits ||
		back.DBBitLen != q.DBBitLen || back.NumChunks != q.NumChunks {
		t.Fatal("query metadata lost")
	}
	if len(back.Residues) != len(q.Residues) || len(back.DBTok) != len(q.DBTok) ||
		len(back.RHS) != len(q.RHS) {
		t.Fatal("query structure lost")
	}
	if len(back.Patterns) != 0 {
		t.Fatal("factored encoding shipped pattern ciphertexts")
	}
	r := p.Ring()
	for j := range q.DBTok {
		if !r.Equal(back.DBTok[j], q.DBTok[j]) {
			t.Fatalf("DBTok %d corrupted", j)
		}
	}
	for psi, rhs := range q.RHS {
		if !r.Equal(back.RHS[psi], rhs) {
			t.Fatalf("RHS %d corrupted", psi)
		}
	}
}

func TestResultRoundtrip(t *testing.T) {
	in := []int{0, 16, 1024, 99999, math.MaxUint32}
	enc, err := EncodeResult(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatal("length lost")
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatal("values lost")
		}
	}
	encEmpty, err := EncodeResult(nil)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := DecodeResult(encEmpty)
	if err != nil || len(empty) != 0 {
		t.Fatal("empty result roundtrip failed")
	}
}

// TestEncodeResultRejectsOverflow: offsets past the 4-byte wire encoding
// must fail loudly instead of truncating to the wrong position.
func TestEncodeResultRejectsOverflow(t *testing.T) {
	for _, bad := range [][]int{{math.MaxUint32 + 1}, {-1}, {0, 1 << 40}} {
		if _, err := EncodeResult(bad); err == nil {
			t.Fatalf("EncodeResult(%v) accepted an unrepresentable offset", bad)
		}
	}
	if _, err := EncodeBatchResult([][]int{{0}, {math.MaxUint32 + 1}}); err == nil {
		t.Fatal("EncodeBatchResult accepted an unrepresentable offset")
	}
}

// TestEncodeQueryDeterministic: the same query must encode to the same
// bytes run to run (maps are emitted sorted), including across a
// decode/re-encode cycle — batch dedup and caching key on encodings.
func TestEncodeQueryDeterministic(t *testing.T) {
	p := bfv.ParamsToy()
	client, err := core.NewClient(core.Config{Params: p, Mode: core.ModeSeededMatch, AlignBits: 1}, rng.NewSourceFromString("det"))
	if err != nil {
		t.Fatal(err)
	}
	// AlignBits 1 yields many residues, patterns and token rows — plenty
	// of map entries whose iteration order could leak.
	q, err := client.PrepareQuery([]byte{0xAB, 0xCD}, 16, 1280)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeQuery(q, p)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(EncodeQuery(q, p), enc) {
			t.Fatal("EncodeQuery is not byte-stable across runs")
		}
	}
	back, err := DecodeQuery(enc, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeQuery(back, p), enc) {
		t.Fatal("decode/re-encode changed the byte encoding")
	}
}

// TestBatchQueryRoundtrip: members survive the pooled batch encoding,
// and members sharing token content come back sharing pool pointers.
func TestBatchQueryRoundtrip(t *testing.T) {
	p := bfv.ParamsToy()
	client, err := core.NewClient(core.Config{Params: p, Mode: core.ModeSeededMatch}, rng.NewSourceFromString("proto-batch"))
	if err != nil {
		t.Fatal(err)
	}
	q1, err := client.PrepareQuery([]byte{0xAB, 0xCD, 0xEF}, 24, 1280)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := client.PrepareQuery([]byte{0x01, 0x02, 0x03, 0x04}, 32, 1280)
	if err != nil {
		t.Fatal(err)
	}
	q3, err := client.PrepareQuery([]byte{0xAB, 0xCD, 0xEF}, 24, 1280) // same content as q1
	if err != nil {
		t.Fatal(err)
	}
	bq := &core.BatchQuery{Queries: []*core.Query{q1, q2, q3}}
	enc := EncodeNamedBatchQuery("corpus", bq, p)
	checkGoldenDigest(t, "MsgBatchQuery", enc,
		"fe64f059a1682df42c81784e0e855f3c10fce9ab63214184fc72cbf42df084ca")

	// The pool must collapse q3's polynomials into q1's: the batch encoding
	// must be well under the cost of shipping all three members whole.
	single := len(EncodeNamedQuery("corpus", q1, p)) + len(EncodeNamedQuery("corpus", q2, p)) + len(EncodeNamedQuery("corpus", q3, p))
	if len(enc) >= single {
		t.Fatalf("batch encoding (%d bytes) saved nothing over %d separate bytes", len(enc), single)
	}

	name, back, err := DecodeNamedBatchQuery(enc, p)
	if err != nil {
		t.Fatal(err)
	}
	if name != "corpus" || len(back.Queries) != 3 {
		t.Fatalf("name %q, %d members", name, len(back.Queries))
	}
	r := p.Ring()
	for mi, q := range bq.Queries {
		got := back.Queries[mi]
		if got.YBits != q.YBits || got.AlignBits != q.AlignBits || got.DBBitLen != q.DBBitLen || got.NumChunks != q.NumChunks {
			t.Fatalf("member %d metadata lost", mi)
		}
		if len(got.DBTok) != len(q.DBTok) || len(got.RHS) != len(q.RHS) {
			t.Fatalf("member %d structure lost", mi)
		}
		for j := range q.DBTok {
			if !r.Equal(got.DBTok[j], q.DBTok[j]) {
				t.Fatalf("member %d DBTok %d corrupted", mi, j)
			}
		}
		for psi, rhs := range q.RHS {
			if !r.Equal(got.RHS[psi], rhs) {
				t.Fatalf("member %d RHS %d corrupted", mi, psi)
			}
		}
	}
	// Every member comes from the same client against the same database,
	// so the deduplicated wire encoding must hand all three the SAME
	// DBTok plane object — one plane on the wire, one chunk stream in
	// the batch kernel.
	for mi := 1; mi < 3; mi++ {
		if &back.Queries[mi].DBTok[0][0] != &back.Queries[0].DBTok[0][0] {
			t.Fatalf("member %d DBTok plane not pool-shared", mi)
		}
	}
	// Duplicate members additionally share their RHS comparands.
	for psi, rhs := range back.Queries[0].RHS {
		if &back.Queries[2].RHS[psi][0] != &rhs[0] {
			t.Fatalf("RHS %d not pool-shared between duplicate members", psi)
		}
	}

	// Batch results round-trip per member.
	resEnc, err := EncodeBatchResult([][]int{{8, 1024}, nil, {0}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeBatchResult(resEnc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || len(res[0]) != 2 || res[0][1] != 1024 || len(res[1]) != 0 || res[2][0] != 0 {
		t.Fatalf("batch result round-trip lost data: %v", res)
	}
}

// TestFactoredWireRejectsHostileInput covers the structural checks of
// the query encodings: un-versioned payloads, unknown versions, DBTok
// planes that disagree with the header chunk count, out-of-range pool
// references, a non-empty pattern-ciphertext pool and non-factored
// member token kinds must all fail loudly — the fused kernels size
// loops and bitset writes from these fields.
func TestFactoredWireRejectsHostileInput(t *testing.T) {
	p := bfv.ParamsToy()
	client, err := core.NewClient(core.Config{Params: p, Mode: core.ModeSeededMatch}, rng.NewSourceFromString("hostile"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery([]byte{0xAB, 0xCD}, 16, 1280)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeQuery(q, p)

	// The retired un-versioned layouts are rejected at the first word —
	// before any count in them can size an allocation.
	if _, err := DecodeQuery(unversionedQuery, p); err == nil {
		t.Fatal("un-versioned query accepted")
	}
	if _, _, err := DecodeNamedBatchQuery(unversionedBatch, p); err == nil {
		t.Fatal("un-versioned batch accepted")
	}

	// Future version word (offset 4, right after the sentinel).
	bad := bytes.Clone(enc)
	bad[4] = 99
	if _, err := DecodeQuery(bad, p); err == nil {
		t.Fatal("unknown factored version accepted")
	}

	// DBTok plane shorter than the header's NumChunks: shrink the
	// chunk count field instead of re-deriving offsets.
	mismatched := q.DBTok
	q.DBTok = q.DBTok[:1]
	short := EncodeQuery(q, p)
	q.DBTok = mismatched
	if _, err := DecodeQuery(short, p); err == nil {
		t.Fatal("DBTok plane / NumChunks mismatch accepted")
	}

	// Truncations anywhere in the factored encoding must error.
	for _, cut := range []int{1, 4, 8, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeQuery(enc[:cut], p); err == nil {
			t.Fatalf("factored truncation at %d accepted", cut)
		}
	}

	// Batch: member referencing a DBTok plane / poly pool entry out of
	// range must be rejected. Corrupt the plane-pool reference by
	// encoding a batch and flipping the member's plane index (the last
	// u32 sequence is small; easier to build hostile bytes directly).
	bq := &core.BatchQuery{Queries: []*core.Query{q}}
	benc := EncodeNamedBatchQuery("h", bq, p)
	if _, _, err := DecodeNamedBatchQuery(benc, p); err != nil {
		t.Fatalf("honest batch rejected: %v", err)
	}
	for _, cut := range []int{1, 6, 10, len(benc) / 2, len(benc) - 1} {
		if _, _, err := DecodeNamedBatchQuery(benc[:cut], p); err == nil {
			t.Fatalf("batch truncation at %d accepted", cut)
		}
	}
	// A pattern-ciphertext pool (the count word follows name, sentinel
	// and version) is refused whatever its claimed size.
	for _, nct := range []uint32{1, math.MaxInt32} {
		mut := bytes.Clone(benc)
		binary.LittleEndian.PutUint32(mut[4+len("h")+8:], nct)
		if _, _, err := DecodeNamedBatchQuery(mut, p); err == nil {
			t.Fatalf("batch with a %d-entry ciphertext pool accepted", nct)
		}
	}
	// Member token kinds 0 (tokenless) and 1 (inline expanded tokens):
	// the single member's kind word sits before its plane index, RHS
	// count and the (psi, pool index) pairs that end the payload.
	kindOff := len(benc) - 4*(3+2*len(q.RHS))
	if benc[kindOff] != batchTokFactored {
		t.Fatalf("test bug: byte %d is %d, not the member kind word", kindOff, benc[kindOff])
	}
	for _, kind := range []byte{0, 1} {
		mut := bytes.Clone(benc)
		mut[kindOff] = kind
		if _, _, err := DecodeNamedBatchQuery(mut, p); err == nil {
			t.Fatalf("batch member of kind %d accepted", kind)
		}
	}
	// Corrupt every single byte position and require: decode either
	// errors, or the re-encoded canonical form decodes again — no
	// panics, no unchecked pool references, no version skew.
	for i := 0; i < len(benc); i++ {
		mut := bytes.Clone(benc)
		mut[i] ^= 0xFF
		name, got, err := DecodeNamedBatchQuery(mut, p)
		if err != nil {
			continue
		}
		if _, _, err := DecodeNamedBatchQuery(EncodeNamedBatchQuery(name, got, p), p); err != nil {
			t.Fatalf("byte %d: mutated batch decoded but canonical re-encode failed: %v", i, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	p := bfv.ParamsToy()
	client, _ := core.NewClient(core.Config{Params: p}, rng.NewSourceFromString("trunc"))
	data := make([]byte, 16)
	db, _ := client.EncryptDatabase(data, 128)
	enc := EncodeDB(db, p)
	for _, cut := range []int{1, 7, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeDB(enc[:cut], p); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestEndToEndOverTCP runs the full two-round protocol over a real socket:
// upload encrypted database, search, receive indices.
func TestEndToEndOverTCP(t *testing.T) {
	p := bfv.ParamsToy()
	cfg := core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("tcp"))
	if err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 192)
	rng.NewSourceFromString("tcp-data").Bytes(data)
	query := []byte{0xFE, 0xED, 0xFA, 0xCE}
	for j := 0; j < 32; j++ {
		mathutil.SetBit(data, 200+j, mathutil.GetBit(query, j))
	}

	db, err := client.EncryptDatabase(data, 1536)
	if err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServer(p)
	go srv.Serve(l) //nolint:errcheck // returns when the listener closes

	conn, err := Dial(l.Addr().String(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.UploadDB("corpus", core.EngineSpec{}, db); err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(query, 32, 1536)
	if err != nil {
		t.Fatal(err)
	}
	got, err := conn.Search("corpus", q)
	if err != nil {
		t.Fatal(err)
	}

	// Must equal the local search result.
	local := core.NewServer(p, db)
	ir, err := local.SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ir.Candidates) {
		t.Fatalf("remote %v != local %v", got, ir.Candidates)
	}
	for i := range got {
		if got[i] != ir.Candidates[i] {
			t.Fatalf("remote %v != local %v", got, ir.Candidates)
		}
	}
	found := false
	for _, c := range got {
		if c == 200 {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted occurrence at 200 missing from %v", got)
	}

	// A payload in a retired un-versioned layout, or a truncated one,
	// comes back as a typed MsgError and the connection stays usable.
	for _, bad := range []struct {
		msgType byte
		payload []byte
	}{
		{MsgQuery, append([]byte{6, 0, 0, 0, 'c', 'o', 'r', 'p', 'u', 's'}, unversionedQuery...)},
		{MsgBatchQuery, unversionedBatch},
		{MsgQuery, EncodeNamedQuery("corpus", q, p)[:64]},
	} {
		reply, _, err := conn.roundTrip(bad.msgType, bad.payload)
		if err != nil || reply != MsgError {
			t.Fatalf("malformed type-%d payload: reply %d, err %v; want MsgError", bad.msgType, reply, err)
		}
	}
	if again, err := conn.Search("corpus", q); err != nil || !equalInts(again, got) {
		t.Fatalf("search after rejected payloads: %v, err %v; want %v", again, err, got)
	}

	// Searching without tokens must be rejected client-side.
	q.DBTok, q.RHS = nil, nil
	if _, err := conn.Search("corpus", q); err == nil {
		t.Fatal("tokenless remote search accepted")
	}
}

// TestBatchSearchOverTCP runs a batched multi-query search over a real
// socket and checks every member against its local sequential result.
func TestBatchSearchOverTCP(t *testing.T) {
	p := bfv.ParamsToy()
	cfg := core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("tcp-batch"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 192)
	rng.NewSourceFromString("tcp-batch-data").Bytes(data)
	patterns := [][]byte{
		{0xFE, 0xED, 0xFA, 0xCE},
		{0x10, 0x20, 0x30, 0x40},
		{0xFE, 0xED, 0xFA, 0xCE}, // duplicate: exercises the wire pattern pool
	}
	for j := 0; j < 32; j++ {
		mathutil.SetBit(data, 200+j, mathutil.GetBit(patterns[0], j))
		mathutil.SetBit(data, 512+j, mathutil.GetBit(patterns[1], j))
	}
	db, err := client.EncryptDatabase(data, 1536)
	if err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := NewServerWithSpec(p, core.EngineSpec{Kind: core.EnginePool, Workers: 2})
	go srv.Serve(l) //nolint:errcheck // returns when the listener closes
	defer srv.Store().Close()

	conn, err := Dial(l.Addr().String(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.UploadDB("corpus", core.EngineSpec{}, db); err != nil {
		t.Fatal(err)
	}
	queries := make([]*core.Query, len(patterns))
	for i, pat := range patterns {
		if queries[i], err = client.PrepareQuery(pat, 32, 1536); err != nil {
			t.Fatal(err)
		}
	}
	results, err := conn.SearchBatch("corpus", queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	local := core.NewServer(p, db)
	for i, q := range queries {
		ir, err := local.SearchAndIndex(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(results[i]) != len(ir.Candidates) {
			t.Fatalf("member %d: remote %v != local %v", i, results[i], ir.Candidates)
		}
		for j := range results[i] {
			if results[i][j] != ir.Candidates[j] {
				t.Fatalf("member %d: remote %v != local %v", i, results[i], ir.Candidates)
			}
		}
	}
	// The batch must have counted every member in the listing stats.
	infos, err := conn.ListDBs()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Searches != len(queries) {
		t.Fatalf("listing %+v: want %d searches", infos, len(queries))
	}

	// A tokenless member must be rejected client-side.
	queries[1].DBTok, queries[1].RHS = nil, nil
	if _, err := conn.SearchBatch("corpus", queries); err == nil {
		t.Fatal("tokenless batch member accepted")
	}
}
