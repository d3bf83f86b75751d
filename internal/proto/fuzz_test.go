package proto

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/engine"
	"ciphermatch/internal/rng"
)

// The fuzz targets hold the wire layer to two properties a hostile peer
// cannot break: decoding arbitrary bytes never panics (errors only), and
// any payload that decodes successfully re-encodes to a canonical form
// that round-trips — encode(decode(x)) is a fixed point of the codec.
// Seeds are valid encodings plus truncations and bit flips of them, so
// the corpus starts at the interesting boundaries.

// fuzzSeedQuery builds a representative seeded-match query under the
// toy parameters.
func fuzzSeedQuery(tb testing.TB, p bfv.Params) *core.Query {
	return fuzzSeedQueryFor(tb, p, []byte{0xAB, 0xCD, 0xEF})
}

func fuzzSeedQueryFor(tb testing.TB, p bfv.Params, pattern []byte) *core.Query {
	tb.Helper()
	client, err := core.NewClient(core.Config{Params: p, Mode: core.ModeSeededMatch}, rng.NewSourceFromString("fuzz-seed"))
	if err != nil {
		tb.Fatal(err)
	}
	q, err := client.PrepareQuery(pattern, 8*len(pattern), 1280)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// unversionedQuery is a hand-built MsgQuery body in the retired
// un-versioned layout (YBits first, no sentinel/version words); the
// decoder must reject it at the first word. unversionedBatch is the
// MsgBatchQuery counterpart (name, pattern-pool count, members).
var (
	unversionedQuery = []byte{
		16, 0, 0, 0, // YBits
		8, 0, 0, 0, // AlignBits
		0, 5, 0, 0, // DBBitLen = 1280
		2, 0, 0, 0, // NumChunks
		1, 0, 0, 0, 0, 0, 0, 0, // one residue: 0
		0, 0, 0, 0, // no pattern ciphertexts
		0, 0, 0, 0, // no token rows
	}
	unversionedBatch = append([]byte{
		1, 0, 0, 0, 'c', // name
		0, 0, 0, 0, // empty pattern pool
		1, 0, 0, 0, // one member
	}, unversionedQuery...)
)

// fuzzSeedDB builds a small encrypted database under the toy parameters.
func fuzzSeedDB(tb testing.TB, p bfv.Params) *core.EncryptedDB {
	tb.Helper()
	client, err := core.NewClient(core.Config{Params: p}, rng.NewSourceFromString("fuzz-seed-db"))
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, 160)
	rng.NewSourceFromString("fuzz-db-data").Bytes(data)
	db, err := client.EncryptDatabase(data, 1280)
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// addWireSeeds registers enc plus truncated and corrupted variants.
func addWireSeeds(f *testing.F, enc []byte) {
	f.Add(enc)
	f.Add([]byte{})
	for _, cut := range []int{1, 4, len(enc) / 2, len(enc) - 1} {
		if cut >= 0 && cut < len(enc) {
			f.Add(enc[:cut])
		}
	}
	if len(enc) > 8 {
		flipped := bytes.Clone(enc)
		flipped[3] ^= 0xFF // corrupt a count word
		f.Add(flipped)
		flipped2 := bytes.Clone(enc)
		flipped2[len(enc)/2] ^= 0x01
		f.Add(flipped2)
	}
}

// malformedPlanes returns encodings of q whose DBTok plane breaks in
// each way a decoder must reject before it sizes anything from the
// plane: a row length word one off n either way, a payload cut inside
// the plane, and a plane count one off NumChunks either way. encode is
// EncodeQuery or a one-member EncodeNamedBatchQuery, and planeAt the
// offset of the plane's (for a batch, the pool's) first row.
func malformedPlanes(q *core.Query, p bfv.Params, encode func(*core.Query) []byte, planeAt int) map[string][]byte {
	lb := len(q.DBTok[0]) / p.N
	out := make(map[string][]byte)
	for _, d := range []int{-1, 1} {
		bad := *q
		bad.DBTok = slices.Clone(q.DBTok)
		bad.DBTok[0] = make([]byte, (p.N+d)*lb)
		copy(bad.DBTok[0], q.DBTok[0])
		out[fmt.Sprintf("row length n%+d", d)] = encode(&bad)
		bad = *q
		bad.NumChunks += d
		out[fmt.Sprintf("plane count NumChunks%+d", -d)] = encode(&bad)
	}
	enc := encode(q)
	out["truncated plane"] = enc[:planeAt+len(q.DBTok)*(4+p.N*p.QBytes())/2+1]
	return out
}

// malformedQueryPlanes and malformedBatchPlanes are malformedPlanes
// over q's single-query and one-member batch encodings.
func malformedQueryPlanes(q *core.Query, p bfv.Params) map[string][]byte {
	return malformedPlanes(q, p, func(q *core.Query) []byte { return EncodeQuery(q, p) }, 4*(8+len(q.Residues)))
}

func malformedBatchPlanes(q *core.Query, p bfv.Params) map[string][]byte {
	encode := func(q *core.Query) []byte {
		return EncodeNamedBatchQuery("corpus", &core.BatchQuery{Queries: []*core.Query{q}}, p)
	}
	return malformedPlanes(q, p, encode, 4+len("corpus")+16)
}

func FuzzDecodeQuery(f *testing.F) {
	p := bfv.ParamsToy()
	q := fuzzSeedQuery(f, p)
	addWireSeeds(f, EncodeQuery(q, p))
	addWireSeeds(f, unversionedQuery)
	f.Add(claimedPlaneQuery(100000, 1100))
	for _, name := range slices.Sorted(maps.Keys(malformedQueryPlanes(q, p))) {
		f.Add(malformedQueryPlanes(q, p)[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuery(data, p)
		if err != nil {
			return
		}
		canonical := EncodeQuery(q, p)
		back, err := DecodeQuery(canonical, p)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding failed: %v", err)
		}
		if !bytes.Equal(EncodeQuery(back, p), canonical) {
			t.Fatal("encode->decode->encode is not a fixed point")
		}
	})
}

// FuzzSearchDecodedQuery holds every engine to a bound a hostile peer
// cannot break: each payload that decodes is searched on a one-chunk
// toy database, by the CPU engine inline and on two workers and by the
// in-flash simulator, and no search may allocate more than 64 bytes per
// payload byte plus 64 KiB, so nothing a search sizes (comparand rows,
// record room) outgrows what the peer sent. A seed carries 4096 copies
// of residue 0.
func FuzzSearchDecodedQuery(f *testing.F) {
	p := bfv.ParamsToy()
	const dbBits = 1024 // one chunk at n = 64
	client, err := core.NewClient(core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}, rng.NewSourceFromString("fuzz-search"))
	if err != nil {
		f.Fatal(err)
	}
	data := make([]byte, dbBits/8)
	rng.NewSourceFromString("fuzz-search-data").Bytes(data)
	edb, err := client.EncryptDatabase(data, dbBits)
	if err != nil {
		f.Fatal(err)
	}
	q, err := client.PrepareQuery(data[40:43], 24, dbBits)
	if err != nil {
		f.Fatal(err)
	}
	addWireSeeds(f, EncodeQuery(q, p))
	dup := *q
	dup.Residues = make([]int, 4096)
	f.Add(EncodeQuery(&dup, p))
	var engines []core.Engine
	for _, spec := range []core.EngineSpec{
		{Kind: core.EngineSerial},
		{Kind: core.EnginePool, Workers: 2},
		{Kind: core.EngineSSD},
	} {
		eng, err := engine.Build(p, edb, spec)
		if err != nil {
			f.Fatal(err)
		}
		engines = append(engines, eng)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		q, err := DecodeQuery(payload, p)
		if err != nil {
			return
		}
		limit := 64*uint64(len(payload)) + 64<<10
		for _, eng := range engines {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ir, err := eng.SearchAndIndex(q)
			runtime.ReadMemStats(&after)
			if err == nil {
				ir.Release()
			}
			if b := after.TotalAlloc - before.TotalAlloc; b > limit {
				t.Fatalf("%s: search of a %d-byte payload (%d residues) allocated %d bytes, bound %d",
					eng.Describe(), len(payload), len(q.Residues), b, limit)
			}
		}
	})
}

func FuzzDecodeUploadDB(f *testing.F) {
	p := bfv.ParamsToy()
	addWireSeeds(f, EncodeUploadDB("corpus", core.EngineSpec{Kind: core.EnginePool, Workers: 2}, fuzzSeedDB(f, p), p))
	f.Fuzz(func(t *testing.T, data []byte) {
		name, spec, db, err := DecodeUploadDB(data, p)
		if err != nil {
			return
		}
		canonical := EncodeUploadDB(name, spec, db, p)
		name2, spec2, db2, err := DecodeUploadDB(canonical, p)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding failed: %v", err)
		}
		if name2 != name || spec2 != spec {
			t.Fatalf("metadata drifted: %q/%+v -> %q/%+v", name, spec, name2, spec2)
		}
		if db2.BitLen != db.BitLen || db2.NumSegments != db.NumSegments || len(db2.Chunks) != len(db.Chunks) {
			t.Fatal("database shape drifted through the round trip")
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	enc, err := EncodeResult([]int{0, 16, 1024, 99999})
	if err != nil {
		f.Fatal(err)
	}
	addWireSeeds(f, enc)
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecodeResult(data)
		if err != nil {
			return
		}
		canonical, err := EncodeResult(out)
		if err != nil {
			t.Fatalf("decoded offsets failed to re-encode: %v", err)
		}
		back, err := DecodeResult(canonical)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding failed: %v", err)
		}
		if len(back) != len(out) {
			t.Fatalf("length drifted: %d -> %d", len(out), len(back))
		}
		for i := range out {
			if back[i] != out[i] {
				t.Fatalf("offset %d drifted: %d -> %d", i, out[i], back[i])
			}
		}
	})
}

func FuzzDecodeBatchQuery(f *testing.F) {
	p := bfv.ParamsToy()
	q := fuzzSeedQuery(f, p)
	bq := &core.BatchQuery{Queries: []*core.Query{q, q}}
	addWireSeeds(f, EncodeNamedBatchQuery("corpus", bq, p))
	// Distinct members sharing one DBTok plane, and the retired
	// un-versioned layout (rejected, but its truncations and bit flips
	// start the corpus at the reject path's boundaries).
	q2 := fuzzSeedQueryFor(f, p, []byte{0x01, 0x02, 0x03, 0x04})
	addWireSeeds(f, EncodeNamedBatchQuery("corpus", &core.BatchQuery{Queries: []*core.Query{q, q2}}, p))
	addWireSeeds(f, unversionedBatch)
	for _, name := range slices.Sorted(maps.Keys(malformedBatchPlanes(q, p))) {
		f.Add(malformedBatchPlanes(q, p)[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		name, got, err := DecodeNamedBatchQuery(data, p)
		if err != nil {
			return
		}
		canonical := EncodeNamedBatchQuery(name, got, p)
		name2, back, err := DecodeNamedBatchQuery(canonical, p)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding failed: %v", err)
		}
		if name2 != name || len(back.Queries) != len(got.Queries) {
			t.Fatal("batch shape drifted through the round trip")
		}
	})
}
