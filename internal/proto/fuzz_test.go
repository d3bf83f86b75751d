package proto

import (
	"bytes"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
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

func FuzzDecodeQuery(f *testing.F) {
	p := bfv.ParamsToy()
	addWireSeeds(f, EncodeQuery(fuzzSeedQuery(f, p), p))
	addWireSeeds(f, unversionedQuery)
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
