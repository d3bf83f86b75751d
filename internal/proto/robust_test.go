package proto

import (
	"runtime"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

// TestDecodeGarbageNeverPanics feeds random byte soup to every decoder: a
// malicious peer must only ever cause an error, never a panic or a huge
// allocation.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	p := bfv.ParamsToy()
	src := rng.NewSourceFromString("garbage")
	for trial := 0; trial < 200; trial++ {
		n := src.Intn(256)
		buf := make([]byte, n)
		src.Bytes(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked on %d garbage bytes: %v", n, r)
				}
			}()
			_, _ = DecodeDB(buf, p)
			_, _ = DecodeQuery(buf, p)
			_, _ = DecodeResult(buf)
			_, _, _, _ = DecodeUploadDB(buf, p)
			_, _, _ = DecodeNamedQuery(buf, p)
			_, _, _ = DecodeNamedBatchQuery(buf, p)
			_, _ = DecodeBatchResult(buf)
			_, _ = DecodeDBList(buf)
			_, _ = DecodeName(buf)
		}()
	}
}

func TestPolyLengthLimit(t *testing.T) {
	// A forged polynomial length must be rejected before allocation.
	var b buffer
	b.putInt(1 << 24) // absurd coefficient count
	rb := buffer{data: b.data}
	if _, err := rb.poly(4, 64); err == nil {
		t.Fatal("oversized polynomial length accepted")
	}
	// A wrong-but-plausible length must be rejected too: the kernels
	// size loops and bitset writes from polynomial lengths.
	var b2 buffer
	b2.putPoly(make(ring.Poly, 128), 4)
	rb2 := buffer{data: b2.data}
	if _, err := rb2.poly(4, 64); err == nil {
		t.Fatal("degree-mismatched polynomial accepted")
	}
}

// claimedPlaneQuery is a MsgQuery body (no name) whose header and
// DBTok plane count both claim chunks chunks, zero-padded to size
// bytes: a few bytes that ask the decoder for chunks·n coefficients.
func claimedPlaneQuery(chunks, size int) []byte {
	var b buffer
	b.putUint32(factoredSentinel)
	b.putInt(factoredWireVersion)
	b.putInt(64)            // YBits
	b.putInt(8)             // AlignBits
	b.putInt(16 * 1024 * 8) // DBBitLen
	b.putInt(chunks)        // NumChunks
	b.putInt(1)             // one residue
	b.putInt(0)
	b.putInt(chunks) // DBTok plane count
	return append(b.data, make([]byte, size-len(b.data))...)
}

// claimedPoolBatch is the MsgBatchQuery counterpart: a poly pool that
// claims polys entries, zero-padded to size bytes.
func claimedPoolBatch(polys, size int) []byte {
	var b buffer
	b.putString("db")
	b.putUint32(factoredSentinel)
	b.putInt(factoredWireVersion)
	b.putInt(0)     // no pattern ciphertexts
	b.putInt(polys) // poly pool count
	return append(b.data, make([]byte, size-len(b.data))...)
}

// TestDecodeBoundsPlaneBeforeSizing: the query decoder sizes the DBTok
// plane's row list (and, for wire coefficients narrower than the token
// lanes, one block of widened rows) and the batch decoder its poly
// pool from their counts, so each count must be bounded by the bytes a
// whole polynomial needs (length word + n coefficients), not by its
// first coefficient. A ~1 KiB payload that claims 100 000 chunks, or just
// enough rows (130 × 8 KiB) to pass an 8-bytes-per-row bound, must
// fail without allocating the block.
func TestDecodeBoundsPlaneBeforeSizing(t *testing.T) {
	p := bfv.ParamsPaper()
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"query/100000", func() error { _, err := DecodeQuery(claimedPlaneQuery(100000, 1100), p); return err }},
		{"query/130", func() error { _, err := DecodeQuery(claimedPlaneQuery(130, 1100), p); return err }},
		{"batch/100000", func() error { _, _, err := DecodeNamedBatchQuery(claimedPoolBatch(100000, 1100), p); return err }},
		{"batch/130", func() error { _, _, err := DecodeNamedBatchQuery(claimedPoolBatch(130, 1100), p); return err }},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := c.decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded a plane the payload cannot hold", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes before failing, want < 1 MiB", c.name, grew)
		}
	}
}

// TestDecodeRejectsMalformedPlane: a DBTok row whose length word is not
// n, a payload cut inside the plane, and a plane count that is not
// NumChunks each fail the single-query and the batch decoder, at both
// lane widths (ParamsToy's 4-byte coefficients are sliced out of the
// payload, ParamsN2048's 7-byte ones widened), and fail before
// anything is sized from the broken plane: the decoder allocates no
// more than the payload it rejects would take widened to 8-byte lanes,
// plus 1 KiB of headers.
func TestDecodeRejectsMalformedPlane(t *testing.T) {
	for _, p := range []bfv.Params{bfv.ParamsToy(), bfv.ParamsN2048()} {
		q := fuzzSeedQuery(t, p)
		for form, cases := range map[string]map[string][]byte{
			"query": malformedQueryPlanes(q, p),
			"batch": malformedBatchPlanes(q, p),
		} {
			for name, data := range cases {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				var err error
				if form == "query" {
					_, err = DecodeQuery(data, p)
				} else {
					_, _, err = DecodeNamedBatchQuery(data, p)
				}
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Errorf("N=%d %s, %s: decoded", p.N, form, name)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))*8/7+1<<10 {
					t.Errorf("N=%d %s, %s: allocated %d bytes for a %d-byte payload before failing", p.N, form, name, grew, len(data))
				}
			}
		}
	}
}
