package proto

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

// putPolyBytewise is the reference encoder the width-specialised
// putPoly is held to: a 4-byte little-endian count, then the low qBytes
// bytes of every coefficient, one byte at a time.
func putPolyBytewise(p ring.Poly, qBytes int) []byte {
	n := len(p)
	out := []byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
	for _, c := range p {
		for k := 0; k < qBytes; k++ {
			out = append(out, byte(c>>(8*k)))
		}
	}
	return out
}

func randomPoly(src *rng.Source, n, qBytes int) ring.Poly {
	p := make(ring.Poly, n)
	for i := range p {
		p[i] = src.Uint64() >> (64 - 8*qBytes)
	}
	return p
}

// TestPolyCodecWidths covers every coefficient width the parameter
// sets can ask for — the specialised 4 and the byte-wise rest —
// for byte-identical output, exact round trips, zero decode
// allocations, and truncation that errors before anything is written.
func TestPolyCodecWidths(t *testing.T) {
	src := rng.NewSourceFromString("poly-codec")
	for qBytes := 1; qBytes <= 8; qBytes++ {
		for _, n := range []int{1, 16, 1024} {
			p := randomPoly(src, n, qBytes)
			// A non-empty prefix checks putPoly appends rather than overwrites.
			b := buffer{data: []byte("prefix")}
			b.putPoly(p, qBytes)
			want := append([]byte("prefix"), putPolyBytewise(p, qBytes)...)
			if !bytes.Equal(b.data, want) {
				t.Fatalf("qBytes=%d n=%d: putPoly bytes differ from the byte-wise reference", qBytes, n)
			}
			enc := b.data[len("prefix"):]

			got := make(ring.Poly, n)
			rb := buffer{data: enc}
			if err := rb.polyInto(got, qBytes); err != nil {
				t.Fatalf("qBytes=%d n=%d: polyInto: %v", qBytes, n, err)
			}
			if !slices.Equal(got, p) || rb.off != len(enc) {
				t.Fatalf("qBytes=%d n=%d: round trip mismatch (consumed %d of %d bytes)", qBytes, n, rb.off, len(enc))
			}
			if allocs := testing.AllocsPerRun(10, func() {
				rb := buffer{data: enc}
				if err := rb.polyInto(got, qBytes); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("qBytes=%d n=%d: polyInto allocates %v times per call", qBytes, n, allocs)
			}

			// Every truncation errors, and does so before the first
			// store: dst sits in the middle of a canary slab that must
			// come through untouched.
			const canary = ^uint64(0)
			slab := slices.Repeat([]uint64{canary}, n+2)
			for cut := 0; cut < len(enc); cut++ {
				rb := buffer{data: enc[:cut]}
				err := rb.polyInto(slab[1:1+n], qBytes)
				if err == nil {
					t.Fatalf("qBytes=%d n=%d: truncation at %d of %d accepted", qBytes, n, cut, len(enc))
				}
				if cut < 4 && !errors.Is(err, errShortPayload) {
					t.Fatalf("qBytes=%d n=%d: truncated count returned %v, want errShortPayload", qBytes, n, err)
				}
				if slices.ContainsFunc(slab, func(v uint64) bool { return v != canary }) {
					t.Fatalf("qBytes=%d n=%d: truncation at %d wrote coefficients before failing", qBytes, n, cut)
				}
			}
		}
	}
}

var polyCodecSink []byte

// BenchmarkPolyCodec measures the wire coefficient codec on one
// paper-degree polynomial at the specialised width (4 is ParamsPaper
// and every bench workload) and on the byte-wise fallback (7 is
// ParamsN2048). MB/s is wire bytes produced or consumed.
func BenchmarkPolyCodec(b *testing.B) {
	const n = 1024
	src := rng.NewSourceFromString("poly-codec-bench")
	for _, qBytes := range []int{4, 7} {
		p := randomPoly(src, n, qBytes)
		var enc buffer
		enc.putPoly(p, qBytes)
		b.Run(fmt.Sprintf("decode/qb=%d", qBytes), func(b *testing.B) {
			b.SetBytes(int64(len(enc.data)))
			b.ReportAllocs()
			dst := make(ring.Poly, n)
			for i := 0; i < b.N; i++ {
				rb := buffer{data: enc.data}
				if err := rb.polyInto(dst, qBytes); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("encode/qb=%d", qBytes), func(b *testing.B) {
			b.SetBytes(int64(len(enc.data)))
			b.ReportAllocs()
			out := buffer{data: make([]byte, 0, len(enc.data))}
			for i := 0; i < b.N; i++ {
				out.data = out.data[:0]
				out.putPoly(p, qBytes)
			}
			polyCodecSink = out.data
		})
	}
}
