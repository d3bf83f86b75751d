package proto

import (
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/rng"
)

// BenchmarkQueryPath times the server's query path in process, as one
// number: decoding a MsgQuery payload (DecodeNamedQuery, which slices
// the DBTok rows out of the payload) plus a serial SearchAndIndex. The
// dna_scan shape is the bench/ workload of that name: a 4 MiB
// ParamsPaper database (2 048 chunks), a 64-bit pattern at 2-bit
// alignment (32 residues), an 8.5 MB payload.
//
//	go test -run '^$' -bench 'BenchmarkQueryPath$' ./internal/proto
func BenchmarkQueryPath(b *testing.B) {
	p := bfv.ParamsPaper()
	const dbBytes = 4 << 20
	cfg := core.Config{Params: p, AlignBits: 2, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("query-path"))
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, dbBytes)
	rng.NewSourceFromString("query-path-data").Bytes(data)
	db, err := client.EncryptDatabase(data, 8*dbBytes)
	if err != nil {
		b.Fatal(err)
	}
	pattern := []byte{0x1B, 0xE4, 0x4E, 0xB1, 0x72, 0x8D, 0xC6, 0x39}
	q, err := client.PrepareQuery(pattern, 64, 8*dbBytes)
	if err != nil {
		b.Fatal(err)
	}
	payload := EncodeNamedQuery("dna", q, p)
	eng := core.NewCPUEngine(p, db, 1)
	defer eng.Close()
	b.Run("dna_scan", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, dq, err := DecodeNamedQuery(payload, p)
			if err != nil {
				b.Fatal(err)
			}
			ir, err := eng.SearchAndIndex(dq)
			if err != nil {
				b.Fatal(err)
			}
			ir.Release()
		}
	})
}
