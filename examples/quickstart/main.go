// Quickstart: secure exact string matching end to end — pack, encrypt,
// search with homomorphic additions only, generate the index server-side,
// verify client-side.
package main

import (
	"fmt"
	"log"

	"ciphermatch"
)

func main() {
	data := []byte("homomorphic encryption allows secure computation on encrypted data " +
		"without revealing the original data; secure string matching is the key operation")
	needle := []byte("secure")

	cfg := ciphermatch.Config{
		Params:    ciphermatch.ParamsPaper(), // n=1024, log q=32, log t=16
		AlignBits: 8,                         // byte-aligned occurrences
		Mode:      ciphermatch.ModeSeededMatch,
	}
	client, err := ciphermatch.NewClient(cfg, ciphermatch.NewSeed("quickstart"))
	if err != nil {
		log.Fatal(err)
	}

	// Client side: pack 16 bits per plaintext coefficient and encrypt.
	dbBits := len(data) * 8
	db, err := client.EncryptDatabase(data, dbBits)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d bytes -> %d encrypted chunk(s), %d bytes (%.1fx expansion)\n",
		len(data), len(db.Chunks), db.SizeBytes(cfg.Params),
		float64(db.SizeBytes(cfg.Params))/float64(len(data)))

	// Client side: negate, replicate and shift the query into one RHS row
	// per phase; the chunks' match tokens come from the seed, and no
	// pattern is encrypted.
	q, err := client.PrepareQuery(needle, len(needle)*8, dbBits)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: %q (%d bits), %d shift variants, %d RHS rows\n",
		needle, len(needle)*8, len(q.Residues), len(q.RHS))

	// Server side: homomorphic additions + index generation. The server
	// never sees keys or plaintext.
	server := ciphermatch.NewServer(cfg.Params, db)
	result, err := server.SearchAndIndex(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d homomorphic additions (no multiplications), %d candidates\n",
		result.Stats.HomAdds, len(result.Candidates))

	// Client side: exact verification of candidate boundary bits.
	verified := ciphermatch.VerifyCandidates(data, dbBits, needle, len(needle)*8, result.Candidates)
	result.Release()
	for _, o := range verified {
		fmt.Printf("match at byte %d: %q\n", o/8, data[o/8:o/8+len(needle)])
	}
}
