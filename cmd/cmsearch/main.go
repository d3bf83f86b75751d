// Command cmsearch performs a homomorphically encrypted exact string
// search over a local file: it packs and encrypts the file with the
// CIPHERMATCH scheme, runs the addition-only search with server-side index
// generation, verifies the candidates, and prints match offsets.
//
// Usage:
//
//	cmsearch -db corpus.txt -query "needle"
//	cmsearch -db genome.2bit -query-hex 1B1B -align 2
//	cmsearch -db corpus.txt -queryfile patterns.txt -engine pool
//
// With -queryfile (one pattern per line), the patterns run as one batch:
// the engine walks the encrypted database once for the whole set.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"

	"ciphermatch"
)

func main() {
	dbPath := flag.String("db", "", "file to search (required)")
	queryStr := flag.String("query", "", "query string")
	queryHex := flag.String("query-hex", "", "query bytes in hex (alternative to -query)")
	queryFile := flag.String("queryfile", "", "file of query patterns, one per line, searched as one batch")
	align := flag.Int("align", 8, "occurrence alignment in bits (8 = byte boundaries)")
	seed := flag.String("seed", "cmsearch-default-seed", "client key/randomness seed label")
	verify := flag.Bool("verify", true, "verify candidates against the plaintext")
	engineSpec := flag.String("engine", "serial", "execution engine: kind[:workers], kind one of serial|pool|ssd")
	flag.Parse()

	// Exactly one query source: -query/-query-hex (single search) or
	// -queryfile (batch).
	single := *queryStr != "" || *queryHex != ""
	if *dbPath == "" || single == (*queryFile != "") {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*dbPath)
	if err != nil {
		fatal(err)
	}
	query := []byte(*queryStr)
	if *queryHex != "" {
		if query, err = hex.DecodeString(*queryHex); err != nil {
			fatal(fmt.Errorf("decoding -query-hex: %w", err))
		}
	}

	cfg := ciphermatch.Config{
		Params:    ciphermatch.ParamsPaper(),
		AlignBits: *align,
		Mode:      ciphermatch.ModeSeededMatch,
	}
	if cfg.Engine, err = ciphermatch.ParseEngineSpec(*engineSpec); err != nil {
		fatal(err)
	}
	client, err := ciphermatch.NewClient(cfg, ciphermatch.NewSeed(*seed))
	if err != nil {
		fatal(err)
	}
	dbBits := len(data) * 8
	db, err := client.EncryptDatabase(data, dbBits)
	if err != nil {
		fatal(err)
	}
	server, err := ciphermatch.NewServerWithEngine(cfg, db)
	if err != nil {
		fatal(err)
	}

	if *queryFile != "" {
		batchSearch(server, client, *queryFile, data, dbBits, *verify)
		return
	}

	q, err := client.PrepareQuery(query, len(query)*8, dbBits)
	if err != nil {
		fatal(err)
	}
	result, err := server.SearchAndIndex(q)
	if err != nil {
		fatal(err)
	}
	defer result.Release()

	fmt.Printf("database: %d bytes in %d encrypted chunks (%d bytes encrypted)\n",
		len(data), len(db.Chunks), db.SizeBytes(cfg.Params))
	fmt.Printf("query: %d bits, %d shift variants, %d homomorphic additions (engine %s)\n",
		len(query)*8, len(q.Residues), result.Stats.HomAdds, server.Engine().Describe())

	offsets := result.Candidates
	label := "candidate"
	if *verify {
		offsets = ciphermatch.VerifyCandidates(data, dbBits, query, len(query)*8, offsets)
		label = "verified match"
	}
	if len(offsets) == 0 {
		fmt.Println("no matches")
		return
	}
	for _, o := range offsets {
		fmt.Printf("%s at bit offset %d (byte %d)\n", label, o, o/8)
	}
}

// batchSearch runs every pattern of the -queryfile through the server
// engine's batched single-pass pipeline.
func batchSearch(server *ciphermatch.Server, client *ciphermatch.Client, path string, data []byte, dbBits int, verify bool) {
	patterns, err := ciphermatch.ReadPatternFile(path)
	if err != nil {
		fatal(err)
	}
	queries := make([]*ciphermatch.Query, len(patterns))
	for i, pat := range patterns {
		if queries[i], err = client.PrepareQuery(pat, len(pat)*8, dbBits); err != nil {
			fatal(fmt.Errorf("preparing pattern %q: %w", pat, err))
		}
	}
	results, err := server.SearchAndIndexBatch(ciphermatch.NewBatchQuery(queries...))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("batched %d patterns through engine %s\n", len(patterns), server.Engine().Describe())
	for i, pat := range patterns {
		offsets := results[i].Candidates
		label := "candidates"
		if verify {
			offsets = ciphermatch.VerifyCandidates(data, dbBits, pat, len(pat)*8, offsets)
			label = "verified matches"
		}
		fmt.Printf("%q: %d %s (%d homomorphic additions)\n", pat, len(offsets), label, results[i].Stats.HomAdds)
		for _, o := range offsets {
			fmt.Printf("  bit offset %d (byte %d)\n", o, o/8)
		}
	}
	for _, ir := range results {
		ir.Release()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmsearch:", err)
	os.Exit(1)
}
