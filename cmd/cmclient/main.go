// Command cmclient is the data-owner side of the networked CIPHERMATCH
// deployment: it encrypts a local file, uploads the ciphertexts to a
// named database on a cmserver, and issues encrypted searches,
// receiving only match indices. It can also list and drop the server's
// databases. With -local it starts its own in-process server on a
// loopback listener, so a local search takes the same wire and store
// path as a networked one.
//
// Usage:
//
//	cmclient -addr localhost:7448 -name corpus -db corpus.txt -query "needle"
//	cmclient -local -db corpus.txt -query "needle" -engine ssd
//	cmclient -name corpus -engine pool:8 -db corpus.txt -query "needle"
//	cmclient -name corpus -db corpus.txt -queryfile patterns.txt
//	cmclient -name corpus -db corpus.txt -query "needle" -noupload
//	cmclient -list
//	cmclient -drop corpus
//
// With -noupload the client searches a database the server already
// holds (a durable cmserver recovers uploads across restarts from its
// -datadir) without re-shipping the ciphertexts; it must use the same
// -seed and database file as the original upload so the seeded match
// tokens line up.
//
// With -queryfile (one pattern per line), all patterns travel in a
// single batched request: the server walks the encrypted database once
// for the whole set, and patterns repeated across lines are shipped and
// evaluated once.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"ciphermatch"
	"ciphermatch/internal/core"
	"ciphermatch/internal/proto"
)

func main() {
	addr := flag.String("addr", "localhost:7448", "cmserver address")
	local := flag.Bool("local", false, "search through an in-process server on a 127.0.0.1 listener instead of a cmserver at -addr")
	name := flag.String("name", "default", "server-side database name")
	dbPath := flag.String("db", "", "file to upload and search")
	queryStr := flag.String("query", "", "query string")
	queryFile := flag.String("queryfile", "", "file of query patterns, one per line, submitted as one batched request")
	align := flag.Int("align", 8, "occurrence alignment in bits")
	seed := flag.String("seed", "cmclient-default-seed", "client key/randomness seed label")
	engineSpec := flag.String("engine", "", "server-side engine for this database, kind[:workers] (empty = server default)")
	list := flag.Bool("list", false, "list the server's databases and exit")
	drop := flag.String("drop", "", "drop the named server-side database and exit")
	noupload := flag.Bool("noupload", false,
		"search the existing server-side database without re-uploading (durable servers recover uploads across restarts; requires the original -seed and -db file)")
	retries := flag.Int("retries", 0,
		"retry read-only requests up to N times with exponential backoff on overload or transient transport faults (uploads and drops are never retried)")
	retryTimeout := flag.Duration("retry-timeout", 0, "per-attempt I/O deadline when -retries is set (0 = none)")
	flag.Parse()

	cfg := ciphermatch.Config{
		Params:    ciphermatch.ParamsPaper(),
		AlignBits: *align,
		Mode:      ciphermatch.ModeSeededMatch,
	}
	if *local {
		localAddr, stop, err := serveLocal(cfg.Params)
		if err != nil {
			fatal(err)
		}
		defer stop()
		*addr = localAddr
	}
	conn, err := proto.Dial(*addr, cfg.Params)
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	if *retries > 0 {
		conn.SetRetry(proto.RetryPolicy{Max: *retries, Timeout: *retryTimeout, Seed: *seed})
	}

	switch {
	case *list:
		infos, err := conn.ListDBs()
		if err != nil {
			fatal(err)
		}
		if len(infos) == 0 {
			fmt.Println("no databases")
			return
		}
		for _, in := range infos {
			fmt.Printf("%-24s %8d chunks %12d bits %6d searches  %-8s engine %s\n",
				in.Name, in.Chunks, in.BitLen, in.Searches, in.State, in.Engine)
		}
		return
	case *drop != "":
		if err := conn.DropDB(*drop); err != nil {
			fatal(err)
		}
		fmt.Printf("dropped %s\n", *drop)
		return
	}

	if *dbPath == "" || (*queryStr == "") == (*queryFile == "") {
		flag.Usage()
		os.Exit(2)
	}
	spec, err := ciphermatch.ParseEngineSpec(*engineSpec)
	if err != nil {
		fatal(err)
	}
	data, err := os.ReadFile(*dbPath)
	if err != nil {
		fatal(err)
	}

	client, err := ciphermatch.NewClient(cfg, ciphermatch.NewSeed(*seed))
	if err != nil {
		fatal(err)
	}
	dbBits := len(data) * 8
	if *noupload {
		// The server already holds the ciphertexts (e.g. recovered from
		// its data directory after a restart). Query preparation only
		// needs the seed-derived keys and the database geometry.
		fmt.Printf("searching existing %q (no upload)\n", *name)
	} else {
		db, err := client.EncryptDatabase(data, dbBits)
		if err != nil {
			fatal(err)
		}
		if err := conn.UploadDB(*name, spec, db); err != nil {
			fatal(fmt.Errorf("uploading database: %w", err))
		}
		fmt.Printf("uploaded %q: %d encrypted chunks (%d bytes)\n", *name, len(db.Chunks), db.SizeBytes(cfg.Params))
	}

	if *queryFile != "" {
		batchSearch(conn, client, *name, *queryFile, data, dbBits)
		return
	}

	query := []byte(*queryStr)
	q, err := client.PrepareQuery(query, len(query)*8, dbBits)
	if err != nil {
		fatal(err)
	}
	candidates, err := conn.Search(*name, q)
	if err != nil {
		fatal(fmt.Errorf("remote search: %w", err))
	}
	verified := ciphermatch.VerifyCandidates(data, dbBits, query, len(query)*8, candidates)
	fmt.Printf("server returned %d candidates, %d verified\n", len(candidates), len(verified))
	for _, o := range verified {
		fmt.Printf("match at byte %d\n", o/8)
	}
}

// batchSearch reads one pattern per line from path and submits them all
// as a single MsgBatchQuery round trip.
func batchSearch(conn *proto.Conn, client *ciphermatch.Client, name, path string, data []byte, dbBits int) {
	patterns, err := ciphermatch.ReadPatternFile(path)
	if err != nil {
		fatal(err)
	}
	queries := make([]*core.Query, len(patterns))
	for i, pat := range patterns {
		if queries[i], err = client.PrepareQuery(pat, len(pat)*8, dbBits); err != nil {
			fatal(fmt.Errorf("preparing pattern %q: %w", pat, err))
		}
	}
	results, err := conn.SearchBatch(name, queries)
	if err != nil {
		fatal(fmt.Errorf("remote batch search: %w", err))
	}
	for i, pat := range patterns {
		verified := ciphermatch.VerifyCandidates(data, dbBits, pat, len(pat)*8, results[i])
		fmt.Printf("%q: %d candidates, %d verified\n", pat, len(results[i]), len(verified))
		for _, o := range verified {
			fmt.Printf("  match at byte %d\n", o/8)
		}
	}
}

// serveLocal starts an in-process server (memory-only store, serial
// default engine, no coalescing) on a 127.0.0.1 listener and returns
// its address; stop closes the listener, waits for the accept loop to
// return and drains the server.
func serveLocal(params ciphermatch.Params) (addr string, stop func(), err error) {
	srv, err := proto.NewServerWithServing(params, core.EngineSpec{}, proto.StoreOptions{}, proto.CoalesceConfig{})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) //nolint:errcheck // returns the listener's close error
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		<-served
		srv.Shutdown() //nolint:errcheck // process exit follows
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmclient:", err)
	os.Exit(1)
}
