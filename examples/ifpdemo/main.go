// In-flash processing demo: the same encrypted search executed twice —
// once by the software evaluator and once inside the simulated SSD, where
// homomorphic addition runs as the bit-serial latch µ-program of Fig. 5.
// The demo shows the results are identical and prints the flash-level
// operation counts, latency and energy the search consumed.
package main

import (
	"fmt"
	"log"
	"slices"

	"ciphermatch"
	"ciphermatch/internal/rng"
)

func main() {
	cfg := ciphermatch.Config{
		Params:    ciphermatch.ParamsPaper(),
		AlignBits: 8,
		Mode:      ciphermatch.ModeSeededMatch,
	}
	client, err := ciphermatch.NewClient(cfg, ciphermatch.NewSeed("ifp-demo"))
	if err != nil {
		log.Fatal(err)
	}

	data := make([]byte, 6144) // 3 chunks at n=1024
	rng.NewSourceFromString("ifp-data").Bytes(data)
	copy(data[1000:], "ciphertext")
	copy(data[5000:], "ciphertext")
	dbBits := len(data) * 8

	db, err := client.EncryptDatabase(data, dbBits)
	if err != nil {
		log.Fatal(err)
	}
	query := []byte("ciphertext")
	q, err := client.PrepareQuery(query, len(query)*8, dbBits)
	if err != nil {
		log.Fatal(err)
	}

	// Path 1: software evaluator.
	sw := ciphermatch.NewServer(cfg.Params, db)
	swResult, err := sw.SearchAndIndex(q)
	if err != nil {
		log.Fatal(err)
	}

	// Path 2: inside the simulated SSD.
	drive, err := ciphermatch.NewSSD(ciphermatch.DefaultSSDConfig(), cfg.Params, ciphermatch.SoftwareTransposition)
	if err != nil {
		log.Fatal(err)
	}
	if err := drive.CMWriteDatabase(db); err != nil {
		log.Fatal(err)
	}
	programsBefore := drive.FlashStats().Programs
	ifpResult, err := drive.CMSearch(q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("software candidates: %v\n", swResult.Candidates)
	fmt.Printf("in-flash candidates: %v\n", ifpResult.Candidates)
	fmt.Printf("identical: %v\n\n", slices.Equal(swResult.Candidates, ifpResult.Candidates))
	swResult.Release()
	ifpResult.Release()

	fs := drive.FlashStats()
	cs := drive.ControllerStats()
	fmt.Println("flash-level accounting for the in-flash search:")
	fmt.Printf("  page reads:          %d\n", fs.Reads)
	fmt.Printf("  latch transfers:     %d\n", fs.LatchTransfers)
	fmt.Printf("  AND/OR ops:          %d\n", fs.AndOrOps)
	fmt.Printf("  XOR ops:             %d\n", fs.XorOps)
	fmt.Printf("  bit-serial steps:    %d\n", fs.BitSerialAdds)
	fmt.Printf("  homomorphic adds:    %d (executed as latch µ-programs)\n", cs.HomAdds)
	fmt.Printf("  transpositions:      %d pages (%v)\n", cs.TransposePages, cs.TransposeTime)
	fmt.Printf("  index generation:    %d pages (%v)\n", cs.IndexGenPages, cs.IndexGenTime)
	fmt.Printf("  flash busy time:     %v (sum) / %v (parallel makespan)\n", fs.Time, drive.MaxPlaneTime())
	fmt.Printf("  flash energy:        %.2f mJ\n", fs.Energy*1e3)
	fmt.Printf("  pages programmed by search: %d (search wears nothing)\n", fs.Programs-programsBefore)
}
