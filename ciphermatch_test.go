package ciphermatch

import (
	"bytes"
	"testing"
)

func TestSearchConvenience(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog; the fox returns")
	hits, err := Search(data, []byte("fox"), 8, NewSeed("test-seed"))
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i := 0; i+3 <= len(data); i++ {
		if bytes.Equal(data[i:i+3], []byte("fox")) {
			want = append(want, i*8)
		}
	}
	if len(hits) != len(want) {
		t.Fatalf("Search = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("Search = %v, want %v", hits, want)
		}
	}
}

func TestSearchNoMatch(t *testing.T) {
	hits, err := Search([]byte("aaaaaaaaaaaaaaaa"), []byte("zz"), 8, NewSeed("none"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("unexpected hits %v", hits)
	}
}

func TestFacadeConstructors(t *testing.T) {
	if ParamsPaper().N != 1024 || ParamsN2048().N != 2048 {
		t.Fatal("parameter presets wrong")
	}
	if _, err := NewRandomSeed(); err != nil {
		t.Fatal(err)
	}
	m := NewModel()
	if m.Real.Cores != 6 {
		t.Fatal("model constants wrong")
	}
	p := NewFlashPlane()
	if pageBytes := 8 * len(p.S); pageBytes != 4096 { // the S latch is one page wide
		t.Fatal("flash plane defaults wrong")
	}
	b := NewPuMBank()
	if b.Config().RowBytes != 8192 {
		t.Fatal("pum bank defaults wrong")
	}
	if _, err := NewSSD(DefaultSSDConfig(), ParamsPaper(), SoftwareTransposition); err != nil {
		t.Fatal(err)
	}
}

// TestEnginesThroughFacade moves one search across every substrate via
// Config.Engine and checks the results agree.
func TestEnginesThroughFacade(t *testing.T) {
	data := append(bytes.Repeat([]byte("y"), 600), []byte("needle-in-haystack")...)
	query := []byte("needle")
	cfg := Config{Params: ParamsPaper(), AlignBits: 8, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, NewSeed("facade-engines"))
	if err != nil {
		t.Fatal(err)
	}
	dbBits := len(data) * 8
	db, err := client.EncryptDatabase(data, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(query, 48, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, specStr := range []string{"serial", "pool:4", "ssd"} {
		if cfg.Engine, err = ParseEngineSpec(specStr); err != nil {
			t.Fatal(err)
		}
		server, err := NewServerWithEngine(cfg, db)
		if err != nil {
			t.Fatalf("%s: %v", specStr, err)
		}
		ir, err := server.SearchAndIndex(q)
		if err != nil {
			t.Fatalf("%s: %v", specStr, err)
		}
		verified := VerifyCandidates(data, dbBits, query, 48, ir.Candidates)
		if len(verified) != 1 || verified[0] != 600*8 {
			t.Fatalf("%s: verified = %v, want [4800]", specStr, verified)
		}
		if got := ir.Stats.HomAdds; got != len(db.Chunks) {
			t.Fatalf("%s: search stats count %d homomorphic additions, want one per chunk = %d", specStr, got, len(db.Chunks))
		}
	}
}

func TestClientServerRoundtripPaperParams(t *testing.T) {
	cfg := Config{Params: ParamsPaper(), AlignBits: 8, Mode: ModeClientDecrypt}
	client, err := NewClient(cfg, NewSeed("paper-params"))
	if err != nil {
		t.Fatal(err)
	}
	data := append(bytes.Repeat([]byte("x"), 3000), []byte("needle-in-haystack")...)
	dbBits := len(data) * 8
	db, err := client.EncryptDatabase(data, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Chunks) < 2 {
		t.Fatalf("expected multiple chunks at n=1024, got %d", len(db.Chunks))
	}
	server := NewServer(cfg.Params, db)
	q, err := client.PrepareQuery([]byte("needle"), 48, dbBits)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := server.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	hits := client.ExtractHits(q, sr)
	cands := Candidates(hits, dbBits, 48, 8)
	verified := VerifyCandidates(data, dbBits, []byte("needle"), 48, cands)
	if len(verified) != 1 || verified[0] != 3000*8 {
		t.Fatalf("verified = %v, want [24000]", verified)
	}
}
