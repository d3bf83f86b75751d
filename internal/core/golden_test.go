package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

// TestCiphertextGoldenDigest pins the bytes a client produces for a fixed
// seed: the EncryptDatabase arena, then a PrepareQuery's shipped
// artifacts (clientDigest), in ModeSeededMatch and in ModeClientDecrypt.
// Stored segments and a returning client's token re-derivation both
// depend on these exact values, so a faster ring product or sampler must
// leave every coefficient unchanged. Each case runs at GOMAXPROCS 1
// (every item inline) and 4 (the client's parallel fan-out), which must
// agree byte for byte. The two modes' clients of one seed are twins:
// their arenas are byte-identical, which is what lets the oracle tests
// take a seeded database's ground truth from a client-decrypt client.
func TestCiphertextGoldenDigest(t *testing.T) {
	cases := []struct {
		name            string
		params          bfv.Params
		dbLen           int
		seeded, decrypt string
	}{
		{"paper", bfv.ParamsPaper(), 4096,
			"62b91a316e18cd8f396dc70bc8f325dc4cdbc964be4a937b67e30f71a3023294",
			"0552fb482ef2979bbceda52877f6f64e604b11f12c3761b4d096647912dfd1ed"},
		{"toy", bfv.ParamsToy(), 512,
			"70ff02442e7c0d5be334b5fc4914841df63ea3a8157f139a128240664bd71b7c",
			"3f01f7c66ffef83584ac110d92d6e6815776626bc63ecb3c38ffedc014ba3ad2"},
		{"oddq", bfv.ParamsOddQ(), 512,
			"877f581a80a06a437c71482b5dd2acd909896c894f732f1bd06fd50bd2274206",
			"636c32ac5a30b5e2fd301fdcdc4b545d53bf6268d6bbd4d2e6be22685a7eb795"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					var arenas [][]uint64
					for _, m := range []struct {
						name, want string
						mode       IndexMode
					}{{"seeded", tc.seeded, ModeSeededMatch}, {"client-decrypt", tc.decrypt, ModeClientDecrypt}} {
						cfg := Config{Params: tc.params, AlignBits: 8, Mode: m.mode}
						client, err := NewClient(cfg, rng.NewSourceFromString("golden-"+tc.name))
						if err != nil {
							t.Fatal(err)
						}
						got, arena := clientDigest(t, client, tc.dbLen)
						if got != m.want {
							t.Fatalf("%s: client ciphertext bytes changed: sha256 %s, golden %s", m.name, got, m.want)
						}
						arenas = append(arenas, arena)
					}
					if !slices.Equal(arenas[0], arenas[1]) {
						t.Fatal("seeded and client-decrypt clients of one seed encrypt different arenas")
					}
				})
			}
		})
	}
}

// clientDigest encrypts dbLen fixed bytes and prepares a fixed 32-bit
// query over them. It returns the database arena and the SHA-256 of
// the arena, then of what the query ships: the DBTok plane and the RHS
// rows in ModeSeededMatch, each phase's pattern ciphertext (C0, C1) in
// ModeClientDecrypt, in ascending phase.
func clientDigest(t *testing.T, client *Client, dbLen int) (string, []uint64) {
	t.Helper()
	data := make([]byte, dbLen)
	rng.NewSourceFromString("golden-data").Bytes(data)
	db, err := client.EncryptDatabase(data, 8*len(data))
	if err != nil {
		t.Error(err)
		return "", nil
	}
	q, err := client.PrepareQuery([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, 8*len(data))
	if err != nil {
		t.Error(err)
		return "", nil
	}
	h := sha256.New()
	putCoeffs(h, db.Arena())
	if client.cfg.Mode == ModeSeededMatch {
		putQuery(h, client.ring, q)
	} else {
		for _, psi := range slices.Sorted(maps.Keys(q.Patterns)) {
			putCoeffs(h, q.Patterns[psi].C[0])
			putCoeffs(h, q.Patterns[psi].C[1])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), db.Arena()
}

// putQuery hashes q's DBTok plane, each token row widened back to its
// coefficients, then its RHS rows in ascending phase.
func putQuery(h hash.Hash, r *ring.Ring, q *Query) {
	for _, tok := range q.DBTok {
		p := r.NewPoly()
		r.WidenLanes(p, tok)
		putCoeffs(h, p)
	}
	for _, psi := range slices.Sorted(maps.Keys(q.RHS)) {
		putCoeffs(h, q.RHS[psi])
	}
}

// TestClientConcurrentPrepare shares one Client between 4 goroutines that
// each encrypt a database and prepare a query while the others do the
// same; every result must equal a lone serial run's arena, DBTok plane
// and RHS rows.
func TestClientConcurrentPrepare(t *testing.T) {
	cfg := Config{Params: bfv.ParamsToy(), AlignBits: 2, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, rng.NewSourceFromString("concurrent-prepare"))
	if err != nil {
		t.Fatal(err)
	}
	const dbLen = 1200 // 10 chunks
	var want string
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		want, _ = clientDigest(t, client, dbLen)
	}()
	const workers = 4
	got := make([]string, workers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], _ = clientDigest(t, client, dbLen)
		}()
	}
	wg.Wait()
	for g, d := range got {
		if d != want {
			t.Errorf("goroutine %d: concurrent client output %s, serial %s", g, d, want)
		}
	}

	// A cold client fills its token-plane memo from both ends at once:
	// lazy PrepareQuery fills of different lengths race an
	// EncryptDatabase that derives rows from its ciphertexts.
	cold, err := NewClient(cfg, rng.NewSourceFromString("concurrent-prepare"))
	if err != nil {
		t.Fatal(err)
	}
	lens := []int{dbLen / 4, dbLen / 2, 2 * dbLen}
	wantQ := make([]string, len(lens))
	for i, l := range lens {
		wantQ[i] = queryDigest(t, client, l)
	}
	gotQ := make([]string, len(lens))
	var gotDB string
	wg.Add(len(lens) + 1)
	go func() {
		defer wg.Done()
		gotDB, _ = clientDigest(t, cold, dbLen)
	}()
	for i, l := range lens {
		go func() {
			defer wg.Done()
			gotQ[i] = queryDigest(t, cold, l)
		}()
	}
	wg.Wait()
	if gotDB != want {
		t.Errorf("EncryptDatabase racing cold queries: output %s, serial %s", gotDB, want)
	}
	for i, d := range gotQ {
		if d != wantQ[i] {
			t.Errorf("cold query over %d bytes: output %s, serial %s", lens[i], d, wantQ[i])
		}
	}
}

// queryDigest prepares clientDigest's query over a database of dbLen
// bytes and returns the SHA-256 of its DBTok plane and RHS rows.
func queryDigest(t *testing.T, client *Client, dbLen int) string {
	t.Helper()
	q, err := client.PrepareQuery([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, 8*dbLen)
	if err != nil {
		t.Error(err)
		return ""
	}
	h := sha256.New()
	putQuery(h, client.ring, q)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func putCoeffs(h hash.Hash, p ring.Poly) {
	buf := make([]byte, 8*len(p))
	for i, c := range p {
		binary.LittleEndian.PutUint64(buf[8*i:], c)
	}
	h.Write(buf)
}
