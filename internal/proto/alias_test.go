package proto

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/rng"
)

// twinTenant is a database and a query whose expected candidates come
// from the query's ModeClientDecrypt twin: a client of the same seed
// (same keys, byte-identical database) whose pattern ciphertexts the
// server adds to every chunk and the twin decrypts. The 32-bit pattern
// is searched at 32-bit alignment, so the twin decrypts one sum per
// chunk.
type twinTenant struct {
	name string
	db   *core.EncryptedDB
	q    *core.Query
	want []int
}

func newTwinTenant(t testing.TB, p bfv.Params, name string, dbBytes int, plants ...int) *twinTenant {
	t.Helper()
	cfg := core.Config{Params: p, AlignBits: 32, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("twin-"+name))
	if err != nil {
		t.Fatal(err)
	}
	twinCfg := cfg
	twinCfg.Mode = core.ModeClientDecrypt
	twin, err := core.NewClient(twinCfg, rng.NewSourceFromString("twin-"+name))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, dbBytes)
	rng.NewSourceFromString("twin-data-" + name).Bytes(data)
	pattern := []byte{0x5E, 0xED, 0xC0, 0xDE}
	for _, at := range plants {
		for j := 0; j < 32; j++ {
			mathutil.SetBit(data, at+j, mathutil.GetBit(pattern, j))
		}
	}
	tn := &twinTenant{name: name}
	if tn.db, err = client.EncryptDatabase(data, 8*dbBytes); err != nil {
		t.Fatal(err)
	}
	if tn.q, err = client.PrepareQuery(pattern, 32, 8*dbBytes); err != nil {
		t.Fatal(err)
	}
	tq, err := twin.PrepareQuery(pattern, 32, 8*dbBytes)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.NewServer(p, tn.db).Search(tq)
	if err != nil {
		t.Fatal(err)
	}
	tn.want = core.Candidates(twin.ExtractHits(tq, sr), 8*dbBytes, 32, 32)
	for _, at := range plants {
		if !slices.Contains(tn.want, at) {
			t.Fatalf("tenant %s: twin candidates %v miss the planted occurrence %d", name, tn.want, at)
		}
	}
	return tn
}

// aliasFixture is TestQueryPayloadAliasing's fixture, built once per
// process (the flake sweeps run the test many times in one binary): a
// dna_scan-sized 4 MiB ParamsPaper database, whose query payload is
// 8.5 MB, and a 32 KiB one. Occurrences are planted in the large
// database's first chunks, whose token rows open its payload: the
// bytes a smaller request read into a reused buffer would overwrite.
var aliasFixture struct {
	sync.Mutex
	large, small *twinTenant
}

func aliasTenants(t *testing.T) (large, small *twinTenant) {
	aliasFixture.Lock()
	defer aliasFixture.Unlock()
	if aliasFixture.small == nil {
		aliasFixture.large = newTwinTenant(t, bfv.ParamsPaper(), "dna", 4<<20, 32*3, 8*2048*5+32*7, 8*(3<<20)+32*5)
		aliasFixture.small = newTwinTenant(t, bfv.ParamsPaper(), "records", 32<<10, 32*9, 8*(20<<10))
	}
	return aliasFixture.large, aliasFixture.small
}

// TestQueryPayloadAliasing: a decoded query's DBTok rows are slices of
// its request payload, and a direct query's payload is a pooled buffer
// that the next request on any connection may take. Three connections
// alternate dna_scan-sized and 32 KiB queries against each other, on
// the direct and on the coalesced path, and every answer must equal
// the client-decrypt twin's; a buffer reused while a search still read
// it would change another connection's token rows mid-sweep (and,
// under -race, report the overlapping write). The tenants run pool:2
// engines under GOMAXPROCS 1, so a handler parks while the workers
// sweep its rows and the next handler on the one P takes the P-local
// pool slot: a payload released before its search returns is then
// reused mid-sweep on every run, not by chance.
func TestQueryPayloadAliasing(t *testing.T) {
	large, small := aliasTenants(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := bfv.ParamsPaper()
	for _, co := range []CoalesceConfig{{}, {Window: time.Millisecond, MaxBatch: 2}} {
		t.Run(fmt.Sprintf("window=%s", co.Window), func(t *testing.T) {
			srv, err := NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, co)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			addr := startServer(t, srv)
			up, err := Dial(addr, p)
			if err != nil {
				t.Fatal(err)
			}
			defer up.Close()
			for _, tn := range []*twinTenant{large, small} {
				if err := up.UploadDB(tn.name, core.EngineSpec{Kind: core.EnginePool, Workers: 2}, tn.db); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for c := 0; c < 3; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn, err := Dial(addr, p)
					if err != nil {
						t.Error(err)
						return
					}
					defer conn.Close()
					for k := 0; k < 8; k++ {
						tn := []*twinTenant{large, small}[(c+k)%2]
						got, err := conn.Search(tn.name, tn.q)
						if err != nil {
							t.Errorf("conn %d, query %d (%s): %v", c, k, tn.name, err)
							return
						}
						if !slices.Equal(got, tn.want) {
							t.Errorf("conn %d, query %d (%s): %v, client-decrypt twin %v", c, k, tn.name, got, tn.want)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestQueryWideningDecode: at ParamsN2048 the wire carries 7-byte
// coefficients and the server widens the DBTok plane once into 8-byte
// lanes. Over the direct and the coalesced path, serial and pool:2
// answers must equal the client-decrypt twin's.
func TestQueryWideningDecode(t *testing.T) {
	p := bfv.ParamsN2048()
	tn := newTwinTenant(t, p, "n2048", 3*p.N*core.SegmentBits/8-100, 8*5000+32*3)
	for _, co := range []CoalesceConfig{{}, {Window: time.Millisecond, MaxBatch: 2}} {
		for _, spec := range []core.EngineSpec{{Kind: core.EngineSerial}, {Kind: core.EnginePool, Workers: 2}} {
			t.Run(fmt.Sprintf("window=%s/%s", co.Window, spec), func(t *testing.T) {
				srv, err := NewServerWithServing(p, spec, StoreOptions{}, co)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				c, err := Dial(startServer(t, srv), p)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if err := c.UploadDB(tn.name, spec, tn.db); err != nil {
					t.Fatal(err)
				}
				got, err := c.Search(tn.name, tn.q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, tn.want) {
					t.Fatalf("%v, client-decrypt twin %v", got, tn.want)
				}
			})
		}
	}
}
