package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/proto"
)

const (
	scaleFull = "full"
	scaleTiny = "tiny"
)

// tenant is one uploaded database and what the generator knows about it.
type tenant struct {
	name     string
	data     []byte
	client   *core.Client
	db       *core.EncryptedDB // kept for tenants the run uploads again or replays in-process
	patterns []pattern
	payloads [][]byte // Conn.PrepareSearch output, index-aligned with patterns
}

func (t *tenant) bits() int { return len(t.data) * 8 }

// clientConn is one closed-loop client. raw is kept beside the proto
// wrapper because proto.Conn.Close waits for the request in flight;
// closing raw is what unblocks it on abort.
type clientConn struct {
	raw net.Conn
	*proto.Conn
}

// fixture is one workload's server, connections, tenants and temp
// directory, all inside this process. Close releases every one of them
// and returns only when the goroutines it started have ended.
type fixture struct {
	spec   workloadSpec
	seed   int64
	params bfv.Params

	tmp       string // removed on Close; holds the data dir and scratch segments
	srv       *proto.Server
	ln        net.Listener
	serveDone chan struct{}
	conns     []*clientConn
	tenants   []*tenant
	versions  int // ingest_mix: uploads of tenant 1 so far; picks which of its two names is live

	stopWatch func() bool
	closeOnce sync.Once

	// mu guards ln and conns against the context watchdog's abort,
	// which runs on its own goroutine while set-up is still dialling.
	mu sync.Mutex
}

// arenaBytes is one tenant's resident ciphertext size.
func (f *fixture) arenaBytes() int64 {
	return 2 * int64(len(f.tenants[0].db.Chunks)) * int64(f.params.N) * 8
}

func (f *fixture) plainBytes() int64 {
	var n int64
	for _, t := range f.tenants {
		n += int64(len(t.data))
	}
	return n
}

// searchedTenants are the tenants that receive searches (all of them,
// except that ingest_mix's tenant 1 is only ever written).
func (f *fixture) searchedTenants() []*tenant {
	if f.spec.ingest {
		return f.tenants[:1]
	}
	return f.tenants
}

// dial opens one more client connection to the fixture's server.
func (f *fixture) dial() (*clientConn, error) {
	raw, err := net.Dial("tcp", f.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	c := &clientConn{raw: raw, Conn: proto.NewConn(raw, f.params)}
	f.mu.Lock()
	f.conns = append(f.conns, c)
	f.mu.Unlock()
	return c, nil
}

// abort unblocks everything that could be waiting on the network; the
// goroutine that owns the fixture then sees its calls fail, notices the
// cancelled context and runs Close.
func (f *fixture) abort() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.conns {
		c.raw.Close()
	}
	if f.ln != nil {
		f.ln.Close()
	}
}

// Close tears the fixture down in dependency order: client connections,
// listener, then Server.Shutdown (joins the connection handlers, the
// coalescer's executors and every engine's workers), then the Serve
// goroutine, then the temp directory. Safe to call more than once.
func (f *fixture) Close() {
	f.closeOnce.Do(func() {
		if f.stopWatch != nil {
			f.stopWatch()
		}
		f.abort()
		if f.srv != nil {
			f.srv.Shutdown() //nolint:errcheck // Store.Close has no failure path
		}
		if f.serveDone != nil {
			<-f.serveDone
		}
		if f.tmp != "" {
			os.RemoveAll(f.tmp)
		}
	})
}

// setup builds one workload's fixture: data from the seed, encryption,
// an in-process server on a loopback port, tenants uploaded, steady-
// phase payloads pre-encoded, one warm-up pass. rec (nil when untraced)
// receives spans around the layer calls set-up makes anyway. On error
// everything already started is released.
func setup(ctx context.Context, spec workloadSpec, opts options, rec *recorder) (f *fixture, err error) {
	f = &fixture{spec: spec, seed: opts.seed, params: bfv.ParamsPaper()}
	defer func() {
		if err != nil {
			f.Close()
			f = nil
		}
	}()
	// ctx.Err is checked between the CPU-bound steps (none is longer
	// than a couple of seconds); the watchdog covers the network waits.
	f.stopWatch = context.AfterFunc(ctx, f.abort)

	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return f, err
	}
	if f.tmp, err = os.MkdirTemp(opts.out, "run-"+spec.name+"-"); err != nil {
		return f, err
	}

	for i := 0; i < spec.tenants; i++ {
		if err := ctx.Err(); err != nil {
			return f, err
		}
		t := &tenant{name: fmt.Sprintf("t%d", i)}
		t.data, t.patterns = generateTenant(spec, opts.scale, opts.seed, i)
		for _, p := range t.patterns {
			if len(p.truth) == 0 {
				return f, fmt.Errorf("%s: seed %d gives a pattern with no detectable occurrence", spec.name, opts.seed)
			}
		}
		cfg := core.Config{Params: f.params, AlignBits: spec.alignBits, Mode: core.ModeSeededMatch}
		if t.client, err = core.NewClient(cfg, tenantSource(opts.seed, spec.name, i, "keys")); err != nil {
			return f, err
		}
		id := rec.begin(spanEncryptDB, -1, i)
		t.db, err = t.client.EncryptDatabase(t.data, t.bits())
		rec.end(id)
		if err != nil {
			return f, err
		}
		f.tenants = append(f.tenants, t)
	}

	storeOpts := proto.StoreOptions{}
	if spec.durable {
		storeOpts.DataDir = filepath.Join(f.tmp, "data")
		storeOpts.MemBudget = int64(spec.budgetArenas * float64(f.arenaBytes()))
	}
	if f.srv, err = proto.NewServerWithServing(f.params, core.EngineSpec{}, storeOpts, spec.coalesce); err != nil {
		return f, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, err
	}
	f.mu.Lock()
	f.ln = ln
	f.mu.Unlock()
	f.serveDone = make(chan struct{})
	go func() {
		defer close(f.serveDone)
		f.srv.Serve(f.ln) //nolint:errcheck // returns when Close shuts the listener
	}()
	if opts.onFixture != nil {
		opts.onFixture(f.ln.Addr().String(), f.tmp)
	}

	for i := 0; i < spec.conns; i++ {
		if _, err := f.dial(); err != nil {
			return f, err
		}
	}
	c := f.conns[0]
	for i, t := range f.tenants {
		if err := ctx.Err(); err != nil {
			return f, err
		}
		id := rec.begin(spanUploadRPC, -1, i)
		err := c.UploadDB(t.name, spec.engine, t.db)
		rec.end(id)
		if err != nil {
			return f, fmt.Errorf("uploading %s: %w", t.name, err)
		}
		for k := range t.patterns {
			p := &t.patterns[k]
			id := rec.begin(spanPrepareQuery, -1, i)
			q, err := t.client.PrepareQuery(p.bytes, p.bits, t.bits())
			rec.end(id)
			if err != nil {
				return f, err
			}
			id = rec.begin(spanEncodeQuery, -1, i)
			payload, err := c.PrepareSearch(t.name, q)
			rec.end(id)
			if err != nil {
				return f, err
			}
			t.payloads = append(t.payloads, payload)
		}
		// Only tenant 0 (in-process replay, upload probe) and the
		// ingested tenant are uploaded again; the rest would just pin
		// an arena-sized client-side copy.
		if i > 0 && !spec.ingest {
			t.db = nil
		}
	}

	// Warm-up: every payload once, checked, so the first timed op finds
	// the server's lazily built state in place.
	for _, t := range f.tenants {
		for k := range t.payloads {
			if ok, err := f.searchPrepared(c, t, k, nil, -1); err != nil {
				return f, fmt.Errorf("warm-up on %s: %w", t.name, err)
			} else if !ok {
				return f, fmt.Errorf("warm-up on %s: pattern %d does not match plaintext ground truth", t.name, k)
			}
		}
	}
	return f, ctx.Err()
}

// searchPrepared is one steady-phase operation: send the prepared
// payload, verify the candidates against the plaintext like the data
// owner would, and compare with ground truth.
func (f *fixture) searchPrepared(c *clientConn, t *tenant, k int, rec *recorder, op int) (ok bool, err error) {
	p := &t.patterns[k]
	root := rec.begin(spanClientSearch, -1, op)
	id := rec.begin(spanRoundtrip, root, op)
	cands, err := c.SearchPrepared(t.payloads[k])
	rec.end(id)
	if err != nil {
		return false, err
	}
	id = rec.begin(spanVerify, root, op)
	got := core.VerifyCandidates(t.data, t.bits(), p.bytes, p.bits, cands)
	rec.end(id)
	rec.end(root)
	return slices.Equal(got, p.truth), nil
}

// timeSetup runs setup as the timed operation it is. A short set-up is
// noisy, so it is repeated (and torn down again) until setupBudget has
// been spent or setupMaxReps reached, and the median is reported; a
// set-up longer than the budget is its own average and is measured
// once. The last fixture is kept.
func timeSetup(ctx context.Context, spec workloadSpec, opts options) (*fixture, float64, error) {
	var secs []float64
	var spent time.Duration
	for {
		t0 := time.Now()
		f, err := setup(ctx, spec, opts, nil)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		secs = append(secs, d.Seconds())
		spent += d
		if spent >= setupBudget || len(secs) >= setupMaxReps {
			return f, median(secs), nil
		}
		f.Close()
	}
}

const (
	setupBudget  = 3 * time.Second
	setupMaxReps = 5
)
