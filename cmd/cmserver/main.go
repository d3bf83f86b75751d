// Command cmserver runs a CIPHERMATCH search server: a multi-tenant
// store of named encrypted databases answering encrypted queries with
// match indices, never holding any key material (§2.2's two-round HE
// exchange; Algorithm 1 server side). Each database runs on an
// execution engine — serial CPU, CPU fanned out over N workers, or the
// simulated in-flash drive — selected per upload or defaulted here.
//
// With -datadir the store is durable: uploads write through to
// checksummed segment files, a restart recovers every tenant from the
// directory, and searches stream the mmap'd segments directly (the
// paper's search-where-the-data-lives argument, in software). With
// -membudget, cold tenants are evicted down to the budget and reload
// transparently on their next search.
//
// With -batchwindow, concurrently arriving single queries against the
// same database are coalesced server-side into one batched arena pass
// (a window closes at -maxbatch queries or -batchwindow after its first
// query arrived, whichever first, and runs on that query's connection);
// -maxqueue bounds per-database pending depth, rejecting excess load
// with a typed overload error. Serving
// metrics — QPS, batch occupancy, queue latency, coalesce rate, arena
// passes saved — are always available over the wire (cmclient stats)
// and, with -metrics-addr, over HTTP in Prometheus text format.
//
// The server is hardened for faulty environments: -read-timeout and
// -write-timeout bound slow-loris peers per connection, -scrub runs a
// background scrubber re-verifying resident segment CRCs and
// quarantining corrupted databases instead of serving wrong answers,
// and SIGTERM/SIGINT drain every in-flight request — including queries
// parked in coalescing windows — before closing the store. -fault arms
// the deterministic fault injector (internal/fault) under the store and
// the listener for chaos runs; never use it in production.
//
// Usage:
//
//	cmserver -addr :7448 -engine pool:8
//	cmserver -engine ssd
//	cmserver -datadir /var/lib/ciphermatch -membudget 4GiB
//	cmserver -batchwindow 200us -maxbatch 16 -maxqueue 256 -metrics-addr :9448
//	cmserver -datadir /var/lib/ciphermatch -scrub 1m -read-timeout 30s -write-timeout 30s
//	cmserver -fault 'seed=c1,drop=97,stalldur=20ms'   # chaos testing only
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/engine"
	"ciphermatch/internal/fault"
	"ciphermatch/internal/proto"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/segment"
)

func main() {
	addr := flag.String("addr", ":7448", "listen address")
	engineSpec := flag.String("engine", "serial",
		"default engine for uploads that do not request one: kind[:workers] (pool without :workers = GOMAXPROCS), kind one of "+
			strings.Join(engine.Kinds(), "|"))
	datadir := flag.String("datadir", "", "segment data directory; empty = memory-only (nothing survives restart)")
	membudget := flag.String("membudget", "", "resident ciphertext-arena budget, e.g. 512MiB or 4GiB (requires -datadir; empty = unlimited)")
	batchwindow := flag.Duration("batchwindow", 0, "max server-side coalescing delay, e.g. 200us (0 = coalescing off)")
	maxbatch := flag.Int("maxbatch", 0, "coalesced batch fires at this many pending queries (0 = default 16)")
	maxqueue := flag.Int("maxqueue", 0, "per-database pending-query cap before overload rejection (0 = 16x maxbatch)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus-format metrics, /traces and pprof over HTTP at this address (empty = off)")
	traceBuf := flag.Int("trace-buf", 0, "request-trace ring capacity, recent and slow each (0 = default 4096)")
	slowThreshold := flag.Duration("slow-threshold", 0, "requests at least this slow are captured in the slow-trace ring (0 = default 50ms)")
	scrub := flag.Duration("scrub", 0, "background segment-scrub interval re-verifying resident plane CRCs, e.g. 1m (requires -datadir; 0 = off)")
	readTimeout := flag.Duration("read-timeout", 0, "per-connection read deadline between requests (0 = none)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-connection reply write deadline (0 = none)")
	faultSpec := flag.String("fault", "", "deterministic fault injection for chaos runs, e.g. 'seed=c1,drop=97,bitflip=1000' (see internal/fault)")
	flag.Parse()

	spec, err := engine.Parse(*engineSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmserver:", err)
		os.Exit(2)
	}
	budget, err := parseBytes(*membudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmserver: -membudget:", err)
		os.Exit(2)
	}
	faultCfg, err := fault.ParseConfig(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmserver: -fault:", err)
		os.Exit(2)
	}
	var inj *fault.Injector
	storeOpts := proto.StoreOptions{DataDir: *datadir, MemBudget: budget, ScrubInterval: *scrub}
	if *faultSpec != "" {
		inj = fault.New(faultCfg)
		storeOpts.FS = inj.FS(segment.OSFS{})
		fmt.Fprintf(os.Stderr, "cmserver: FAULT INJECTION ARMED (%s) — chaos runs only\n", *faultSpec)
	}

	srv, err := proto.NewServerWithServing(bfv.ParamsPaper(), spec, storeOpts,
		proto.CoalesceConfig{Window: *batchwindow, MaxBatch: *maxbatch, MaxQueue: *maxqueue})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmserver:", err)
		os.Exit(1)
	}
	srv.SetTimeouts(*readTimeout, *writeTimeout)
	if *traceBuf > 0 || *slowThreshold > 0 {
		srv.SetTracing(*traceBuf, *slowThreshold)
	}
	if inj != nil {
		inj.Bind(srv.Metrics()) // fault_*_total next to the absorption counters
	}
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cmserver: -metrics-addr:", err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Metrics().Handler())
		mux.Handle("/traces", srv.Traces().Handler())
		mux.Handle("/traces/slow", srv.Traces().SlowHandler())
		// The standard pprof endpoints, on the sidecar mux rather than
		// DefaultServeMux so nothing is served by accident.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go http.Serve(ml, mux) //nolint:errcheck // best-effort sidecar
		fmt.Printf("cmserver: metrics on http://%s/metrics, traces on /traces and /traces/slow, pprof on /debug/pprof\n", ml.Addr())
	}
	if dir := srv.Store().Dir(); dir != nil {
		n := len(srv.Store().List())
		fmt.Printf("cmserver: recovered %d database(s) from %s\n", n, dir.Root())
		for _, dmg := range srv.Store().Damaged() {
			fmt.Fprintf(os.Stderr, "cmserver: not serving segment %s: %v\n", dmg.File, dmg.Err)
		}
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmserver:", err)
		os.Exit(1)
	}
	var serveL net.Listener = l
	if inj != nil {
		serveL = inj.Listener(l)
	}

	// Graceful shutdown: stop accepting, then drain — every request
	// already read off a connection (including queries parked in
	// coalescing windows) runs to completion and has its reply written
	// before the store closes. Segment files are fsynced at upload
	// time, so shutdown has nothing left to make durable.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	shuttingDown := make(chan struct{})
	go func() {
		sig := <-sigCh
		fmt.Printf("cmserver: %s: draining in-flight requests and shutting down\n", sig)
		close(shuttingDown)
		l.Close()
	}()

	coalesceNote := "off"
	if *batchwindow > 0 {
		coalesceNote = fmt.Sprintf("window<=%s", *batchwindow)
	}
	fmt.Printf("cmserver: listening on %s (BFV n=%d, log2 q=32, log2 t=16, default engine %s, coalescing %s)\n",
		l.Addr(), bfv.ParamsPaper().N, spec, coalesceNote)
	fmt.Printf("cmserver: ring kernel path %s (available: %v)\n", ring.ActiveKernel(), ring.AvailableKernels())
	if note := ring.KernelInitNote(); note != "" {
		fmt.Printf("cmserver: kernel note: %s\n", note)
	}
	serveErr := srv.Serve(serveL)
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "cmserver: closing store:", err)
		os.Exit(1)
	}
	select {
	case <-shuttingDown: // listener closed by the signal handler: clean exit
	default:
		if serveErr != nil {
			fmt.Fprintln(os.Stderr, "cmserver:", serveErr)
			os.Exit(1)
		}
	}
}

// parseBytes reads a human byte size: plain bytes, or a KiB/MiB/GiB
// (and KB/MB/GB, decimal) suffix.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	suffixes := []struct {
		suffix string
		mult   int64
	}{
		{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
		{"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3},
	}
	mult := int64(1)
	for _, sf := range suffixes {
		if strings.HasSuffix(s, sf.suffix) {
			mult = sf.mult
			s = strings.TrimSuffix(s, sf.suffix)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	if n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size overflows")
	}
	return n * mult, nil
}
