package proto

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/trace"
)

// Server is the network-facing CIPHERMATCH service: a multi-tenant
// store of named encrypted databases, each behind its own execution
// engine (serial, pool, sharded, or the in-flash simulator). It never
// holds key material; in ModeSeededMatch it only learns the hit
// patterns it returns. Connections are served concurrently and searches
// only take per-database read locks, so tenants never serialise on each
// other.
type Server struct {
	params bfv.Params
	store  *Store
	met    *serverMetrics
	co     *Coalescer      // nil = coalescing disabled (every query runs direct)
	rec    *trace.Recorder // request-lifecycle flight recorder, never nil

	// Per-connection I/O deadlines; zero disables. The read deadline
	// bounds how long an idle or slow-loris peer may hold a connection
	// between requests; the write deadline bounds a peer that stops
	// draining replies. Neither interrupts request execution.
	readTimeout  time.Duration
	writeTimeout time.Duration

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup // one count per in-flight connection
	down   atomic.Bool
}

// NewServer creates a server whose databases default to the serial
// engine.
func NewServer(params bfv.Params) *Server {
	return NewServerWithSpec(params, core.EngineSpec{})
}

// NewServerWithSpec creates a server with a default engine spec applied
// to uploads that do not request a specific engine.
func NewServerWithSpec(params bfv.Params, defaultSpec core.EngineSpec) *Server {
	met := newServerMetrics()
	return &Server{params: params, store: NewStore(params, defaultSpec), met: met,
		rec: newBoundRecorder(met, 0, 0), conns: make(map[net.Conn]struct{})}
}

// DefaultTraceBuf is the default capacity of each trace ring (recent
// and slow).
const DefaultTraceBuf = 4096

// newBoundRecorder builds the server's trace recorder (capacity <= 0
// selects DefaultTraceBuf) bound into the serving-metrics registry.
func newBoundRecorder(met *serverMetrics, capacity int, slow time.Duration) *trace.Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceBuf
	}
	rec := trace.NewRecorder(capacity, slow)
	rec.BindMetrics(met.reg)
	return rec
}

// NewServerWithOptions creates a server over a durable store: uploads
// write through to segment files under opts.DataDir, a restart recovers
// every tenant from the directory, and opts.MemBudget bounds resident
// arenas via LRU eviction.
func NewServerWithOptions(params bfv.Params, defaultSpec core.EngineSpec, opts StoreOptions) (*Server, error) {
	return NewServerWithServing(params, defaultSpec, opts, CoalesceConfig{})
}

// NewServerWithServing creates a server with both store durability and
// the serving layer configured: a non-zero coalesce.Window enables
// server-side adaptive query coalescing — concurrently arriving single
// queries against one database merge into shared batched arena passes —
// with its admission control (per-database queue caps, bounded
// executors, MsgOverloaded backpressure).
func NewServerWithServing(params bfv.Params, defaultSpec core.EngineSpec, opts StoreOptions, coalesce CoalesceConfig) (*Server, error) {
	met := newServerMetrics()
	if opts.Metrics == nil {
		opts.Metrics = met.reg // store_* counters land in /metrics too
	}
	store, err := NewStoreWithOptions(params, defaultSpec, opts)
	if err != nil {
		return nil, err
	}
	s := &Server{params: params, store: store, met: met,
		rec: newBoundRecorder(met, 0, 0), conns: make(map[net.Conn]struct{})}
	if coalesce.Window > 0 {
		s.co = NewCoalescer(store, params, coalesce, s.met)
	}
	return s, nil
}

// SetTracing resizes the trace rings and slow-query threshold (zero
// keeps either default). Call before Serve; traces recorded by the old
// recorder are discarded.
func (s *Server) SetTracing(capacity int, slowThreshold time.Duration) {
	s.rec = newBoundRecorder(s.met, capacity, slowThreshold)
}

// Traces exposes the server's trace recorder (for the /traces HTTP
// endpoints and tests).
func (s *Server) Traces() *trace.Recorder { return s.rec }

// SetTimeouts configures the per-connection read and write deadlines
// applied around each request (zero disables either). Call before
// Serve.
func (s *Server) SetTimeouts(read, write time.Duration) {
	s.readTimeout, s.writeTimeout = read, write
}

// Store exposes the database registry (for embedding the server
// in-process).
func (s *Server) Store() *Store { return s.store }

// Metrics exposes the serving-metrics registry (for the /metrics HTTP
// endpoint and tests).
func (s *Server) Metrics() *metrics.Registry { return s.met.reg }

// Close stops the coalescer (failing stranded queries) and retires the
// store. Call on shutdown after the listener has closed; prefer
// Shutdown, which drains in-flight requests first.
func (s *Server) Close() error {
	if s.co != nil {
		s.co.Close()
	}
	return s.store.Close()
}

// Shutdown drains and stops the server: no new connections are
// admitted, idle connections are unblocked, every request already read
// off a connection — including queries parked in coalescing windows —
// runs to completion and has its reply written, and only then are the
// coalescer and store closed. Close the listener first so Serve stops
// accepting. No accepted query is silently dropped.
func (s *Server) Shutdown() error {
	if !s.down.CompareAndSwap(false, true) {
		return nil
	}
	// Expire reads on every connection: handlers blocked waiting for the
	// *next* request fail out of ReadMessage immediately, while handlers
	// mid-request are untouched (the deadline only gates reads) and
	// still write their reply.
	s.connMu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now()) //nolint:errcheck // best-effort unblock
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return s.Close()
}

// Serve accepts connections until the listener closes. Each connection
// may carry any number of requests.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		go s.handleConn(conn)
	}
}

// track registers a connection for shutdown draining; false once the
// server is shutting down (the connection must be refused).
func (s *Server) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.down.Load() {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	s.wg.Done()
}

// timedReader wraps a connection for the read-stage measurement: it
// records the wall-clock instant the first byte of the current frame
// arrived, so the read stage covers frame transfer time, not the idle
// wait between a client's requests.
type timedReader struct {
	r     io.Reader
	first time.Time // zero until the first byte since reset
}

func (t *timedReader) reset() { t.first = time.Time{} }

func (t *timedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 && t.first.IsZero() {
		t.first = time.Now()
	}
	return n, err
}

// tenantHandles are the per-tenant serving-metric handles a connection
// caches (keyed by label value, so a hostile client cycling names
// cannot grow the cache past the hosted set plus "_other"), keeping
// labeled-family lookups off the per-request path.
type tenantHandles struct {
	queries *metrics.Counter
	errors  *metrics.Counter
	latency *metrics.Histogram
}

func (s *Server) tenantHandlesFor(cache map[string]tenantHandles, name string) tenantHandles {
	label := name
	if !s.store.Has(name) {
		label = unknownTenantLabel
	}
	if h, ok := cache[label]; ok {
		return h
	}
	h := tenantHandles{
		queries: s.met.tenantQueries.With(label),
		errors:  s.met.tenantErrors.With(label),
		latency: s.rec.TenantHistogram(label),
	}
	cache[label] = h
	return h
}

// handleConn answers requests until the peer disconnects. Application
// errors (unknown database, malformed query) are reported as MsgError
// and the connection stays usable — one tenant's bad request must not
// tear down a session. A handler panic is confined to the request that
// caused it and answered with MsgServerError; the process, the other
// connections, and even this connection keep serving.
//
// Every MsgQuery gets a lifecycle trace: the Trace value is owned by
// this handler and reused across requests (zero allocations per
// record), stamped here for the read/write boundaries and inside
// searchOne/the coalescer for the pipeline stages. The trace and the
// tenant counters are published BEFORE the reply is written, so a
// client that holds its reply always finds its own record in a dump or
// a stats snapshot. The price is that a reply's socket-write time is
// not known when its trace is sealed: it is carried onto the
// connection's next trace (the write stage of record k is the write of
// reply k-1 on the same connection).
func (s *Server) handleConn(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	tr := &timedReader{r: conn}
	var t trace.Trace
	var carriedWrite int64 // previous traced reply's write time, not yet recorded
	tenants := make(map[string]tenantHandles)
	for {
		if s.readTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.readTimeout)) //nolint:errcheck // fails only with the conn
		}
		tr.reset()
		msgType, payload, err := ReadMessage(tr)
		if err != nil {
			if errors.Is(err, ErrConnTruncated) {
				s.met.truncated.Inc()
			}
			return // EOF, deadline, or broken peer; nothing to answer
		}
		traced := msgType == MsgQuery
		var qt *trace.Trace
		if traced {
			t.Reset()
			t.Start = tr.first.UnixNano()
			t.Stamp(trace.StageRead, int64(time.Since(tr.first)))
			qt = &t
		}
		reply, body := s.answer(msgType, payload, qt)
		if traced {
			t.Stamp(trace.StageWrite, carriedWrite)
			t.TotalNS = int64(time.Since(tr.first))
			var h tenantHandles
			if t.Tenant != "" {
				h = s.tenantHandlesFor(tenants, t.Tenant)
				h.queries.Inc()
			}
			switch reply {
			case MsgOverloaded:
				t.Flags |= trace.FlagError | trace.FlagRejected
			case MsgError, MsgServerError:
				t.Flags |= trace.FlagError
			}
			if t.Flags&trace.FlagError != 0 && h.errors != nil {
				h.errors.Inc()
			}
			s.rec.Finish(&t, h.latency)
		}
		if s.writeTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.writeTimeout)) //nolint:errcheck // fails only with the conn
		}
		writeStart := time.Now()
		if err := WriteMessage(conn, reply, body); err != nil {
			return
		}
		if traced {
			carriedWrite = int64(time.Since(writeStart))
		}
	}
}

// answer runs one request through handleMessage with panic isolation
// and maps errors to their typed wire replies. t is the request's
// lifecycle trace (non-nil only for MsgQuery).
func (s *Server) answer(msgType byte, payload []byte, t *trace.Trace) (reply byte, body []byte) {
	defer func() {
		if r := recover(); r != nil {
			s.met.panics.Inc()
			s.met.errorsTotal.Inc()
			s.met.errorsByType.With("panic").Inc()
			reply, body = MsgServerError, []byte(fmt.Sprintf("recovered panic: %v", r))
		}
	}()
	reply, body, err := s.handleMessage(msgType, payload, t)
	if err != nil {
		switch {
		// Admission-control rejections travel typed so clients can
		// distinguish transient overload (retry with backoff) from a
		// request that will never succeed.
		case errors.Is(err, ErrOverloaded) || errors.Is(err, errShutdown):
			s.met.errorsByType.With("overloaded").Inc()
			reply, body = MsgOverloaded, []byte(err.Error())
		// Server-side faults (quarantined storage, recovered executor
		// panics) travel typed too: the request was fine, the server
		// was not — retryable for read-only requests.
		case errors.Is(err, ErrServerFault):
			s.met.errorsTotal.Inc()
			s.met.errorsByType.With("server_fault").Inc()
			reply, body = MsgServerError, []byte(err.Error())
		default:
			s.met.errorsTotal.Inc()
			s.met.errorsByType.With("error").Inc()
			reply, body = MsgError, []byte(err.Error())
		}
	}
	return reply, body
}

func (s *Server) handleMessage(msgType byte, payload []byte, t *trace.Trace) (byte, []byte, error) {
	switch msgType {
	case MsgUploadDB:
		name, spec, db, err := DecodeUploadDB(payload, s.params)
		if err != nil {
			return 0, nil, fmt.Errorf("decoding database: %w", err)
		}
		if err := s.store.Upload(name, spec, db); err != nil {
			return 0, nil, err
		}
		s.met.uploads.Inc()
		return MsgAck, nil, nil
	case MsgQuery:
		s.met.queries.Inc()
		// Peel the trace extension before any decoding so the coalescer's
		// byte-identical dedup sees the same query bytes from traced and
		// untraced clients alike.
		payload, clientID, hasID := PeelTraceExt(payload)
		if hasID {
			t.ID = clientID
			t.Flags |= trace.FlagClientID
		} else {
			t.ID = s.rec.NextID()
		}
		candidates, err := s.searchOne(payload, t)
		if err != nil {
			if errors.Is(err, ErrOverloaded) || errors.Is(err, errShutdown) {
				return 0, nil, err
			}
			return 0, nil, fmt.Errorf("search: %w", err)
		}
		encodeStart := time.Now()
		body, err := EncodeResult(candidates)
		if err != nil {
			return 0, nil, fmt.Errorf("encoding result: %w", err)
		}
		t.Stamp(trace.StageEncode, int64(time.Since(encodeStart)))
		return MsgResult, body, nil
	case MsgTraceDump:
		max, slowOnly, err := DecodeTraceDump(payload)
		if err != nil {
			return 0, nil, fmt.Errorf("decoding trace dump request: %w", err)
		}
		traces := s.rec.Recent(max)
		if slowOnly {
			traces = s.rec.Slow(max)
		}
		return MsgTraceDumpResult, EncodeTraceDumpResult(traces), nil
	case MsgBatchQuery:
		name, bq, err := DecodeNamedBatchQuery(payload, s.params)
		if err != nil {
			return 0, nil, fmt.Errorf("decoding batch query: %w", err)
		}
		s.met.batchMembers.Add(int64(len(bq.Queries)))
		irs, err := s.store.SearchBatch(name, bq)
		if err != nil {
			return 0, nil, fmt.Errorf("batch search: %w", err)
		}
		results := make([][]int, len(irs))
		var streamed int64
		for i, ir := range irs {
			results[i] = ir.Candidates
			streamed += ir.Stats.ChunkStreams
			ir.Release() // candidates only; recycle the hit bitmaps
		}
		s.met.chunkStreams.Add(streamed)
		body, err := EncodeBatchResult(results)
		if err != nil {
			return 0, nil, fmt.Errorf("encoding batch result: %w", err)
		}
		return MsgBatchResult, body, nil
	case MsgStats:
		return MsgStatsResult, EncodeStats(s.met.snapshot()), nil
	case MsgListDBs:
		return MsgDBList, EncodeDBList(s.store.List()), nil
	case MsgDropDB:
		name, err := DecodeName(payload)
		if err != nil {
			return 0, nil, fmt.Errorf("decoding name: %w", err)
		}
		if err := s.store.Drop(name); err != nil {
			return 0, nil, err
		}
		return MsgAck, nil, nil
	default:
		return 0, nil, fmt.Errorf("unexpected message type %d", msgType)
	}
}

// searchOne routes a single MsgQuery payload through the coalescer when
// configured, and directly through the store otherwise. The two paths
// return bit-identical candidates; the coalesced one defers the query
// decode into the batching window (identical payloads decode once) and
// shares arena passes with concurrent arrivals. Stage stamps land on t
// either here (direct path) or inside the coalescer's executor.
func (s *Server) searchOne(payload []byte, t *trace.Trace) ([]int, error) {
	if s.co != nil {
		splitStart := time.Now()
		name, raw, err := SplitNamedQuery(payload)
		if err != nil {
			return nil, fmt.Errorf("decoding query: %w", err)
		}
		t.Tenant = name
		t.Stamp(trace.StageDecode, int64(time.Since(splitStart)))
		return s.co.SearchRawTraced(name, raw, t)
	}
	decodeStart := time.Now()
	name, q, err := DecodeNamedQuery(payload, s.params)
	if err != nil {
		return nil, fmt.Errorf("decoding query: %w", err)
	}
	t.Tenant = name
	arenaStart := time.Now()
	t.Stamp(trace.StageDecode, int64(arenaStart.Sub(decodeStart)))
	ir, err := s.store.Search(name, q)
	if err != nil {
		return nil, err
	}
	t.Stamp(trace.StageArena, int64(time.Since(arenaStart)))
	t.ChunkStreams = ir.Stats.ChunkStreams
	t.HomAdds = int64(ir.Stats.HomAdds)
	t.Batch = 1
	s.met.chunkStreams.Add(ir.Stats.ChunkStreams)
	candidates := ir.Candidates
	// Only candidates cross the wire; recycle the hit bitmaps so the
	// request loop's bitset storage is reused across searches.
	ir.Release()
	return candidates, nil
}

// RetryPolicy configures client-side retries of read-only requests.
// Queries never mutate server state, so replaying one after an
// ambiguous failure (timeout, dropped connection) is always safe —
// the worst case is the server computing an answer nobody reads.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables.
	Max int
	// BaseDelay is the first backoff step (default 5ms); each retry
	// doubles it up to MaxDelay (default 250ms), with ±50% seeded
	// jitter so synchronized clients do not re-stampede in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Timeout is the per-attempt I/O deadline covering one write+read
	// round trip; 0 leaves the connection's default (no deadline).
	Timeout time.Duration
	// Seed derives the jitter stream; any string, "" included.
	Seed string
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	return p
}

// RetryStats counts a connection's recovery activity.
type RetryStats struct {
	Retries    int64 // replays after MsgOverloaded, timeouts, transport faults
	Reconnects int64 // re-dials after a poisoned connection
}

// Conn is the client side of the protocol. A Conn serialises its own
// request/response pairs; open one Conn per goroutine for parallel
// searches.
type Conn struct {
	params bfv.Params
	addr   string // "" when wrapped around an existing net.Conn
	mu     sync.Mutex
	conn   net.Conn

	retry      RetryPolicy
	jitter     *rng.Source // guarded by mu
	retries    atomic.Int64
	reconnects atomic.Int64

	// Client-side trace correlation: when traceBase is non-zero every
	// query carries the trailing trace extension with ID traceBase+seq,
	// so server-side traces can be joined back to this client's requests.
	traceBase uint64
	traceSeq  atomic.Uint64
}

// EnableTracing turns on end-to-end trace correlation for this
// connection's queries: each Search/SearchPrepared request carries a
// client-generated trace ID (base + per-request sequence) in the
// trailing wire extension. Old servers ignore the extension; new
// servers adopt the ID, visible later in TraceDump and /traces. Pick a
// base that distinguishes this client (e.g. a hash of its name); zero
// disables.
func (c *Conn) EnableTracing(base uint64) {
	c.traceBase = base
}

// NextTraceID returns the trace ID the next traced query will carry.
func (c *Conn) NextTraceID() uint64 {
	return c.traceBase + c.traceSeq.Load() + 1
}

// TraceDump fetches up to max request traces from the server's flight
// recorder (0 = ring capacity), newest first; slowOnly reads the
// slow-query ring instead of the recent one. Servers predating the
// trace protocol answer MsgError, surfaced here as an error.
func (c *Conn) TraceDump(max int, slowOnly bool) ([]trace.Trace, error) {
	reply, body, err := c.retryRoundTrip(MsgTraceDump, EncodeTraceDump(max, slowOnly))
	if err != nil {
		return nil, err
	}
	switch reply {
	case MsgTraceDumpResult:
		return DecodeTraceDumpResult(body)
	case MsgServerError:
		return nil, fmt.Errorf("proto: %s: %w", body, ErrServerFault)
	case MsgError:
		return nil, fmt.Errorf("proto: server error: %s", body)
	default:
		return nil, fmt.Errorf("proto: unexpected reply type %d", reply)
	}
}

// Dial connects to a CIPHERMATCH server.
func Dial(addr string, params bfv.Params) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Conn{params: params, addr: addr, conn: c}, nil
}

// NewConn wraps an established connection (a test pipe, a tunnel).
// Without a dial address, retries can still replay after MsgOverloaded
// but cannot reconnect after transport faults.
func NewConn(conn net.Conn, params bfv.Params) *Conn {
	return &Conn{params: params, conn: conn}
}

// SetRetry enables retry-with-backoff on this connection's read-only
// requests (Search, SearchPrepared, SearchBatch, ListDBs, ServerStats):
// MsgOverloaded replies, per-attempt deadline expiry and transient
// transport errors (truncated or reset connections) are retried up to
// policy.Max times with exponential backoff and seeded jitter,
// re-dialing when the transport is poisoned. Mutating requests
// (UploadDB, DropDB) are never retried.
func (c *Conn) SetRetry(policy RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = policy.withDefaults()
	c.jitter = rng.NewSourceFromString("proto-retry/" + policy.Seed)
}

// RetryStats reports how many retries and reconnects this connection
// has performed.
func (c *Conn) RetryStats() RetryStats {
	return RetryStats{Retries: c.retries.Load(), Reconnects: c.reconnects.Load()}
}

// Close closes the connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// roundTrip writes one request and reads its reply, applying the
// per-attempt deadline when a retry policy sets one.
func (c *Conn) roundTrip(msgType byte, payload []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retry.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.retry.Timeout)) //nolint:errcheck // fails only with the conn
		defer c.conn.SetDeadline(time.Time{})               //nolint:errcheck // fails only with the conn
	}
	if err := WriteMessage(c.conn, msgType, payload); err != nil {
		return 0, nil, err
	}
	return ReadMessage(c.conn)
}

// transientErr reports whether a round-trip error is worth a retry on a
// fresh connection: the request may never have reached the server, or
// the reply was lost — either way a read-only request can replay.
func transientErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrConnTruncated) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error // deadline expiry and transport-level op errors
	return errors.As(err, &ne)
}

// reconnect replaces a poisoned connection (mid-message failure leaves
// the request/reply stream desynchronized) with a fresh dial.
func (c *Conn) reconnect() error {
	if c.addr == "" {
		return fmt.Errorf("proto: cannot reconnect a wrapped connection")
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.conn.Close() //nolint:errcheck // replacing a poisoned connection
	c.conn = nc
	c.mu.Unlock()
	c.reconnects.Add(1)
	return nil
}

// backoff returns the jittered exponential delay before retry attempt
// (0-based).
func (c *Conn) backoff(attempt int) time.Duration {
	d := c.retry.BaseDelay
	if attempt > 0 && attempt < 32 && bits.LeadingZeros64(uint64(d))+attempt < 64 {
		d <<= attempt
	}
	if d > c.retry.MaxDelay {
		d = c.retry.MaxDelay
	}
	c.mu.Lock()
	f := 0.5 + c.jitter.Float64() // ±50% jitter
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// retryRoundTrip is roundTrip with the connection's retry policy:
// MsgOverloaded replies and transient transport errors back off and
// replay; anything else — including MsgError and MsgServerError, which
// prove the server handled the request — returns to the caller. Only
// read-only requests may use it.
func (c *Conn) retryRoundTrip(msgType byte, payload []byte) (byte, []byte, error) {
	for attempt := 0; ; attempt++ {
		reply, body, err := c.roundTrip(msgType, payload)
		retryable := (err == nil && reply == MsgOverloaded) || transientErr(err)
		if !retryable || attempt >= c.retry.Max {
			return reply, body, err
		}
		if err != nil {
			// The stream may hold half a message: only a fresh
			// connection can carry the replay.
			if rerr := c.reconnect(); rerr != nil {
				return reply, body, err
			}
		}
		c.retries.Add(1)
		time.Sleep(c.backoff(attempt))
	}
}

// UploadDB ships an encrypted database to the server under the given
// name. An empty spec kind lets the server pick its default engine.
func (c *Conn) UploadDB(name string, spec core.EngineSpec, db *core.EncryptedDB) error {
	reply, body, err := c.roundTrip(MsgUploadDB, EncodeUploadDB(name, spec, db, c.params))
	if err != nil {
		return err
	}
	return expectAck(reply, body)
}

// Search runs one remote search against the named database and returns
// the candidate offsets. The query must carry match tokens
// (core.ModeSeededMatch): the server generates the index and only the
// index travels back.
func (c *Conn) Search(name string, q *core.Query) ([]int, error) {
	payload, err := c.PrepareSearch(name, q)
	if err != nil {
		return nil, err
	}
	return c.SearchPrepared(payload)
}

// PrepareSearch pre-encodes one named-query request. Encoding a large
// query is not cheap (the factored wire form carries one polynomial per
// chunk); a client that resends the same query — a load generator, a
// poller — pays it once here and replays the payload with
// SearchPrepared instead of re-encoding per send.
func (c *Conn) PrepareSearch(name string, q *core.Query) ([]byte, error) {
	if !q.HasTokens() {
		return nil, fmt.Errorf("proto: remote search requires match tokens (core.ModeSeededMatch)")
	}
	return EncodeNamedQuery(name, q, c.params), nil
}

// SearchPrepared sends a request payload built by PrepareSearch (on
// this or any Conn to the same server — payloads are connection-
// independent) and decodes the reply like Search. With tracing enabled
// the payload is cloned before the extension is appended, so prepared
// payloads shared across connections are never mutated.
func (c *Conn) SearchPrepared(payload []byte) ([]int, error) {
	if c.traceBase != 0 {
		id := c.traceBase + c.traceSeq.Add(1)
		payload = AppendTraceExt(append([]byte(nil), payload...), id)
	}
	reply, body, err := c.retryRoundTrip(MsgQuery, payload)
	if err != nil {
		return nil, err
	}
	switch reply {
	case MsgResult:
		return DecodeResult(body)
	case MsgOverloaded:
		return nil, fmt.Errorf("proto: %s: %w", body, ErrOverloaded)
	case MsgServerError:
		return nil, fmt.Errorf("proto: %s: %w", body, ErrServerFault)
	case MsgError:
		return nil, fmt.Errorf("proto: server error: %s", body)
	default:
		return nil, fmt.Errorf("proto: unexpected reply type %d", reply)
	}
}

// ServerStats fetches the server's serving-metrics snapshot: flat
// name/value samples (counters, gauges, histogram summaries) — QPS
// inputs, batch occupancy, queue latency, coalesce rate, arena passes
// saved. See DESIGN.md for the catalog.
func (c *Conn) ServerStats() ([]metrics.KV, error) {
	reply, body, err := c.retryRoundTrip(MsgStats, nil)
	if err != nil {
		return nil, err
	}
	switch reply {
	case MsgStatsResult:
		return DecodeStats(body)
	case MsgServerError:
		return nil, fmt.Errorf("proto: %s: %w", body, ErrServerFault)
	case MsgError:
		return nil, fmt.Errorf("proto: server error: %s", body)
	default:
		return nil, fmt.Errorf("proto: unexpected reply type %d", reply)
	}
}

// SearchBatch runs N independent searches against the named database in
// a single round trip and returns per-query candidate offsets in input
// order. The server amortises one pass over the database chunks across
// the whole batch (where its engine supports batching), and pattern
// ciphertexts shared between queries travel and evaluate once — batch a
// burst of concurrent queries against a hot database instead of looping
// over Search. Every query must carry match tokens
// (core.ModeSeededMatch).
func (c *Conn) SearchBatch(name string, queries []*core.Query) ([][]int, error) {
	for i, q := range queries {
		if !q.HasTokens() {
			return nil, fmt.Errorf("proto: batch member %d: remote search requires match tokens (core.ModeSeededMatch)", i)
		}
	}
	// No client-side pointer dedup needed: the wire encoder pools
	// patterns by content.
	bq := &core.BatchQuery{Queries: queries}
	reply, body, err := c.retryRoundTrip(MsgBatchQuery, EncodeNamedBatchQuery(name, bq, c.params))
	if err != nil {
		return nil, err
	}
	switch reply {
	case MsgBatchResult:
		results, err := DecodeBatchResult(body)
		if err != nil {
			return nil, err
		}
		if len(results) != len(queries) {
			return nil, fmt.Errorf("proto: server returned %d results for %d queries", len(results), len(queries))
		}
		return results, nil
	case MsgOverloaded:
		return nil, fmt.Errorf("proto: %s: %w", body, ErrOverloaded)
	case MsgServerError:
		return nil, fmt.Errorf("proto: %s: %w", body, ErrServerFault)
	case MsgError:
		return nil, fmt.Errorf("proto: server error: %s", body)
	default:
		return nil, fmt.Errorf("proto: unexpected reply type %d", reply)
	}
}

// ListDBs returns the server's database listing.
func (c *Conn) ListDBs() ([]DBInfo, error) {
	reply, body, err := c.retryRoundTrip(MsgListDBs, nil)
	if err != nil {
		return nil, err
	}
	switch reply {
	case MsgDBList:
		return DecodeDBList(body)
	case MsgServerError:
		return nil, fmt.Errorf("proto: %s: %w", body, ErrServerFault)
	case MsgError:
		return nil, fmt.Errorf("proto: server error: %s", body)
	default:
		return nil, fmt.Errorf("proto: unexpected reply type %d", reply)
	}
}

// DropDB removes the named database from the server.
func (c *Conn) DropDB(name string) error {
	reply, body, err := c.roundTrip(MsgDropDB, EncodeName(name))
	if err != nil {
		return err
	}
	return expectAck(reply, body)
}

func expectAck(reply byte, body []byte) error {
	switch reply {
	case MsgAck:
		return nil
	case MsgOverloaded:
		return fmt.Errorf("proto: %s: %w", body, ErrOverloaded)
	case MsgServerError:
		return fmt.Errorf("proto: %s: %w", body, ErrServerFault)
	case MsgError:
		return fmt.Errorf("proto: server error: %s", body)
	default:
		return fmt.Errorf("proto: unexpected reply type %d", reply)
	}
}
