// Server-side query coalescing. The search kernel makes one arena pass
// serve a whole core.BatchQuery, but only a client can form one. The
// Coalescer closes that gap for concurrent traffic: single MsgQuery
// requests against one database are held in a short per-database
// window — closed at MaxBatch queries or after Window, whichever first —
// merged into one BatchQuery, run as one arena pass, and fanned back to
// their connections: the paper's memory-traffic-is-the-bottleneck
// thesis applied to request streams instead of residues.
//
// A window has no goroutine of its own: the query that opens it leads
// it, running the batch on its own connection goroutine. Admission
// control caps each database's admitted but not yet executing queries,
// rejecting excess load with a typed wire error (MsgOverloaded) instead
// of queueing unboundedly, and GOMAXPROCS execution slots, granted in
// arrival order, round-robin batches fairly across databases.
package proto

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/trace"
)

// unknownTenantLabel is the shared label value for metrics attributed
// to database names the store does not host: client-minted names must
// never become label values (see the cardinality policy in
// internal/metrics), so they all collapse into this one child.
const unknownTenantLabel = "_other"

// ErrOverloaded is the admission-control rejection: the target
// database's coalescing queue is at its depth cap. The wire maps it to
// MsgOverloaded; clients should back off and retry.
var ErrOverloaded = errors.New("proto: server overloaded, retry later")

// errShutdown fails queries that arrive after the coalescer closed, or
// whose window shuts after it closed; it surfaces as MsgOverloaded too
// (the retry advice holds).
var errShutdown = errors.New("proto: server shutting down")

// CoalesceConfig tunes the server-side batching window and its
// admission control. The zero value disables coalescing (every MsgQuery
// runs as its own search, the pre-coalescing behaviour).
type CoalesceConfig struct {
	// Window is the batching delay T: a window closes this long after
	// the query that opened it arrived, unless MaxBatch closes it first.
	// Zero disables coalescing.
	Window time.Duration
	// MaxBatch closes a window as soon as it holds this many queries
	// (the N in "N queries or T µs"). Defaults to 16.
	MaxBatch int
	// MaxQueue caps admitted, not yet executing queries per database;
	// arrivals beyond it are rejected with ErrOverloaded. Defaults to
	// 16× MaxBatch. May be set below MaxBatch: windows then fill only
	// up to the queue cap and close by timer.
	MaxQueue int
}

func (c CoalesceConfig) withDefaults() CoalesceConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16 * c.MaxBatch
	}
	return c
}

// coalesceResult is what a window's leader hands back to a member.
type coalesceResult struct {
	candidates []int
	err        error
}

// pendingQuery is one admitted single query waiting for its batch. It
// carries the raw wire bytes, not a decoded query: decoding is deferred
// to batch execution, where byte-identical members (a hot query
// replayed by many connections — exactly the traffic that coalesces)
// share one decode.
//
// Lifetime rule: the group's decoded query aliases its first member's
// raw bytes (DecodeQuery slices the DBTok rows out of them), so raw
// must stay unmodified until the window's search has returned. It
// does: raw is a slice of the request's own payload allocation (the
// direct path's pooled buffers are never used when a coalescer is
// configured), and its handler blocks on done until the leader has
// searched and fanned the results out.
type pendingQuery struct {
	raw      []byte // encoded query, name already stripped
	enqueued time.Time
	done     chan coalesceResult // buffered(1); exactly one send
	// tr is the request's lifecycle trace (nil when untraced). The
	// leader stamps decode/coalesce-wait/batch-form/arena and the
	// per-member arena attribution into it strictly before sending on
	// done, and the member's connection handler reads it strictly after
	// receiving — the channel is the synchronisation edge.
	tr *trace.Trace
}

// window is one batch accepting arrivals. The arrival that brings it to
// MaxBatch closes full, waking the leader early.
type window struct {
	members []*pendingQuery
	full    chan struct{}
}

// dbQueue is the per-database coalescing state, guarded by
// Coalescer.mu. It exists while the database has admitted queries that
// are not yet executing.
type dbQueue struct {
	name string

	// Per-tenant serving telemetry handles, resolved once when the queue
	// is created (one labeled-family lookup per active tenant, not per
	// query). depth tracks waiting; rejected counts admission
	// rejections; occupancy observes batch sizes.
	depth     *metrics.Gauge
	rejected  *metrics.Counter
	occupancy *metrics.Histogram

	waiting int     // admitted, not yet executing; capped at MaxQueue
	open    *window // the window accepting arrivals, nil when none is
}

// Coalescer merges concurrently arriving single queries into batched
// arena passes. One per Server; nil means coalescing is disabled.
type Coalescer struct {
	store  *Store
	params bfv.Params
	cfg    CoalesceConfig
	met    *serverMetrics
	// slots bounds concurrent batch executions at GOMAXPROCS. Blocked
	// leaders are granted slots in arrival order (a channel queues its
	// blocked senders FIFO), which round-robins execution across
	// databases.
	slots chan struct{}

	mu     sync.Mutex
	queues map[string]*dbQueue
	closed bool
}

// newCoalescer builds a coalescer over a store. It starts no goroutines:
// every window runs on the goroutine of the query that opened it.
func newCoalescer(store *Store, params bfv.Params, cfg CoalesceConfig, met *serverMetrics) *Coalescer {
	return &Coalescer{
		store:  store,
		params: params,
		cfg:    cfg.withDefaults(),
		met:    met,
		slots:  make(chan struct{}, runtime.GOMAXPROCS(0)),
		queues: make(map[string]*dbQueue),
	}
}

// search admits one still-encoded query for the named database and
// blocks until its batch has executed, returning the query's own
// candidates. Results are bit-identical to decoding and running
// Store.Search directly (batches run the single-query kernel and are
// conformance-pinned to the sequential path). Rejects with ErrOverloaded when the database's
// queue is at its depth cap. tr (nil disables tracing) gets admission
// stamped here; the leader stamps the window wait, batch formation, the
// shared decode and the arena pass before the result is fanned back.
func (co *Coalescer) search(name string, raw []byte, tr *trace.Trace) ([]int, error) {
	pq := &pendingQuery{raw: raw, enqueued: time.Now(), done: make(chan coalesceResult, 1), tr: tr}
	q, lead, err := co.admit(name, pq)
	if tr != nil {
		tr.Stamp(trace.StageAdmission, int64(time.Since(pq.enqueued)))
	}
	if err != nil {
		return nil, err
	}
	if lead != nil {
		co.lead(q, lead)
	}
	res := <-pq.done
	return res.candidates, res.err
}

// admit adds pq to the database's open window, opening one when none
// is. It returns the window only when pq opened it: pq then leads it.
func (co *Coalescer) admit(name string, pq *pendingQuery) (*dbQueue, *window, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		return nil, nil, errShutdown
	}
	q, ok := co.queues[name]
	if !ok {
		// Label-cardinality guard: only names the store actually hosts
		// (bounded by MaxStoredDBs) become label values; queries against
		// arbitrary client-minted names share one "_other" child, so a
		// hostile peer cannot grow the registry without bound.
		label := name
		if !co.store.Has(name) {
			label = unknownTenantLabel
		}
		q = &dbQueue{
			name:      name,
			depth:     co.met.tenantDepth.With(label),
			rejected:  co.met.tenantRejected.With(label),
			occupancy: co.met.tenantOccupancy.With(label),
		}
		co.queues[name] = q
	}
	if q.waiting >= co.cfg.MaxQueue {
		co.met.rejected.Inc()
		q.rejected.Inc()
		return nil, nil, ErrOverloaded
	}
	q.waiting++
	q.depth.Set(int64(q.waiting))
	var lead *window
	if q.open == nil {
		lead = &window{full: make(chan struct{})}
		q.open = lead
	}
	w := q.open
	w.members = append(w.members, pq)
	if len(w.members) == co.cfg.MaxBatch {
		close(w.full)
		q.open = nil
	}
	return q, lead, nil
}

// lead runs a window on its leader's goroutine: wait until it fills or
// Window elapses, close it to arrivals, take an execution slot, and run
// the batch. Members count against MaxQueue until their slot is granted.
func (co *Coalescer) lead(q *dbQueue, w *window) {
	timer := time.NewTimer(co.cfg.Window)
	select {
	case <-w.full:
	case <-timer.C:
	}
	timer.Stop()
	co.mu.Lock()
	if q.open == w {
		q.open = nil
	}
	batch, closed := w.members, co.closed
	co.mu.Unlock()

	if !closed {
		co.slots <- struct{}{}
		defer func() { <-co.slots }()
	}
	co.mu.Lock()
	q.waiting -= len(batch)
	q.depth.Set(int64(q.waiting))
	if q.waiting == 0 {
		// Nothing admitted is left: drop the entry, bounding coalescer
		// memory to the set of actively queried names.
		delete(co.queues, q.name)
	}
	co.mu.Unlock()

	if closed {
		for _, pq := range batch {
			pq.done <- coalesceResult{err: errShutdown}
		}
		return
	}
	co.executeSafe(q, batch)
}

// queryGroup is one set of byte-identical batch members: they decode to
// the same query, run as one evaluation, and share one result.
type queryGroup struct {
	members []*pendingQuery
	q       *core.Query
}

// fan delivers one outcome to every member of the group. The candidate
// slice is shared read-only across members (each send only encodes it).
// The non-blocking send makes fan idempotent per member (done is
// buffered(1)): the panic-recovery sweep in executeSafe can blanket the
// whole batch without double-sending to members already answered.
func (g *queryGroup) fan(res coalesceResult) {
	for _, pq := range g.members {
		select {
		case pq.done <- res:
		default:
		}
	}
}

// executeSafe runs one batch with panic isolation: a panic inside the
// search kernel or the store poisons only this window — every member
// that has not been answered yet gets a typed server-fault error, the
// leader's connection keeps serving, and no member is ever stranded.
func (co *Coalescer) executeSafe(q *dbQueue, batch []*pendingQuery) {
	defer func() {
		if r := recover(); r != nil {
			co.met.panics.Inc()
			co.met.failed.Add(int64(len(batch)))
			(&queryGroup{members: batch}).fan(coalesceResult{
				err: fmt.Errorf("%w: recovered coalesced-batch panic: %v", ErrServerFault, r)})
		}
	}()
	co.execute(q, batch)
}

// stampMembers adds ns to stage s on every traced member of a group.
func stampMembers(members []*pendingQuery, s trace.Stage, ns int64) {
	for _, pq := range members {
		if pq.tr != nil {
			pq.tr.Stamp(s, ns)
		}
	}
}

// attributeArena records the arena work a search performed into every
// traced member of a group: a coalesced member's trace carries the full
// stats of the evaluation that produced its answer (shared across the
// group, like the shared decode).
func attributeArena(members []*pendingQuery, stats core.Stats) {
	for _, pq := range members {
		if pq.tr != nil {
			pq.tr.ChunkStreams = stats.ChunkStreams
			pq.tr.HomAdds = int64(stats.HomAdds)
		}
	}
}

// searchAlone runs one group as its own Store.Search and fans the
// outcome to its members, returning the chunk streams it performed and
// whether it succeeded.
func (co *Coalescer) searchAlone(name string, g *queryGroup) (int64, bool) {
	start := time.Now()
	ir, err := co.store.Search(name, g.q)
	stampMembers(g.members, trace.StageArena, int64(time.Since(start)))
	if err != nil {
		co.met.failed.Add(int64(len(g.members)))
		g.fan(coalesceResult{err: err})
		return 0, false
	}
	streamed := ir.Stats.ChunkStreams
	attributeArena(g.members, ir.Stats)
	candidates := ir.Candidates
	ir.Release()
	g.fan(coalesceResult{candidates: candidates})
	return streamed, true
}

// execute runs one coalesced batch through the store's batched search
// and fans results back. Byte-identical members collapse into one group
// first — the window's second big saving besides the shared arena pass:
// a hot query replayed by N connections decodes once, not N times, and
// occupies one batch slot. On a batch-level error it falls back to
// per-group sequential searches so one malformed query cannot poison
// the whole window's innocents (their errors stay their own).
func (co *Coalescer) execute(q *dbQueue, batch []*pendingQuery) {
	name := q.name
	start := time.Now()
	for _, pq := range batch {
		wait := int64(start.Sub(pq.enqueued))
		co.met.queueWait.Observe(wait)
		if pq.tr != nil {
			pq.tr.Stamp(trace.StageCoalesceWait, wait)
			pq.tr.Batch = int32(len(batch))
			if len(batch) > 1 {
				pq.tr.Flags |= trace.FlagCoalesced
			}
		}
	}
	co.met.batches.Inc()
	co.met.occupancy.Observe(int64(len(batch)))
	q.occupancy.Observe(int64(len(batch)))
	if len(batch) > 1 {
		co.met.coalesced.Add(int64(len(batch)))
	}

	// Group byte-identical payloads; deterministic encoders mean byte
	// equality is exact query equality. Map lookups on string(pq.raw)
	// do not copy; only the first member of each group allocates a key.
	var groups []*queryGroup
	byPayload := make(map[string]*queryGroup, len(batch))
	for _, pq := range batch {
		if g, ok := byPayload[string(pq.raw)]; ok {
			g.members = append(g.members, pq)
			co.met.decodesSaved.Inc()
			continue
		}
		g := &queryGroup{members: []*pendingQuery{pq}}
		byPayload[string(pq.raw)] = g
		groups = append(groups, g)
	}
	formed := time.Now()
	stampMembers(batch, trace.StageBatchForm, int64(formed.Sub(start)))

	// Decode once per group. A group that fails to decode fails alone.
	// Each member's trace carries its group's shared decode time — the
	// coalesced counterpart of the direct path's decode stage.
	live := groups[:0]
	decodeStart := formed
	for _, g := range groups {
		q, err := DecodeQuery(g.members[0].raw, co.params)
		decodeEnd := time.Now()
		stampMembers(g.members, trace.StageDecode, int64(decodeEnd.Sub(decodeStart)))
		decodeStart = decodeEnd
		if err != nil {
			co.met.failed.Add(int64(len(g.members)))
			g.fan(coalesceResult{err: fmt.Errorf("decoding query: %w", err)})
			continue
		}
		g.q = q
		live = append(live, g)
	}
	if len(live) == 0 {
		return
	}

	var streamed int64
	if len(live) == 1 {
		// One distinct query (lone arrival, or a fully duplicate window):
		// the batch path gains nothing, run it direct.
		var ok bool
		if streamed, ok = co.searchAlone(name, live[0]); !ok {
			return
		}
	} else {
		queries := make([]*core.Query, len(live))
		for i, g := range live {
			queries[i] = g.q
		}
		bq := core.NewBatchQuery(queries...)
		arenaStart := time.Now()
		irs, err := co.store.SearchBatch(name, bq)
		arenaNS := int64(time.Since(arenaStart))
		if err != nil {
			// Batch-level failure (validation, missing database): isolate
			// it by retrying each group alone, so only the offending
			// members fail.
			co.met.fallbacks.Inc()
			for _, g := range live {
				solo, _ := co.searchAlone(name, g)
				co.met.chunkStreams.Add(solo)
			}
			return
		}
		for i, g := range live {
			ir := irs[i]
			streamed += ir.Stats.ChunkStreams
			// The member stats are the per-query share the engine
			// attributed; the shared arena-pass wall time is stamped whole
			// (every member rode the same pass).
			stampMembers(g.members, trace.StageArena, arenaNS)
			attributeArena(g.members, ir.Stats)
			candidates := ir.Candidates
			ir.Release()
			g.fan(coalesceResult{candidates: candidates})
		}
	}
	co.met.chunkStreams.Add(streamed)
	// Arena passes saved: each member alone would have streamed every
	// chunk once (the PR-5 single-pass invariant); the window shared
	// those streams across members — between groups because groups on
	// one DBTok plane stream it once, within groups outright.
	if solo := int64(len(batch)) * int64(live[0].q.NumChunks); solo > streamed {
		co.met.streamsSaved.Add(solo - streamed)
	}
}

// Close rejects new arrivals; a window still open fails its members with
// errShutdown when it closes. Server.Shutdown drains every connection —
// leaders included — before calling Close, so it strands no query.
func (co *Coalescer) Close() {
	co.mu.Lock()
	co.closed = true
	co.mu.Unlock()
}

// serverMetrics is the server's serving-metrics catalog: handles cached
// off the registry once, recorded lock-free on the hot paths. See
// DESIGN.md's serving section for the catalog semantics.
type serverMetrics struct {
	reg   *metrics.Registry
	start time.Time

	queries      *metrics.Counter   // single queries accepted (MsgQuery)
	batchMembers *metrics.Counter   // client-batched queries (MsgBatchQuery members)
	uploads      *metrics.Counter   // databases uploaded
	errorsTotal  *metrics.Counter   // requests answered with MsgError
	rejected     *metrics.Counter   // admission-control rejections (MsgOverloaded)
	failed       *metrics.Counter   // coalesced queries that returned an error
	batches      *metrics.Counter   // coalesced batches executed
	coalesced    *metrics.Counter   // queries that shared a batch with ≥1 other
	fallbacks    *metrics.Counter   // batches degraded to per-member retries
	chunkStreams *metrics.Counter   // arena chunk streams actually performed
	streamsSaved *metrics.Counter   // arena chunk streams avoided by coalescing
	decodesSaved *metrics.Counter   // query decodes avoided by payload dedup
	panics       *metrics.Counter   // handler/batch panics recovered
	truncated    *metrics.Counter   // connections torn mid-message
	occupancy    *metrics.Histogram // queries per coalesced batch
	queueWait    *metrics.Histogram // ns from admission to batch execution

	// Per-tenant serving telemetry (label key "db"; values bounded by the
	// store's MaxStoredDBs cap plus the shared "_other" child) and the
	// errors-by-type split (label key "type"; fixed catalog). Together
	// with tenant_latency_ns bound by the trace recorder these are the
	// per-tenant RED metrics: rate, errors, duration.
	tenantQueries   *metrics.CounterVec   // tenant_queries_total{db}
	tenantErrors    *metrics.CounterVec   // tenant_errors_total{db}
	tenantRejected  *metrics.CounterVec   // tenant_rejected_total{db}
	tenantOccupancy *metrics.HistogramVec // tenant_batch_occupancy{db}
	tenantDepth     *metrics.GaugeVec     // tenant_queue_depth{db}
	errorsByType    *metrics.CounterVec   // errors_by_type_total{type}
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	// Go runtime health gauges ride in the same registry, so every
	// MsgStats reply and /metrics scrape shows goroutines/heap/GC next
	// to the serving counters.
	metrics.RegisterRuntime(reg)
	return &serverMetrics{
		reg:          reg,
		start:        time.Now(),
		queries:      reg.Counter("queries_total"),
		batchMembers: reg.Counter("batch_queries_total"),
		uploads:      reg.Counter("uploads_total"),
		errorsTotal:  reg.Counter("errors_total"),
		rejected:     reg.Counter("queries_rejected_total"),
		failed:       reg.Counter("queries_failed_total"),
		batches:      reg.Counter("batches_total"),
		coalesced:    reg.Counter("coalesced_queries_total"),
		fallbacks:    reg.Counter("batch_fallbacks_total"),
		chunkStreams: reg.Counter("chunk_streams_total"),
		streamsSaved: reg.Counter("chunk_streams_saved_total"),
		decodesSaved: reg.Counter("query_decodes_saved_total"),
		panics:       reg.Counter("panics_recovered_total"),
		truncated:    reg.Counter("conns_truncated_total"),
		occupancy:    reg.Histogram("batch_occupancy"),
		queueWait:    reg.Histogram("queue_wait_ns"),

		tenantQueries:   reg.CounterVec("tenant_queries_total", "db"),
		tenantErrors:    reg.CounterVec("tenant_errors_total", "db"),
		tenantRejected:  reg.CounterVec("tenant_rejected_total", "db"),
		tenantOccupancy: reg.HistogramVec("tenant_batch_occupancy", "db"),
		tenantDepth:     reg.GaugeVec("tenant_queue_depth", "db"),
		errorsByType:    reg.CounterVec("errors_by_type_total", "type"),
	}
}

// snapshot returns the flattened metrics, stamping uptime so clients
// can derive rates (QPS = queries_total / uptime) from one reply.
func (m *serverMetrics) snapshot() []metrics.KV {
	m.reg.Gauge("uptime_ns").Set(int64(time.Since(m.start)))
	return m.reg.Snapshot()
}
