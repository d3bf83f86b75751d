package proto

import (
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/engine"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/segment"
)

// ErrCorruptDB marks a database the store quarantined after a plane
// checksum failed — at reload or under the background scrub. It wraps
// ErrServerFault, so the wire layer answers MsgServerError: corruption
// is a server-side fault, never silently-wrong match results.
var ErrCorruptDB = fmt.Errorf("%w: database quarantined after storage corruption", ErrServerFault)

// Store is the server's multi-tenant database registry: named encrypted
// databases, each with its own execution engine and its own RWMutex, so
// searches on different databases — and concurrent searches on the same
// database — proceed in parallel. The store-level lock only guards the
// name table; it is never held across a search.
//
// With a data directory configured, the store is durable: every upload
// is written through to an on-disk segment before it is acknowledged,
// a restart re-registers every segment from the recovery scan (tenants
// reload lazily, with their persisted engine spec, on first search),
// and an optional memory budget evicts the least-recently-searched
// resident databases — a cold tenant costs only its segment file until
// someone searches it again, at which point the arena comes back as a
// zero-copy mmap of the segment (the flash-resident deployment the
// paper argues for, in software).
type Store struct {
	params      bfv.Params
	defaultSpec core.EngineSpec

	dir      *segment.Dir      // nil = memory-only store
	budget   int64             // resident-arena byte budget; 0 = unlimited
	resident atomic.Int64      // bytes of arena currently resident
	clock    atomic.Int64      // LRU tick, bumped per search
	damaged  []segment.Damaged // what the boot's recovery scan will not serve

	// uploadMu serialises Upload's persist+register critical section:
	// the segment written to disk and the entry installed in the
	// registry must be the same database even when two clients race on
	// one name. Searches never touch it.
	uploadMu sync.Mutex

	mu  sync.RWMutex
	dbs map[string]*hostedDB

	met       *storeMetrics
	scrubStop chan struct{}
	scrubDone chan struct{}
	closeOnce sync.Once
}

// storeMetrics is the store's durability-and-robustness counter set,
// registered next to the serving metrics so /metrics shows storage
// faults beside how the serving stack absorbed them. Tenant-attributable
// events additionally bump a per-database labeled family (tenant_*), so
// a quarantined or thrashing tenant is identifiable from /metrics alone;
// the flat store_* totals keep their names for existing dashboards and
// the chaos CI grep.
type storeMetrics struct {
	scrubRuns        *metrics.Counter   // background/explicit scrub passes
	scrubCorruptions *metrics.Counter   // resident arenas failing their recorded CRCs
	quarantines      *metrics.Counter   // databases taken out of service as corrupt
	uploadsFailed    *metrics.Counter   // uploads refused because the durable write failed
	reloads          *metrics.Counter   // cold databases reloaded from their segment
	reloadNs         *metrics.Histogram // wall time of each successful reload: verify, adopt, engine build
	reloadBytes      *metrics.Counter   // arena bytes checksum-verified by successful reloads
	reloadFailures   *metrics.Counter   // reload attempts that failed (DB stays cold)
	evictions        *metrics.Counter   // residents evicted by the memory budget

	tenantScrubCorruptions *metrics.CounterVec // tenant_scrub_corruptions_total{db}
	tenantQuarantines      *metrics.CounterVec // tenant_quarantines_total{db}
	tenantReloads          *metrics.CounterVec // tenant_reloads_total{db}
	tenantReloadFailures   *metrics.CounterVec // tenant_reload_failures_total{db}
	tenantEvictions        *metrics.CounterVec // tenant_evictions_total{db}
}

func newStoreMetrics(reg *metrics.Registry) *storeMetrics {
	// Every search this store serves runs on one ring kernel dispatch
	// path; exporting it as a one-hot labeled gauge
	// (kernel_path{path="avx2"} 1) makes cross-host perf deltas
	// attributable from /metrics alone.
	reg.GaugeVec("kernel_path", "path").With(ring.ActiveKernel().String()).Set(1)
	return &storeMetrics{
		scrubRuns:        reg.Counter("store_scrub_runs_total"),
		scrubCorruptions: reg.Counter("store_scrub_corruptions_total"),
		quarantines:      reg.Counter("store_quarantines_total"),
		uploadsFailed:    reg.Counter("store_uploads_failed_total"),
		reloads:          reg.Counter("store_reloads_total"),
		reloadNs:         reg.Histogram("store_reload_ns"),
		reloadBytes:      reg.Counter("store_reload_bytes_total"),
		reloadFailures:   reg.Counter("store_reload_failures_total"),
		evictions:        reg.Counter("store_evictions_total"),

		tenantScrubCorruptions: reg.CounterVec("tenant_scrub_corruptions_total", "db"),
		tenantQuarantines:      reg.CounterVec("tenant_quarantines_total", "db"),
		tenantReloads:          reg.CounterVec("tenant_reloads_total", "db"),
		tenantReloadFailures:   reg.CounterVec("tenant_reload_failures_total", "db"),
		tenantEvictions:        reg.CounterVec("tenant_evictions_total", "db"),
	}
}

// reloadFailed records a failed reload attempt for a tenant.
func (m *storeMetrics) reloadFailed(name string) {
	m.reloadFailures.Inc()
	m.tenantReloadFailures.With(name).Inc()
}

// StoreOptions configures durability.
type StoreOptions struct {
	// DataDir is the segment directory. Empty means a memory-only
	// store: nothing persists and nothing can be evicted.
	DataDir string
	// MemBudget caps the total bytes of resident ciphertext arenas;
	// exceeding it evicts least-recently-searched databases down to the
	// budget (the database being searched is never evicted, so one
	// over-budget tenant still works). 0 means unlimited. Requires
	// DataDir: an evicted tenant reloads from its segment.
	MemBudget int64
	// FS is the filesystem the durable store runs on. Nil means the real
	// one (segment.OSFS); tests thread a fault-injecting shim through
	// here to exercise crash, disk-full and corruption handling.
	FS segment.FS
	// ScrubInterval enables the background scrub: every interval, each
	// resident arena is re-hashed against the plane CRCs recorded at
	// upload or reload, and corrupt databases are quarantined. 0
	// disables the tick; ScrubOnce can still be called explicitly.
	ScrubInterval time.Duration
	// Metrics receives the store_* counters. Nil means a private
	// registry (counters still recorded, just not exported anywhere).
	Metrics *metrics.Registry
}

// hostedDB is one tenant database. Searches hold mu.RLock; load,
// eviction and removal take mu.Lock, so an engine is only torn down or
// swapped in quiescent. The metadata fields (spec, chunks, bitLen) are
// immutable after registration and valid even while the database is
// cold — List must never need the arena.
type hostedDB struct {
	name   string
	spec   core.EngineSpec
	chunks int
	bitLen int

	searches atomic.Int64
	lastUsed atomic.Int64 // store clock at last search; LRU key
	loaded   atomic.Bool  // mirrors engine != nil, for lock-free victim scans

	mu      sync.RWMutex
	db      *core.EncryptedDB
	engine  core.Engine
	seg     *segment.Segment // non-nil while mmap/segment-backed
	dropped bool

	// planeCRC fingerprints the resident arena — recorded at upload or
	// from the segment footer at reload, re-verified by the scrub.
	planeCRC   [2]uint64
	corrupt    bool  // quarantined: serve a typed error, never the arena
	corruptErr error // what the checksum pass found
}

// NewStoreWithOptions creates a store, optionally durable. With a data
// directory it runs the recovery scan: every valid segment file
// re-registers its database (cold — the arena loads on first search)
// under the engine spec persisted in the segment header. Damaged
// segments, and those written under different BFV parameters, are not
// served; Damaged lists them.
func NewStoreWithOptions(params bfv.Params, defaultSpec core.EngineSpec, opts StoreOptions) (*Store, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	st := &Store{params: params, defaultSpec: defaultSpec, budget: opts.MemBudget, dbs: make(map[string]*hostedDB), met: newStoreMetrics(reg)}
	if opts.MemBudget < 0 {
		return nil, fmt.Errorf("proto: negative memory budget %d", opts.MemBudget)
	}
	if opts.ScrubInterval < 0 {
		return nil, fmt.Errorf("proto: negative scrub interval %v", opts.ScrubInterval)
	}
	if opts.ScrubInterval > 0 {
		st.scrubStop = make(chan struct{})
		st.scrubDone = make(chan struct{})
		go st.scrubLoop(opts.ScrubInterval)
	}
	if opts.DataDir == "" {
		if opts.MemBudget > 0 {
			return nil, fmt.Errorf("proto: a memory budget requires a data directory to evict to")
		}
		return st, nil
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = segment.OSFS{}
	}
	dir, err := segment.OpenDirFS(fsys, opts.DataDir)
	if err != nil {
		st.stopScrub()
		return nil, fmt.Errorf("proto: opening data directory: %w", err)
	}
	// One damaged or foreign segment must not take every healthy
	// tenant offline: it stays on disk, unserved, until a drop or an
	// upload of its name replaces it.
	metas, damaged, err := dir.Recover(params.N, params.Q)
	if err != nil {
		st.stopScrub()
		return nil, fmt.Errorf("proto: scanning data directory: %w", err)
	}
	st.dir, st.damaged = dir, damaged
	for _, m := range metas {
		st.dbs[m.Name] = &hostedDB{name: m.Name, spec: m.Spec, chunks: m.Chunks, bitLen: m.BitLen}
	}
	return st, nil
}

// Dir exposes the segment directory (nil for memory-only stores).
func (st *Store) Dir() *segment.Dir { return st.dir }

// Damaged lists the segment files the boot's recovery scan found
// unservable: failing validation, written under other BFV parameters,
// or not at their name's file. It is what the boot saw; a later drop or
// upload of the name deletes or replaces the file.
func (st *Store) Damaged() []segment.Damaged {
	return append([]segment.Damaged(nil), st.damaged...)
}

// arenaBytes is the resident cost of one database's ciphertext arena.
func (st *Store) arenaBytes(chunks int) int64 {
	return int64(core.ArenaWords(st.params.N, chunks)) * 8
}

// Upload installs (or replaces) the named database, building its engine
// from spec; an empty spec kind selects the store default. On a durable
// store the segment is written through — and fsynced — before the
// upload is acknowledged, so an acked database survives a crash; it
// renames over whatever file the name holds, so a re-upload heals a
// quarantined or damaged segment in place. Replacement waits for
// in-flight searches on the old engine before closing it. The database
// must sit on an arena (core.NewCompactDB, as every producer builds
// it): that is what the kernels stream, the scrub fingerprints and the
// segment writer copies.
func (st *Store) Upload(name string, spec core.EngineSpec, edb *core.EncryptedDB) error {
	if edb.Arena() == nil {
		return fmt.Errorf("proto: database %q has no arena", name)
	}
	if name == "" {
		return fmt.Errorf("proto: database name must not be empty")
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("proto: database name exceeds %d bytes", MaxNameLen)
	}
	// Bound wire-supplied resources: the CLI path validates specs via
	// engine.Parse, but a remote peer writes the spec fields directly and
	// must not be able to request unbounded goroutines. The bound counts
	// the GOMAXPROCS default for unspecified workers.
	workers := spec.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spec.Workers < 0 || workers > MaxUploadWorkers {
		return fmt.Errorf("proto: %d workers out of range [1, %d]", workers, MaxUploadWorkers)
	}
	if spec.Kind == "" {
		workers := spec.Workers
		spec = st.defaultSpec
		if workers > 0 {
			spec.Workers = workers
		}
	}
	eng, err := engine.Build(st.params, edb, spec)
	if err != nil {
		return fmt.Errorf("proto: building %q engine for %q: %w", spec, name, err)
	}
	entry := &hostedDB{
		name:   name,
		spec:   spec,
		chunks: len(edb.Chunks),
		bitLen: edb.BitLen,
		db:     edb,
		engine: eng,
	}
	// Fingerprint the arena while it is known-good: the scrub compares
	// against exactly these sums. A durable store takes them from the
	// segment write below, which seals the same sums into the footer
	// that every reload verifies; hashing the arena once serves both.
	if st.dir == nil {
		entry.planeCRC = segment.ArenaPlaneCRCs(edb.Arena())
	}

	// Serialised persist+register: with concurrent uploads of one name,
	// the segment on disk and the entry in the registry must be the
	// same database, and the capacity check must run *before* the
	// (potentially huge, fsynced) segment write — a refused upload must
	// not leave a segment a crash could resurrect.
	st.uploadMu.Lock()
	defer st.uploadMu.Unlock()
	st.mu.RLock()
	_, replacing := st.dbs[name]
	full := !replacing && len(st.dbs) >= MaxStoredDBs
	n := len(st.dbs)
	st.mu.RUnlock()
	if full {
		_ = eng.Close()
		return fmt.Errorf("proto: store holds %d databases (limit %d); drop one first", n, MaxStoredDBs)
	}
	if st.dir != nil {
		meta := segment.Meta{
			Name:        name,
			RingDegree:  st.params.N,
			Modulus:     st.params.Q,
			Chunks:      len(edb.Chunks),
			BitLen:      edb.BitLen,
			NumSegments: edb.NumSegments,
			Spec:        spec,
		}
		planeCRC, err := st.dir.SaveSealed(meta, edb)
		if err != nil {
			// Graceful degradation: the upload is refused cleanly — the
			// new engine is torn down, the registry and the old segment
			// (if any) are untouched, so resident state and disk never
			// skew and existing tenants keep serving. On a full disk the
			// store effectively degrades to read-only.
			st.met.uploadsFailed.Inc()
			_ = eng.Close()
			return fmt.Errorf("proto: persisting %q: %w", name, err)
		}
		entry.planeCRC = planeCRC
	}
	// Resident accounting pairs with unloadLocked's decrement: add the
	// arena bytes exactly when loaded flips true.
	entry.loaded.Store(true)
	entry.lastUsed.Store(st.clock.Add(1))
	st.resident.Add(st.arenaBytes(entry.chunks))
	st.mu.Lock()
	old := st.dbs[name]
	st.dbs[name] = entry
	st.mu.Unlock()
	if old != nil {
		st.retire(old)
	}
	st.enforceBudget(entry)
	return nil
}

// retire waits for in-flight searches, closes the engine, and releases
// the arena (unmapping it when segment-backed). The entry is dead
// afterwards.
func (st *Store) retire(d *hostedDB) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dropped = true
	st.unloadLocked(d)
}

// unloadLocked drops the resident state — engine, database view,
// mapping — and the accounting for it. Caller holds d.mu.
func (st *Store) unloadLocked(d *hostedDB) {
	if d.engine != nil {
		_ = d.engine.Close()
		d.engine = nil
	}
	d.db = nil
	if d.seg != nil {
		_ = d.seg.Close()
		d.seg = nil
	}
	if d.loaded.Swap(false) {
		st.resident.Add(-st.arenaBytes(d.chunks))
	}
}

// ensureLoaded reloads a cold database from its segment: checksum-
// verified open (zero-copy mmap where the platform allows), arena
// adoption into the chunk-view layout, and an engine rebuilt from the
// persisted spec.
func (st *Store) ensureLoaded(d *hostedDB) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dropped {
		return fmt.Errorf("proto: database %q was dropped", d.name)
	}
	if d.corrupt {
		return fmt.Errorf("proto: database %q: %w (%v)", d.name, ErrCorruptDB, d.corruptErr)
	}
	if d.engine != nil {
		return nil // raced with another reloader: already resident
	}
	if st.dir == nil {
		return fmt.Errorf("proto: database %q has no engine and no segment to reload from", d.name)
	}
	start := time.Now()
	seg, err := st.dir.Load(d.name, st.params.N, st.params.Q)
	if err != nil {
		st.met.reloadFailed(d.name)
		if isCorruptionErr(err) {
			// The segment itself is damaged: retrying cannot help, so
			// quarantine the tenant and surface the typed fault.
			// Transient errors fall through below and leave the database
			// cold but retryable.
			st.quarantineLocked(d, err)
			return fmt.Errorf("proto: reloading %q: %w (%v)", d.name, ErrCorruptDB, err)
		}
		return fmt.Errorf("proto: reloading %q: %w", d.name, err)
	}
	edb, err := seg.DB()
	if err != nil {
		_ = seg.Close()
		st.met.reloadFailed(d.name)
		return fmt.Errorf("proto: adopting %q arena: %w", d.name, err)
	}
	eng, err := engine.Build(st.params, edb, d.spec)
	if err != nil {
		_ = seg.Close()
		st.met.reloadFailed(d.name)
		return fmt.Errorf("proto: rebuilding %q engine for %q: %w", d.spec, d.name, err)
	}
	d.db, d.engine, d.seg = edb, eng, seg
	// The loader just verified the footer CRCs over these exact bytes;
	// adopt them as the fingerprint the scrub re-checks.
	d.planeCRC = seg.PlaneCRCs()
	d.loaded.Store(true)
	st.met.reloads.Inc()
	st.met.reloadNs.Observe(time.Since(start).Nanoseconds())
	st.met.reloadBytes.Add(st.arenaBytes(d.chunks))
	st.met.tenantReloads.With(d.name).Inc()
	st.resident.Add(st.arenaBytes(d.chunks))
	return nil
}

// isCorruptionErr reports whether a reload failure means the segment
// bytes are bad (checksum, truncation, framing, a malformed header or
// footer) rather than a transient I/O condition worth retrying.
func isCorruptionErr(err error) bool {
	return errors.Is(err, segment.ErrChecksum) || errors.Is(err, segment.ErrTruncated) ||
		errors.Is(err, segment.ErrBadMagic) || errors.Is(err, segment.ErrBadVersion) ||
		errors.Is(err, segment.ErrCorrupt)
}

// ScrubOnce re-hashes every resident arena against the plane CRCs
// recorded when it entered memory and quarantines any database whose
// bytes have rotted — the typed-error-instead-of-wrong-answers
// guarantee for in-memory corruption (mapped page cache or heap). It
// returns how many residents were checked and how many failed. Cold
// databases are verified by the segment loader when they come back.
func (st *Store) ScrubOnce() (checked, corrupted int) {
	st.met.scrubRuns.Inc()
	st.mu.RLock()
	dbs := make([]*hostedDB, 0, len(st.dbs))
	for _, d := range st.dbs {
		dbs = append(dbs, d)
	}
	st.mu.RUnlock()
	for _, d := range dbs {
		d.mu.RLock()
		ok := !d.dropped && !d.corrupt && d.db != nil
		var got [2]uint64
		if ok {
			// Hashing under RLock: searches proceed, only load/evict wait.
			got = segment.ArenaPlaneCRCs(d.db.Arena())
		}
		want := d.planeCRC
		d.mu.RUnlock()
		if !ok {
			continue
		}
		checked++
		if got == want {
			continue
		}
		corrupted++
		st.met.scrubCorruptions.Inc()
		st.met.tenantScrubCorruptions.With(d.name).Inc()
		st.quarantine(d, fmt.Errorf("scrub: plane CRCs %016x/%016x, recorded %016x/%016x",
			got[0], got[1], want[0], want[1]))
	}
	return checked, corrupted
}

// quarantine takes a corrupt database out of service: resident state is
// released and the entry answers ErrCorruptDB until a drop or an upload
// replaces it. It writes nothing: the segment file stays where it is,
// and a restart registers it again, cold, so its first reload
// re-verifies the planes — rotten ones quarantine it again, intact ones
// (the scrub found rot only in memory) serve.
func (st *Store) quarantine(d *hostedDB, cause error) {
	d.mu.Lock()
	st.quarantineLocked(d, cause)
	d.mu.Unlock()
}

// quarantineLocked is quarantine with d.mu already held.
func (st *Store) quarantineLocked(d *hostedDB, cause error) {
	if d.dropped || d.corrupt {
		return
	}
	d.corrupt = true
	d.corruptErr = cause
	st.unloadLocked(d)
	st.met.quarantines.Inc()
	st.met.tenantQuarantines.With(d.name).Inc()
}

// scrubLoop is the background scrub tick.
func (st *Store) scrubLoop(interval time.Duration) {
	defer close(st.scrubDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-st.scrubStop:
			return
		case <-t.C:
			st.ScrubOnce()
		}
	}
}

// stopScrub halts the background scrub, idempotently.
func (st *Store) stopScrub() {
	st.closeOnce.Do(func() {
		if st.scrubStop != nil {
			close(st.scrubStop)
			<-st.scrubDone
		}
	})
}

// enforceBudget evicts least-recently-searched resident databases until
// the resident arena total fits the budget. keep is never evicted (the
// database just used or loaded). Best-effort: concurrent reloads can
// transiently overshoot.
func (st *Store) enforceBudget(keep *hostedDB) {
	if st.budget <= 0 {
		return
	}
	for st.resident.Load() > st.budget {
		v := st.pickVictim(keep)
		if v == nil {
			return // nothing evictable (keep alone over budget)
		}
		v.mu.Lock()
		// Recheck under the lock: the scan ran lock-free.
		if !v.dropped && v.engine != nil {
			st.unloadLocked(v)
			st.met.evictions.Inc()
			st.met.tenantEvictions.With(v.name).Inc()
		}
		v.mu.Unlock()
	}
}

// pickVictim returns the least-recently-searched resident database
// other than keep, or nil.
func (st *Store) pickVictim(keep *hostedDB) *hostedDB {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var victim *hostedDB
	var oldest int64
	for _, d := range st.dbs {
		if d == keep || !d.loaded.Load() {
			continue
		}
		if used := d.lastUsed.Load(); victim == nil || used < oldest {
			victim, oldest = d, used
		}
	}
	return victim
}

func (st *Store) lookup(name string) (*hostedDB, error) {
	st.mu.RLock()
	d := st.dbs[name]
	st.mu.RUnlock()
	if d == nil {
		return nil, fmt.Errorf("proto: no database named %q", name)
	}
	return d, nil
}

// withEngine runs fn under the database's read lock with a live
// engine, transparently reloading an evicted database from its segment
// first. Any number of searches share a database (and the whole store)
// at once.
func (st *Store) withEngine(name string, fn func(d *hostedDB, eng core.Engine) error) error {
	d, err := st.lookup(name)
	if err != nil {
		return err
	}
	for {
		d.mu.RLock()
		if d.dropped {
			d.mu.RUnlock()
			return fmt.Errorf("proto: database %q was dropped", name)
		}
		if d.corrupt {
			cause := d.corruptErr
			d.mu.RUnlock()
			return fmt.Errorf("proto: database %q: %w (%v)", name, ErrCorruptDB, cause)
		}
		if eng := d.engine; eng != nil {
			d.lastUsed.Store(st.clock.Add(1))
			// Deferred unlock: fn runs tenant engine code, and a panic
			// there is recovered further up (the handler's and the batch
			// executor's panic isolation) — the read lock must not leak
			// past that recovery or the database wedges.
			return func() error {
				defer d.mu.RUnlock()
				return fn(d, eng)
			}()
		}
		d.mu.RUnlock()
		if err := st.ensureLoaded(d); err != nil {
			return err
		}
		st.enforceBudget(d)
	}
}

// Search runs one query against the named database under its read
// lock, reloading it from disk first if it was evicted.
//
//cm:pooled
func (st *Store) Search(name string, q *core.Query) (*core.IndexResult, error) {
	var ir *core.IndexResult
	err := st.withEngine(name, func(d *hostedDB, eng core.Engine) error {
		d.searches.Add(1)
		var err error
		ir, err = eng.SearchAndIndex(q)
		return err
	})
	return ir, err
}

// SearchBatch runs a batch of queries against the named database under
// its read lock, through the engine's batch entry point. Each member
// counts as one search in the listing stats.
//
//cm:pooled
func (st *Store) SearchBatch(name string, bq *core.BatchQuery) ([]*core.IndexResult, error) {
	var irs []*core.IndexResult
	err := st.withEngine(name, func(d *hostedDB, eng core.Engine) error {
		d.searches.Add(int64(len(bq.Queries)))
		var err error
		irs, err = eng.SearchAndIndexBatch(bq)
		return err
	})
	return irs, err
}

// Drop removes the named database: it tears the engine down if the
// name is registered, then deletes the name's segment file if there is
// one — so a quarantined tenant, and a segment the boot found damaged
// or foreign, are dropped by name too. It fails with "no database
// named" only when neither existed. It serialises with Upload so a drop
// racing a replacement cannot delete the segment the replacement just
// wrote.
func (st *Store) Drop(name string) error {
	st.uploadMu.Lock()
	defer st.uploadMu.Unlock()
	st.mu.Lock()
	d := st.dbs[name]
	delete(st.dbs, name)
	st.mu.Unlock()
	if d != nil {
		st.retire(d)
	}
	removed := false
	if st.dir != nil {
		err := st.dir.Remove(name)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("proto: dropping %q segment: %w", name, err)
		}
		removed = err == nil
	}
	if d == nil && !removed {
		return fmt.Errorf("proto: no database named %q", name)
	}
	return nil
}

// Has reports whether the store hosts a database under the name —
// resident, cold, or quarantined. The telemetry layer uses it as its
// label-cardinality guard: only hosted names (bounded by MaxStoredDBs)
// may become metric label values.
func (st *Store) Has(name string) bool {
	st.mu.RLock()
	_, ok := st.dbs[name]
	st.mu.RUnlock()
	return ok
}

// List describes every hosted database, sorted by name. It reads only
// registration metadata (persisted in the segment header), never the
// arena, so cold databases list correctly without touching disk.
func (st *Store) List() []DBInfo {
	st.mu.RLock()
	entries := make([]*hostedDB, 0, len(st.dbs))
	for _, d := range st.dbs {
		entries = append(entries, d)
	}
	st.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	infos := make([]DBInfo, 0, len(entries))
	for _, d := range entries {
		d.mu.RLock()
		state := StateCold
		desc := d.spec.String()
		switch {
		case d.dropped:
			state = StateRetired
		case d.corrupt:
			state = StateQuarantined
		case d.engine != nil:
			state = StateResident
			desc = d.engine.Describe()
		}
		infos = append(infos, DBInfo{
			Name:     d.name,
			Engine:   desc,
			State:    state,
			Chunks:   d.chunks,
			BitLen:   d.bitLen,
			Searches: int(d.searches.Load()),
		})
		d.mu.RUnlock()
	}
	return infos
}

// ResidentBytes reports the bytes of ciphertext arena currently
// resident (heap or mapped), the quantity the memory budget bounds.
func (st *Store) ResidentBytes() int64 { return st.resident.Load() }

// Close retires every database (server shutdown): engines drain,
// mappings unmap. Segments are already durable — the store reopens
// from the same directory.
func (st *Store) Close() error {
	st.stopScrub()
	st.mu.Lock()
	dbs := st.dbs
	st.dbs = make(map[string]*hostedDB)
	st.mu.Unlock()
	for _, d := range dbs {
		st.retire(d)
	}
	return nil
}
