package proto

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/fault"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/segment"
)

// TestStoreModel is the durable store's one model-based test. For each
// seed a generator draws a sequence of operations (uploads, faulted
// uploads, drops, searches, scrubs, in-memory and on-disk corruption, a
// hidden segment, crashes at every segment crash point, restarts) and
// applies each to a real durable Store on a temp data directory and to
// storeModel, a plain-Go model of what the store must then hold. After
// every operation the store's searches, listing, resident bytes,
// counters and data directory must match the model, and every served
// candidate list must equal the client-decrypt ground truth of the
// version the model says is served.
//
// A failing seed reruns its own prefixes and prints the shortest
// failing one; `-run 'TestStoreModel/seed=K'` replays seed K.
func TestStoreModel(t *testing.T) {
	fx := newModelFixture(t)
	for seed := 0; seed < modelSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			budget, ops := genModelOps(seed)
			fails := func(n int) (int, error) { return runModel(t, fx, budget, ops[:n]) }
			at, err := fails(len(ops))
			if err == nil {
				return
			}
			// A prefix fails exactly when it reaches the failing op, so
			// bisect on the prefix length to confirm the shortest one.
			lo, hi := 1, at+1
			for lo < hi {
				if mid := (lo + hi) / 2; func() bool { _, e := fails(mid); return e != nil }() {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			var b strings.Builder
			for i, op := range ops[:hi] {
				fmt.Fprintf(&b, "\n  %2d  %s", i, op)
			}
			t.Fatalf("seed=%d, budget %s: op %d fails: %v\nshortest failing prefix (%d ops; replay with -run 'TestStoreModel/seed=%d'):%s",
				seed, modelBudgets[budget].label, at, err, hi, seed, b.String())
		})
	}
	t.Run("coverage", func(t *testing.T) {
		seen := map[string]bool{}
		for seed := 0; seed < modelSeeds; seed++ {
			budget, ops := genModelOps(seed)
			seen["budget "+modelBudgets[budget].label] = true
			m := newStoreModel(modelBudgets[budget].halves / 2)
			for _, op := range ops {
				for _, k := range op.coverage(m) {
					seen[k] = true
				}
				m.apply(op)
			}
		}
		for _, k := range modelCoverage() {
			if !seen[k] {
				t.Errorf("the %d default seeds never exercise %s", modelSeeds, k)
			}
		}
	})
}

const (
	modelSeeds = 32 // the fixed seed set: seeds 0..modelSeeds-1
	modelSteps = 48 // operations per seed
)

var (
	modelNames = []string{"alpha", "beta", "gamma"} // none a multiple of 8 long: every name region has padding
	// modelBytes sizes each tenant's database: one chunk count (so one
	// arena size) but a bit length of its own, so a listing that mixed
	// up tenants' headers would show.
	modelBytes   = map[string]int{"alpha": 192, "beta": 184, "gamma": 176}
	modelSpecs   = []core.EngineSpec{{Kind: core.EngineSerial}, {Kind: core.EnginePool, Workers: 2}, {Kind: core.EngineSSD}}
	modelFaults  = []string{"writeerr", "shortwrite", "syncerr"}
	modelRegions = []string{"header", "name", "plane", "footer"}
	modelBoots   = []string{"clean", "mmapfail", "writefail"}
	// modelInjectors configures the fault injector of each fault class
	// and boot mode; "clean" injects nothing.
	modelInjectors = map[string]fault.Config{"writeerr": {WriteErrEvery: 1}, "shortwrite": {ShortWriteEvery: 1},
		"syncerr": {SyncErrEvery: 1}, "mmapfail": {MmapFail: true}, "writefail": {WriteErrEvery: 1}}
	// modelBudgets are the memory budgets in halves of one arena; 0 is
	// unlimited.
	modelBudgets = []struct {
		halves int
		label  string
	}{{0, "unlimited"}, {2, "1 arena"}, {3, "1.5 arenas"}, {4, "2 arenas"}}
)

type opKind int

const (
	opUpload      opKind = iota
	opFaultUpload        // upload under one armed fault class
	opDrop
	opDoubleDrop
	opSearch
	opBatch // [q, other, dup]
	opScrub
	opFlipArena // flip a word of a resident arena the test uploaded
	opFlipDisk  // flip a byte of a cold tenant's segment file
	opHide      // hide a cold tenant's segment, search it, restore it, search again
	opCrash     // upload that crashes at a crash point, restart, search the name
	opRestart
	numOpKinds
)

var opNames = [numOpKinds]string{"upload", "fault-upload", "drop", "double-drop", "search", "batch",
	"scrub", "flip-arena", "flip-disk", "hide", "crash", "restart"}

// opWeights biases the generator towards uploads and searches, so the
// store holds tenants for the other operations to act on.
var opWeights = [numOpKinds]int{5, 1, 1, 1, 4, 2, 1, 1, 2, 1, 1, 1}

// modelOp is one generated operation. Every op draws a name, version,
// spec and offset; each kind reads only the fields it needs.
type modelOp struct {
	kind    opKind
	name    string
	version int
	spec    core.EngineSpec // engine of an upload
	fault   string          // fault class of opFaultUpload
	region  string          // segment region of opFlipDisk
	off     int             // word (opFlipArena) or byte within region (opFlipDisk), reduced modulo its length
	point   string          // crash point of opCrash
	fresh   bool            // opCrash: no live version under the name
	boot    string          // opRestart: how the store reboots
}

func (o modelOp) String() string {
	switch o.kind {
	case opUpload:
		return fmt.Sprintf("upload %s v%d %s", o.name, o.version, o.spec)
	case opFaultUpload:
		return fmt.Sprintf("upload %s v%d %s under %s", o.name, o.version, o.spec, o.fault)
	case opFlipArena:
		return fmt.Sprintf("flip word %d of %s's uploaded arena", o.off, o.name)
	case opFlipDisk:
		return fmt.Sprintf("flip %s byte %d of %s's segment", o.region, o.off, o.name)
	case opCrash:
		kind := "replace"
		if o.fresh {
			kind = "fresh"
		}
		return fmt.Sprintf("crash %s upload %s v%d %s at %s, restart, search", kind, o.name, o.version, o.spec, o.point)
	case opRestart:
		return "restart " + o.boot
	case opScrub:
		return "scrub"
	}
	return opNames[o.kind] + " " + o.name
}

// coverage names what the op exercises when applied to m, for the
// coverage check.
func (o modelOp) coverage(m *storeModel) []string {
	keys := []string{"op " + opNames[o.kind]}
	e := m.reg[o.name]
	switch o.kind {
	case opUpload:
		keys = append(keys, "engine "+o.spec.String())
		if e != nil && e.quarantined {
			keys = append(keys, "upload over a quarantined tenant")
		}
	case opFaultUpload:
		keys = append(keys, "engine "+o.spec.String(), "fault "+o.fault)
		if e != nil && !e.quarantined {
			keys = append(keys, "fault-upload over a live version")
		}
	case opDrop, opDoubleDrop:
		if e != nil && e.quarantined {
			keys = append(keys, "drop of a quarantined tenant")
		}
		if e == nil && m.disk[o.name] != nil {
			keys = append(keys, "drop of a segment damaged at boot")
		}
	case opFlipDisk:
		keys = append(keys, "region "+o.region)
	case opCrash:
		keys = append(keys, "engine "+o.spec.String(), fmt.Sprintf("crash %s fresh=%v", o.point, o.fresh))
	case opRestart:
		keys = append(keys, "boot "+o.boot)
	}
	if o.kind == opRestart || o.kind == opCrash {
		// The crashed upload may replace its own name's file, so only the
		// other names' quarantines count as surviving its restart.
		for _, e := range m.reg {
			switch {
			case !e.quarantined || o.kind == opCrash && e.name == o.name:
			case m.disk[e.name].rot == "":
				keys = append(keys, "restart after a scrub quarantine")
			default:
				keys = append(keys, "restart after a disk-rot quarantine")
			}
		}
	}
	return keys
}

// modelCoverage is everything the default seed set must exercise.
func modelCoverage() []string {
	keys := []string{"upload over a quarantined tenant", "fault-upload over a live version",
		"drop of a quarantined tenant", "drop of a segment damaged at boot",
		"restart after a scrub quarantine", "restart after a disk-rot quarantine"}
	for _, n := range opNames {
		keys = append(keys, "op "+n)
	}
	for _, p := range segment.CrashPoints() {
		keys = append(keys, fmt.Sprintf("crash %s fresh=true", p), fmt.Sprintf("crash %s fresh=false", p))
	}
	for _, s := range modelSpecs {
		keys = append(keys, "engine "+s.String())
	}
	for prefix, group := range map[string][]string{"fault ": modelFaults, "region ": modelRegions, "boot ": modelBoots} {
		for _, v := range group {
			keys = append(keys, prefix+v)
		}
	}
	for _, b := range modelBudgets {
		keys = append(keys, "budget "+b.label)
	}
	return keys
}

// genModelOps draws seed's budget and operation sequence. It runs the
// model alongside, so every drawn op's precondition (a resident
// tenant to flip, a cold one to corrupt) holds at its place in the
// sequence, and so in every prefix.
func genModelOps(seed int) (budget int, ops []modelOp) {
	budget = seed % len(modelBudgets)
	src := rng.NewSourceFromString(fmt.Sprintf("store-model/%d", seed))
	m := newStoreModel(modelBudgets[budget].halves / 2)
	var deck []opKind // each kind as often as its weight
	for k, w := range opWeights {
		for range w {
			deck = append(deck, opKind(k))
		}
	}
	pick := func(list []string) string { return list[src.Intn(len(list))] }
	flips, crashes := seed, seed
	for len(ops) < modelSteps {
		k := deck[src.Intn(len(deck))]
		op := modelOp{kind: k, name: pick(modelNames), version: src.Intn(2), spec: modelSpecs[src.Intn(len(modelSpecs))], off: src.Intn(1 << 16)}
		// Three drops or searches in four act on a registered tenant.
		if reg := m.names(func(*modelEntry) bool { return true }); k >= opDrop && k <= opBatch && len(reg) > 0 && src.Intn(4) > 0 {
			op.name = pick(reg)
		}
		switch k {
		case opFaultUpload:
			op.fault = pick(modelFaults)
		case opFlipArena:
			names := m.names(func(e *modelEntry) bool { return e.resident && e.fromUpload && !e.arenaRot })
			if len(names) == 0 {
				continue
			}
			op.name = pick(names)
		case opFlipDisk, opHide:
			names := m.names(func(e *modelEntry) bool { return !e.quarantined && !e.resident && m.disk[e.name].rot == "" })
			if len(names) == 0 {
				continue
			}
			op.name = pick(names)
			if k == opFlipDisk {
				op.region = modelRegions[flips%len(modelRegions)]
				flips++
			}
		case opCrash:
			// Walk the crash point × {fresh, replace} grid; fall back to
			// the other kind when no name fits the drawn one.
			points := segment.CrashPoints()
			op.point = points[(crashes/2)%len(points)]
			op.fresh = crashes%2 == 0
			crashes++
			live := m.names(func(e *modelEntry) bool { return !e.quarantined })
			fresh := slices.DeleteFunc(slices.Clone(modelNames), func(n string) bool { return slices.Contains(live, n) })
			cands := map[bool][]string{true: fresh, false: live}
			if len(cands[op.fresh]) == 0 {
				op.fresh = !op.fresh
			}
			op.name = pick(cands[op.fresh])
		case opRestart:
			op.boot = pick(modelBoots)
		}
		m.apply(op)
		ops = append(ops, op)
	}
	return budget, ops
}

// modelFile is a *.seg file in the data directory.
type modelFile struct {
	version int
	spec    core.EngineSpec
	rot     string // region of a flipped byte; "" while intact
	bootBad bool   // the flip fails the recovery scan's header check
}

// modelEntry is a tenant the store has registered.
type modelEntry struct {
	name        string
	spec        core.EngineSpec
	quarantined bool
	resident    bool
	fromUpload  bool // the resident arena is the uploaded copy, not a segment load
	arenaRot    bool // that copy has a flipped word the scrub has not seen
	tick        int64
	searches    int
}

func (e *modelEntry) state() string {
	switch {
	case e.quarantined:
		return StateQuarantined
	case e.resident:
		return StateResident
	}
	return StateCold
}

// modelCounters mirror the store_* counters of one store instance.
type modelCounters struct {
	reloads, reloadFailures, evictions, quarantines, uploadsFailed int64
	scrubRuns, scrubCorruptions                                    int64
	mmapTries                                                      int64 // reload mmaps under a MmapFail boot
}

// storeModel is what a durable store and its data directory hold.
type storeModel struct {
	perBudget int                   // resident arenas the budget holds; 0 = unlimited
	disk      map[string]*modelFile // *.seg files by tenant name
	reg       map[string]*modelEntry
	tick      int64
	ctr       modelCounters
	mmapFail  bool
	wantErr   string // error class the last drop or search must return: "", "missing" or "corrupt"
	wantVer   int    // version the last search served; -1 when its arena is rotten (candidates unchecked)
	wantScrub [2]int // checked, corrupted of the last scrub
}

func newStoreModel(perBudget int) *storeModel {
	return &storeModel{perBudget: perBudget, disk: map[string]*modelFile{}, reg: map[string]*modelEntry{}}
}

// names lists, sorted, the registered tenants keep accepts.
func (m *storeModel) names(keep func(*modelEntry) bool) []string {
	var out []string
	for n, e := range m.reg {
		if keep(e) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func (m *storeModel) residents() int {
	return len(m.names(func(e *modelEntry) bool { return e.resident }))
}

// evict unloads least-recently-used residents other than keep until
// the budget holds.
func (m *storeModel) evict(keep string) {
	for m.perBudget > 0 && m.residents() > m.perBudget {
		var v *modelEntry
		for _, e := range m.reg {
			if e.resident && e.name != keep && (v == nil || e.tick < v.tick) {
				v = e
			}
		}
		if v == nil {
			return
		}
		v.resident, v.fromUpload, v.arenaRot = false, false, false
		m.ctr.evictions++
	}
}

// quarantine fences a tenant off; its segment file stays as it is.
func (m *storeModel) quarantine(e *modelEntry) {
	e.quarantined, e.resident, e.fromUpload, e.arenaRot = true, false, false, false
	m.ctr.quarantines++
}

// restart models a fresh store over the directory: every segment whose
// header validates registers cold (a quarantined tenant's too: its
// first reload re-verifies the planes), segments that fail validation
// stay on disk unregistered, counters restart.
func (m *storeModel) restart(boot string) {
	m.reg = map[string]*modelEntry{}
	for n, f := range m.disk {
		if !f.bootBad {
			m.reg[n] = &modelEntry{name: n, spec: f.spec}
		}
	}
	m.ctr = modelCounters{}
	m.mmapFail = boot == "mmapfail"
}

// apply advances the model by op and records what the store must
// answer to it.
func (m *storeModel) apply(op modelOp) {
	m.wantErr, m.wantVer = "", 0
	e := m.reg[op.name]
	switch op.kind {
	case opUpload:
		m.disk[op.name] = &modelFile{version: op.version, spec: op.spec}
		m.tick++
		m.reg[op.name] = &modelEntry{name: op.name, spec: op.spec, resident: true, fromUpload: true, tick: m.tick}
		m.evict(op.name)
	case opFaultUpload:
		m.ctr.uploadsFailed++
	case opDrop, opDoubleDrop:
		// A drop removes the tenant and every file its name owns: a
		// quarantined tenant's segment, or one the boot found damaged.
		if e == nil && m.disk[op.name] == nil {
			m.wantErr = "missing"
			return
		}
		delete(m.reg, op.name)
		delete(m.disk, op.name)
	case opSearch, opBatch:
		switch {
		case e == nil:
			m.wantErr = "missing"
			return
		case e.quarantined:
			m.wantErr = "corrupt"
			return
		case !e.resident:
			f := m.disk[op.name]
			if m.mmapFail && !f.bootBad {
				m.ctr.mmapTries++
			}
			if f.rot != "" {
				m.ctr.reloadFailures++
				m.quarantine(e)
				m.wantErr = "corrupt"
				return
			}
			m.ctr.reloads++
			e.resident = true
			m.evict(op.name)
		}
		m.tick++
		e.tick = m.tick
		e.searches++
		if op.kind == opBatch {
			e.searches += 2
		}
		m.wantVer = m.disk[op.name].version
		if e.arenaRot {
			m.wantVer = -1
		}
	case opScrub:
		m.wantScrub = [2]int{m.residents(), 0}
		m.ctr.scrubRuns++
		for _, n := range m.names(func(e *modelEntry) bool { return e.arenaRot }) {
			m.wantScrub[1]++
			m.ctr.scrubCorruptions++
			m.quarantine(m.reg[n])
		}
	case opFlipArena:
		e.arenaRot = true
	case opFlipDisk:
		// Header and name bytes, the footer's header sum and its end
		// magic are all checked by the recovery scan; the plane bytes
		// and the footer's plane sums only by a reload.
		m.disk[op.name].rot = op.region
		m.disk[op.name].bootBad = op.region == "header" || op.region == "name" ||
			op.region == "footer" && op.off%footerBytes >= 16
	case opHide:
		m.ctr.reloadFailures++
		m.apply(modelOp{kind: opSearch, name: op.name})
	case opCrash:
		// Only a crash after the rename leaves the new version on disk.
		if op.point == segment.CrashWriteDirsync {
			m.disk[op.name] = &modelFile{version: op.version, spec: op.spec}
		}
		m.restart("clean")
		m.apply(modelOp{kind: opSearch, name: op.name})
	case opRestart:
		m.restart(op.boot)
	}
}

// footerBytes is the segment footer's length: plane sums, header sum,
// end magic.
const footerBytes = 32

// modelFixture holds, per tenant name, one client's queries and two
// versions of its database (the pattern planted at different offsets),
// each with its client-decrypt ground truth.
type modelFixture struct {
	p      bfv.Params
	arena  int64
	chunks int
	bitLen map[string]int
	q      map[string][3]*core.Query       // q, other, dup
	db     map[string][2]*core.EncryptedDB // by version
	want   map[string][2][2][]int          // [version][q, other]
}

func newModelFixture(t *testing.T) *modelFixture {
	t.Helper()
	p := bfv.ParamsToy()
	fx := &modelFixture{p: p, bitLen: map[string]int{}, q: map[string][3]*core.Query{}, db: map[string][2]*core.EncryptedDB{}, want: map[string][2][2][]int{}}
	other := []byte{0x0F, 0xF0, 0x55, 0xAA}
	for _, name := range modelNames {
		size := modelBytes[name]
		v0, v1 := newTenant(t, p, name, core.EngineSpec{}, size, 200), newTenant(t, p, name, core.EngineSpec{}, size, 968)
		if slices.Equal(v0.expect, v1.expect) {
			t.Fatalf("%s: the two versions are indistinguishable", name)
		}
		client, err := core.NewClient(core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}, rng.NewSourceFromString("tenant-"+name))
		if err != nil {
			t.Fatal(err)
		}
		oq, err := client.PrepareQuery(other, 32, size*8)
		if err != nil {
			t.Fatal(err)
		}
		var want [2][2][]int
		for v, tn := range []*tenant{v0, v1} {
			want[v] = [2][]int{tn.expect, decryptTruth(t, p, "tenant-"+name, tn.db, other, 32)}
		}
		fx.q[name], fx.db[name], fx.want[name] = [3]*core.Query{v0.q, oq, v1.q}, [2]*core.EncryptedDB{v0.db, v1.db}, want
		fx.chunks, fx.bitLen[name] = len(v0.db.Chunks), v0.db.BitLen
	}
	fx.arena = (&Store{params: p}).arenaBytes(fx.chunks)
	return fx
}

// upload returns a fresh copy of a version's database, so a flipped
// word never leaks into the fixture.
func (fx *modelFixture) upload(name string, version int) *core.EncryptedDB {
	src := fx.db[name][version]
	db := core.NewCompactDB(fx.p.N, len(src.Chunks))
	copy(db.Arena(), src.Arena())
	db.BitLen, db.NumSegments = src.BitLen, src.NumSegments
	return db
}

// switchFS is the store's filesystem: the test points it at the real
// one or at a fault injector's for the duration of one operation.
type switchFS struct{ segment.FS }

// modelRun is one run of an op sequence against a real store.
type modelRun struct {
	fx     *modelFixture
	dir    string
	budget int64
	fs     *switchFS
	base   segment.FS // what fs routes to between faulted operations
	st     *Store
	reg    *metrics.Registry
	copies map[string]*core.EncryptedDB // the arena each upload handed the store
}

// runModel applies ops to a fresh store and to the model, checking
// after each; it returns the index of the first op that fails and why.
func runModel(t *testing.T, fx *modelFixture, budget int, ops []modelOp) (int, error) {
	r := &modelRun{fx: fx, dir: t.TempDir(), budget: fx.arena * int64(modelBudgets[budget].halves) / 2, fs: &switchFS{}}
	defer func() {
		if r.st != nil {
			r.st.Close()
		}
	}()
	m := newStoreModel(modelBudgets[budget].halves / 2)
	if err := r.boot("clean"); err != nil {
		return 0, err
	}
	for i, op := range ops {
		m.apply(op)
		if err := r.step(op, m); err != nil {
			return i, fmt.Errorf("%s: %w", op, err)
		}
		if err := r.check(m); err != nil {
			return i, fmt.Errorf("after %s: %w", op, err)
		}
	}
	return 0, nil
}

// boot closes the running store, if any, and opens a new one over the
// directory.
func (r *modelRun) boot(mode string) error {
	if r.st != nil {
		r.st.Close()
	}
	r.st, r.copies = nil, map[string]*core.EncryptedDB{}
	r.reg, r.base = metrics.NewRegistry(), segment.OSFS{}
	inj := fault.New(modelInjectors[mode])
	inj.Bind(r.reg)
	if r.fs.FS = inj.FS(segment.OSFS{}); mode == "mmapfail" {
		r.base = r.fs.FS // every later reload runs under it
	}
	st, err := NewStoreWithOptions(r.fx.p, core.EngineSpec{}, StoreOptions{DataDir: r.dir, MemBudget: r.budget, FS: r.fs, Metrics: r.reg})
	r.fs.FS = r.base
	if err != nil {
		return fmt.Errorf("boot %s: %w", mode, err)
	}
	r.st = st
	if n, _ := metrics.Lookup(r.reg.Snapshot(), "fault_write_errors_total"); n != 0 {
		return fmt.Errorf("boot %s attempted %d writes", mode, n)
	}
	return nil
}

// wantErr checks err against the model's expected error class.
func wantErr(class string, err error) error {
	ok := false
	switch class {
	case "":
		ok = err == nil
	case "missing":
		ok = err != nil && strings.Contains(err.Error(), "no database named") && !errors.Is(err, ErrServerFault)
	case "corrupt":
		ok = errors.Is(err, ErrCorruptDB) && errors.Is(err, ErrServerFault)
	case "hidden":
		ok = errors.Is(err, fs.ErrNotExist) && !errors.Is(err, ErrCorruptDB)
	}
	if !ok {
		return fmt.Errorf("error %v, want %q", err, class)
	}
	return nil
}

// candidates checks a served result against the ground truth of the
// model's version; a rotten arena's result is not checked.
func (r *modelRun) candidates(name string, version, query int, got []int) error {
	if version < 0 {
		return nil
	}
	if want := r.fx.want[name][version][query]; !slices.Equal(got, want) {
		return fmt.Errorf("candidates %v, want v%d's %v", got, version, want)
	}
	return nil
}

// step applies op to the store and checks its direct answer.
func (r *modelRun) step(op modelOp, m *storeModel) error {
	switch op.kind {
	case opUpload:
		db := r.fx.upload(op.name, op.version)
		if err := r.st.Upload(op.name, op.spec, db); err != nil {
			return err
		}
		r.copies[op.name] = db
	case opFaultUpload:
		r.fs.FS = fault.New(modelInjectors[op.fault]).FS(segment.OSFS{})
		err := r.st.Upload(op.name, op.spec, r.fx.upload(op.name, op.version))
		r.fs.FS = r.base
		want := fault.ErrNoSpace // a short write reports a full disk too
		if op.fault == "syncerr" {
			want = fault.ErrSyncFailed
		}
		if !errors.Is(err, want) {
			return fmt.Errorf("error %v, want %v", err, want)
		}
	case opDrop, opDoubleDrop:
		if err := wantErr(m.wantErr, r.st.Drop(op.name)); err != nil {
			return err
		}
		if op.kind == opDoubleDrop {
			if err := wantErr("missing", r.st.Drop(op.name)); err != nil {
				return fmt.Errorf("second drop: %w", err)
			}
		}
	case opSearch:
		ir, err := r.st.Search(op.name, r.fx.q[op.name][0])
		if err := wantErr(m.wantErr, err); err != nil {
			return err
		}
		if err == nil {
			defer ir.Release()
			return r.candidates(op.name, m.wantVer, 0, ir.Candidates)
		}
	case opBatch:
		qs := r.fx.q[op.name]
		irs, err := r.st.SearchBatch(op.name, core.NewBatchQuery(qs[:]...))
		if err := wantErr(m.wantErr, err); err != nil {
			return err
		}
		for _, ir := range irs {
			defer ir.Release()
		}
		if err == nil && len(irs) != len(qs) {
			return fmt.Errorf("%d batch results for %d queries", len(irs), len(qs))
		}
		for i, ir := range irs {
			if err := r.candidates(op.name, m.wantVer, []int{0, 1, 0}[i], ir.Candidates); err != nil {
				return fmt.Errorf("member %d: %w", i, err)
			}
		}
	case opScrub:
		if checked, corrupted := r.st.ScrubOnce(); [2]int{checked, corrupted} != m.wantScrub {
			return fmt.Errorf("scrub checked %d, corrupted %d; want %d, %d", checked, corrupted, m.wantScrub[0], m.wantScrub[1])
		}
	case opFlipArena:
		arena := r.copies[op.name].Arena()
		arena[op.off%len(arena)] ^= 1
	case opFlipDisk:
		path := filepath.Join(r.dir, segment.FileName(op.name))
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// The header block is 128 bytes, the name is padded to 8.
		nameEnd := 128 + (len(op.name)+7)&^7
		span := map[string][2]int{
			"header": {0, 128},
			"name":   {128, nameEnd},
			"plane":  {nameEnd, len(raw) - footerBytes},
			"footer": {len(raw) - footerBytes, len(raw)},
		}[op.region]
		raw[span[0]+op.off%(span[1]-span[0])] ^= 0xFF
		return os.WriteFile(path, raw, 0o644)
	case opHide:
		path := filepath.Join(r.dir, segment.FileName(op.name))
		if err := os.Rename(path, path+".hidden"); err != nil {
			return err
		}
		_, err := r.st.Search(op.name, r.fx.q[op.name][0])
		if err := wantErr("hidden", err); err != nil {
			return err
		}
		for _, in := range r.st.List() {
			if in.Name == op.name && in.State != StateCold {
				return fmt.Errorf("hidden segment left %s %s, want cold", op.name, in.State)
			}
		}
		if err := os.Rename(path+".hidden", path); err != nil {
			return err
		}
		return r.step(modelOp{kind: opSearch, name: op.name}, m)
	case opCrash:
		inj := fault.New(fault.Config{CrashPoint: op.point})
		r.fs.FS = inj.FS(segment.OSFS{})
		if err := r.st.Upload(op.name, op.spec, r.fx.upload(op.name, op.version)); !errors.Is(err, fault.ErrCrashed) {
			return fmt.Errorf("error %v, want %v", err, fault.ErrCrashed)
		}
		if _, err := inj.FS(segment.OSFS{}).ReadDir(r.dir); !errors.Is(err, fault.ErrCrashed) {
			return fmt.Errorf("filesystem alive after the crash: ReadDir = %v", err)
		}
		if err := r.boot("clean"); err != nil {
			return err
		}
		return r.step(modelOp{kind: opSearch, name: op.name}, m)
	case opRestart:
		return r.boot(op.boot)
	}
	return nil
}

// check compares the store's listing, resident bytes, counters and
// data directory with the model.
func (r *modelRun) check(m *storeModel) error {
	infos := r.st.List()
	names := m.names(func(*modelEntry) bool { return true })
	if len(infos) != len(names) {
		return fmt.Errorf("listing %+v, want tenants %v", infos, names)
	}
	for i, in := range infos {
		e := m.reg[names[i]]
		if in.Name != e.name || in.State != e.state() || in.Searches != e.searches || in.Chunks != r.fx.chunks || in.BitLen != r.fx.bitLen[e.name] {
			return fmt.Errorf("listing %+v, want %s %s with %d searches, %d chunks, %d bits",
				in, e.name, e.state(), e.searches, r.fx.chunks, r.fx.bitLen[e.name])
		}
		if !e.resident && in.Engine != e.spec.String() {
			return fmt.Errorf("%s listed with engine %q, want its persisted %q", in.Name, in.Engine, e.spec)
		}
	}

	got, want := r.st.ResidentBytes(), int64(m.residents())*r.fx.arena
	if got != want || r.budget > 0 && got > r.budget {
		return fmt.Errorf("resident %d bytes, want %d within budget %d", got, want, r.budget)
	}

	snap := r.reg.Snapshot()
	for name, want := range map[string]int64{
		"store_reloads_total":           m.ctr.reloads,
		"store_reload_bytes_total":      m.ctr.reloads * r.fx.arena,
		"store_reload_failures_total":   m.ctr.reloadFailures,
		"store_evictions_total":         m.ctr.evictions,
		"store_quarantines_total":       m.ctr.quarantines,
		"store_uploads_failed_total":    m.ctr.uploadsFailed,
		"store_scrub_runs_total":        m.ctr.scrubRuns,
		"store_scrub_corruptions_total": m.ctr.scrubCorruptions,
	} {
		if got, _ := metrics.Lookup(snap, name); got != want {
			return fmt.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := r.reg.Histogram("store_reload_ns").Count(); got != m.ctr.reloads {
		return fmt.Errorf("store_reload_ns count = %d, want %d", got, m.ctr.reloads)
	}
	if got, _ := metrics.Lookup(snap, "fault_mmap_fails_total"); (got > 0) != (m.ctr.mmapTries > 0) {
		return fmt.Errorf("fault_mmap_fails_total = %d after %d reloads under MmapFail", got, m.ctr.mmapTries)
	}

	des, err := os.ReadDir(r.dir)
	if err != nil {
		return err
	}
	var files, wantFiles []string
	for _, de := range des {
		files = append(files, de.Name())
	}
	for n := range m.disk {
		wantFiles = append(wantFiles, segment.FileName(n))
	}
	sort.Strings(wantFiles) // ReadDir sorts by name
	if !slices.Equal(files, wantFiles) {
		return fmt.Errorf("data directory holds %v, want %v", files, wantFiles)
	}
	return nil
}
