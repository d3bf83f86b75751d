// Package fault is the deterministic, seedable fault-injection layer of
// the CIPHERMATCH runtime: a filesystem shim (implementing segment.FS)
// that injects short writes, disk-full, fsync failures, mmap failure,
// read-time bit flips and simulated crashes at named crash points, plus
// net.Listener/net.Conn wrappers that drop connections mid-message or
// stall reads and writes. The serving and storage hardening in
// internal/proto is tested under exactly these faults.
//
// Injection is deterministic, not probabilistic: each fault class keeps
// an operation counter and fires on every Nth operation, with the phase
// (which of the N residues fires) derived from the seed. The same seed
// and the same workload always inject the same faults — a failing chaos
// run replays exactly.
package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ciphermatch/internal/metrics"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/segment"
)

// Config selects which faults an Injector fires and how often. A zero
// Config injects nothing. "Every" fields are operation periods: 0
// disables the class, 1 fires on every operation, N on every Nth (at a
// seed-derived phase).
type Config struct {
	// Seed derives the per-class firing phases and bit-flip positions.
	// Empty is a valid (fixed) seed.
	Seed string

	// CrashPoint, when set to one of segment.CrashPoints(), simulates
	// the process dying at that named step of the segment write path:
	// the step fails and every subsequent filesystem operation returns
	// ErrCrashed, so nothing written "after the crash" can leak to disk.
	CrashPoint string

	WriteErrEvery   int  // file writes fail with ErrNoSpace
	ShortWriteEvery int  // file writes persist a prefix, then fail
	SyncErrEvery    int  // fsyncs fail with ErrSyncFailed
	MmapFail        bool // all mmap attempts fail (forces plain-read loads)
	BitFlipEvery    int  // file reads flip one bit in the returned buffer

	DropEvery  int           // connection ops drop the connection mid-message
	StallEvery int           // connection ops stall for Stall first
	Stall      time.Duration // stall length; default 50ms
}

func (c Config) withDefaults() Config {
	if c.Stall <= 0 {
		c.Stall = 50 * time.Millisecond
	}
	return c
}

// ParseConfig parses a comma-separated k=v fault spec — the cmserver
// -fault flag syntax. Keys: seed=<s>, crash=<point> (one of
// segment.CrashPoints(); any other name is an error), writeerr=<N>,
// shortwrite=<N>, syncerr=<N>, mmapfail, bitflip=<N>, drop=<N>,
// stall=<N>, stalldur=<duration>. Example:
//
//	-fault 'seed=chaos1,drop=97,stall=53,stalldur=20ms'
func ParseConfig(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, hasVal := strings.Cut(strings.TrimSpace(field), "=")
		intVal := func() (int, error) {
			if !hasVal {
				return 0, fmt.Errorf("fault: %q needs =N", key)
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("fault: bad period %q=%q", key, val)
			}
			return n, nil
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed = val
		case "crash":
			if points := segment.CrashPoints(); !slices.Contains(points, val) {
				return Config{}, fmt.Errorf("fault: unknown crash point %q (valid: %s)", val, strings.Join(points, ", "))
			}
			cfg.CrashPoint = val
		case "writeerr":
			cfg.WriteErrEvery, err = intVal()
		case "shortwrite":
			cfg.ShortWriteEvery, err = intVal()
		case "syncerr":
			cfg.SyncErrEvery, err = intVal()
		case "mmapfail":
			if hasVal && val != "true" {
				return Config{}, fmt.Errorf("fault: mmapfail takes no value")
			}
			cfg.MmapFail = true
		case "bitflip":
			cfg.BitFlipEvery, err = intVal()
		case "drop":
			cfg.DropEvery, err = intVal()
		case "stall":
			cfg.StallEvery, err = intVal()
		case "stalldur":
			if cfg.Stall, err = time.ParseDuration(val); err == nil && cfg.Stall <= 0 {
				err = fmt.Errorf("fault: stalldur must be positive")
			}
		case "":
			// tolerate trailing comma
		default:
			return Config{}, fmt.Errorf("fault: unknown key %q", key)
		}
		if err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

// stat is one fault class's injection count, mirrored into a metrics
// counter once Bind attaches a registry.
type stat struct {
	local atomic.Int64
	met   atomic.Pointer[metrics.Counter]
}

func (s *stat) inc() int64 {
	n := s.local.Add(1)
	if c := s.met.Load(); c != nil {
		c.Inc()
	}
	return n
}

// trigger fires deterministically on every period-th operation, at a
// seed-derived phase.
type trigger struct {
	n      atomic.Uint64
	period uint64
	phase  uint64
}

func (t *trigger) init(src *rng.Source, name string, every int) {
	t.period = uint64(every)
	if every > 0 {
		t.phase = src.Fork("fault/"+name).Uint64() % t.period
	}
}

func (t *trigger) hit() bool {
	if t.period == 0 {
		return false
	}
	return t.n.Add(1)%t.period == t.phase
}

// Injector owns the deterministic fault state shared by every FS and
// connection wrapper derived from it. Safe for concurrent use.
type Injector struct {
	cfg     Config
	crashed atomic.Bool
	flipMix uint64 // seed-derived multiplier selecting bit-flip positions

	writeErr, shortWrite, syncErr, bitFlip, drop, stall trigger

	nWriteErr, nShortWrite, nSyncErr, nMmapFail, nBitFlip, nDrop, nStall, nCrash stat
}

// New builds an Injector for cfg.
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	src := rng.NewSourceFromString("fault/" + cfg.Seed)
	inj := &Injector{
		cfg:     cfg,
		flipMix: src.Fork("fault/flipmix").Uint64() | 1, // odd: full-period mixer
	}
	inj.writeErr.init(src, "writeerr", cfg.WriteErrEvery)
	inj.shortWrite.init(src, "shortwrite", cfg.ShortWriteEvery)
	inj.syncErr.init(src, "syncerr", cfg.SyncErrEvery)
	inj.bitFlip.init(src, "bitflip", cfg.BitFlipEvery)
	inj.drop.init(src, "drop", cfg.DropEvery)
	inj.stall.init(src, "stall", cfg.StallEvery)
	return inj
}

// Bind mirrors injection counts into reg as fault_*_total counters, so
// a fault-wrapped server exposes what was injected next to how the
// serving stack absorbed it.
func (inj *Injector) Bind(reg *metrics.Registry) {
	for name, s := range inj.stats() {
		c := reg.Counter("fault_" + name + "_total")
		c.Add(s.local.Load())
		s.met.Store(c)
	}
}

func (inj *Injector) stats() map[string]*stat {
	return map[string]*stat{
		"write_errors": &inj.nWriteErr,
		"short_writes": &inj.nShortWrite,
		"sync_errors":  &inj.nSyncErr,
		"mmap_fails":   &inj.nMmapFail,
		"bit_flips":    &inj.nBitFlip,
		"conn_drops":   &inj.nDrop,
		"conn_stalls":  &inj.nStall,
		"crashes":      &inj.nCrash,
	}
}
