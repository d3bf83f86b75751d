package ssd

import (
	"fmt"
	"sync"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/ring"
)

// Engine adapts the in-flash simulator to core.Engine, so the SSD's
// CM-search is drivable through the exact same API as the CPU engines —
// the substrate interchangeability the paper argues for. A drive is one
// physical device whose controller state (latches, stats) is mutated by
// every command, so searches — batch members included — serialise on an
// internal mutex. Multi-drive scale-out is modelled analytically
// (internal/perfmodel, cmbench -exp), not by composing engines.
type Engine struct {
	drive *SSD
	mu    sync.Mutex
}

var _ core.Engine = (*Engine)(nil)

// NewEngine wraps an SSD that already holds a database (CMWriteDatabase).
func NewEngine(drive *SSD) (*Engine, error) {
	if drive.StoredChunks() == 0 {
		return nil, fmt.Errorf("ssd: engine requires a database in the CIPHERMATCH region (CMWriteDatabase)")
	}
	return &Engine{drive: drive}, nil
}

// NewEngineForDB creates a drive with the given configuration, writes
// the database into its CIPHERMATCH region, and wraps it as an engine.
func NewEngineForDB(cfg Config, params bfv.Params, kind TranspositionKind, db *core.EncryptedDB) (*Engine, error) {
	drive, err := New(cfg, params, kind)
	if err != nil {
		return nil, err
	}
	if err := drive.CMWriteDatabase(db); err != nil {
		return nil, err
	}
	return NewEngine(drive)
}

// SearchAndIndex implements core.Engine by dispatching CM-search.
//
//cm:pooled
func (e *Engine) SearchAndIndex(q *core.Query) (*core.IndexResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rows, err := e.drive.comparands(q)
	if err != nil {
		return nil, err
	}
	return e.drive.search(q, rows)
}

// SearchAndIndexBatch implements core.Engine: one drive executes one
// command stream, so batch members run back to back under the drive
// mutex exactly as separate searches would, once every member has
// passed the checks, so a malformed member costs no flash work.
//
//cm:pooled
func (e *Engine) SearchAndIndexBatch(bq *core.BatchQuery) ([]*core.IndexResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rows := make([][][]ring.Poly, len(bq.Queries))
	for i, q := range bq.Queries {
		var err error
		if rows[i], err = e.drive.comparands(q); err != nil {
			return nil, fmt.Errorf("ssd: batch member %d: %w", i, err)
		}
	}
	out := make([]*core.IndexResult, len(bq.Queries))
	for i, q := range bq.Queries {
		ir, err := e.drive.search(q, rows[i])
		if err != nil {
			for _, done := range out[:i] {
				done.Release()
			}
			return nil, fmt.Errorf("ssd: batch member %d: %w", i, err)
		}
		out[i] = ir
	}
	return out, nil
}

// Describe implements core.Engine.
func (e *Engine) Describe() string {
	kind := "software-transpose"
	if e.drive.transKind == HardwareTransposition {
		kind = "hardware-transpose"
	}
	return fmt.Sprintf("ssd(%d planes, %s)", len(e.drive.planes), kind)
}

// Close implements core.Engine. A simulated drive holds no goroutines
// or OS resources, so there is nothing to release.
func (e *Engine) Close() error { return nil }
