package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ciphermatch/internal/core"
	"ciphermatch/internal/engine"
	"ciphermatch/internal/segment"
)

// ColdLoadResult measures the durable store's cold path for one engine
// kind on the standard engine-benchmark workload: the time from an
// evicted (on-disk-only) database to a searchable engine — segment
// open with checksum verification, zero-copy arena adoption, engine
// build — against the warm per-search time over the same
// segment-backed arena.
type ColdLoadResult struct {
	Engine            string  `json:"engine"`
	SegmentBytes      int64   `json:"segment_bytes"`
	ColdLoadNsPerOp   float64 `json:"cold_load_ns_per_op"`
	WarmSearchNsPerOp float64 `json:"warm_search_ns_per_op"`
	Mapped            bool    `json:"mmap"`
	// Advised reports whether madvise hints (MADV_SEQUENTIAL at open,
	// WILLNEED before the first search) reached the kernel for the
	// mapped arena, so cold-load numbers are comparable across
	// platforms with and without the hints.
	Advised bool `json:"madvise"`
}

// RunColdLoadBench writes the standard fixture database to a segment
// file once, then measures, per engine spec, the cold load (open +
// adopt + engine build, the work a search on an evicted tenant pays
// first) and the warm search over the loaded mapping.
func RunColdLoadBench(specs []string) ([]ColdLoadResult, error) {
	cfg, db, q, err := NewEngineBenchFixture()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "cm-coldload")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := cfg.Params
	path := filepath.Join(dir, segment.FileName("bench"))
	meta := segment.Meta{
		Name:        "bench",
		RingDegree:  p.N,
		Modulus:     p.Q,
		Chunks:      len(db.Chunks),
		BitLen:      db.BitLen,
		NumSegments: db.NumSegments,
	}
	if err := segment.Write(path, meta, db); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	var out []ColdLoadResult
	for _, specStr := range specs {
		spec, err := engine.Parse(specStr)
		if err != nil {
			return nil, err
		}
		coldOnce := func() (*segment.Segment, core.Engine, error) {
			seg, err := segment.Open(path, p.N, p.Q)
			if err != nil {
				return nil, nil, err
			}
			// Mirror the durable store's load path: the cold load is
			// always followed by a search streaming the arena.
			seg.AdviseWillNeed()
			sdb, err := seg.DB()
			if err != nil {
				seg.Close()
				return nil, nil, err
			}
			eng, err := engine.Build(p, sdb, spec)
			if err != nil {
				seg.Close()
				return nil, nil, err
			}
			return seg, eng, nil
		}

		// Warm: one resident load, searches over the mapped arena.
		seg, eng, err := coldOnce()
		if err != nil {
			return nil, fmt.Errorf("harness: cold load %s: %w", specStr, err)
		}
		res := ColdLoadResult{Engine: specStr, SegmentBytes: st.Size(), Mapped: seg.Mapped(), Advised: seg.Advised()}
		warm := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ir, err := eng.SearchAndIndex(q)
				if err != nil {
					b.Fatal(err)
				}
				ir.Release()
			}
		})
		res.WarmSearchNsPerOp = float64(warm.T.Nanoseconds()) / float64(warm.N)
		eng.Close()
		seg.Close()

		cold := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seg, eng, err := coldOnce()
				if err != nil {
					b.Fatal(err)
				}
				eng.Close()
				seg.Close()
			}
		})
		res.ColdLoadNsPerOp = float64(cold.T.Nanoseconds()) / float64(cold.N)
		out = append(out, res)
	}
	return out, nil
}
