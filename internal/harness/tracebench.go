package harness

import (
	"testing"

	"ciphermatch/internal/core"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/proto"
	"ciphermatch/internal/trace"
)

// TraceOverheadResult quantifies what request-lifecycle tracing costs
// relative to the work it measures: the full per-request record path
// (reset, every stage stamp, slow-ring double put, histogram
// aggregation) against one serial hot-path search on the standard
// engine-benchmark fixture. Tracing is always on in the server, so this
// ratio is the tax every query pays — the observability budget is that
// it stays under 2%.
type TraceOverheadResult struct {
	SearchNsPerOp float64
	TraceNsPerOp  float64
	TraceAllocs   int64
	OverheadPct   float64
}

// RunTraceOverheadBench measures the serial search and the per-request
// trace record path with testing.Benchmark and returns their ratio.
// The search side uses the large fixture: tracing cost is a constant
// per request, so the honest denominator is a serving-scale search
// (64-chunk arena), not the 2-chunk cache toy — against the small
// fixture the vectorized kernels alone would "blow" the budget by
// making the denominator faster.
func RunTraceOverheadBench() (*TraceOverheadResult, error) {
	cfg, db, q, err := NewEngineBenchLargeFixture()
	if err != nil {
		return nil, err
	}
	eng := core.NewCPUEngine(cfg.Params, db, 1)
	search := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ir, err := eng.SearchAndIndex(q)
			if err != nil {
				b.Fatal(err)
			}
			ir.Release()
		}
	})

	// The record path exactly as a served request exercises it under
	// the server's default configuration: a reused Trace value, one
	// stamp per stage, and a Finish into the recent ring plus every
	// histogram. (A slow query additionally pays one ring put — but a
	// request crossing the 50ms threshold is 4 orders of magnitude
	// past caring about ~100ns.)
	rec := trace.NewRecorder(proto.DefaultTraceBuf, trace.DefaultSlowThreshold)
	reg := metrics.NewRegistry()
	rec.BindMetrics(reg)
	th := rec.TenantHistogram("bench")
	var tr trace.Trace
	record := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Reset()
			tr.ID = uint64(i)
			tr.Tenant = "bench"
			tr.Stamp(trace.StageRead, 1_200)
			tr.Stamp(trace.StageDecode, 15_000)
			tr.Stamp(trace.StageArena, 2_000_000)
			tr.Stamp(trace.StageEncode, 900)
			tr.Stamp(trace.StageWrite, 2_500)
			tr.ChunkStreams, tr.HomAdds, tr.Batch = 8, 8, 1
			tr.TotalNS = tr.StagesTotal()
			rec.Finish(&tr, th)
		}
	})

	res := &TraceOverheadResult{
		SearchNsPerOp: float64(search.T.Nanoseconds()) / float64(search.N),
		TraceNsPerOp:  float64(record.T.Nanoseconds()) / float64(record.N),
		TraceAllocs:   record.AllocsPerOp(),
	}
	if res.SearchNsPerOp > 0 {
		res.OverheadPct = 100 * res.TraceNsPerOp / res.SearchNsPerOp
	}
	return res, nil
}
