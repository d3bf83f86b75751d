package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ciphermatch/internal/core"
	"ciphermatch/internal/engine"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/proto"
	"ciphermatch/internal/segment"
)

// Span names. Each is one call into a layer's public function; the
// per-layer metrics are medians over them.
const (
	spanEncryptDB    = "core.encrypt_db"    // core.Client.EncryptDatabase (set-up)
	spanPrepareQuery = "core.prepare_query" // core.Client.PrepareQuery (set-up)
	spanEncodeQuery  = "wire.encode_query"  // proto.Conn.PrepareSearch (set-up)
	spanUploadRPC    = "rpc.upload"         // proto.Conn.UploadDB (set-up)
	spanClientSearch = "client.search"      // SearchPrepared + VerifyCandidates (traced steady)
	spanRoundtrip    = "rpc.roundtrip"      // proto.Conn.SearchPrepared (traced steady)
	spanVerify       = "core.verify"        // core.VerifyCandidates
	spanReplayOp     = "replay.op"          // root of one in-process replay operation
	spanDecodeQuery  = "wire.decode_query"  // proto.DecodeNamedQuery
	spanStoreSearch  = "store.search"       // proto.Store.Search as the serving path finds it
	spanStoreWarm    = "store.search_warm"  // the same search again, tenant now resident
	spanEncodeResult = "wire.encode_result" // proto.EncodeResult
	spanEngineSearch = "engine.search"      // engine.Build(spec).SearchAndIndex
	spanCandidates   = "core.candidates"    // core.Candidates over the engine's hit bitmaps
	spanSweep        = "ring.sweep"         // ring.SubCmpMultiBits over every chunk
	spanEncodeDB     = "wire.encode_db"     // proto.EncodeDB
	spanDecodeDB     = "wire.decode_db"     // proto.DecodeDB
	spanSegmentSave  = "segment.save"       // segment.Dir.Save
	spanSegmentLoad  = "segment.load"       // segment.Dir.Load + Segment.DB
	spanStoreUpload  = "store.upload"       // proto.Store.Upload
)

const (
	replayOps   = 20 // serial in-process operations per traced run
	scratchReps = 5  // repetitions of the once-per-run layer calls
)

// replayResult carries what the replay measured besides spans.
type replayResult struct {
	ops              opCounts
	chunkStreams     []float64 // IndexResult.Stats.ChunkStreams per engine search
	allocs           []float64 // heap allocations per engine search
	residues         int
	reloads          int64 // store_reloads_total delta over the replay
	dbWireBytes      int
	segmentFileBytes int64
	seqReadGBps      float64
}

// membwSink keeps the sequential-read loop's sum alive.
var membwSink uint64

// seqReadGBps measures a plain sequential uint64 read over a buffer of
// the given size: the same-host, same-run baseline the kernel's
// computed arena rate is divided by. Median of the passes that fit in
// about 300 ms (at least three).
func seqReadGBps(bytes int64) float64 {
	buf := make([]uint64, bytes/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	var rates []float64
	start := time.Now()
	for len(rates) < 3 || time.Since(start) < 300*time.Millisecond {
		t0 := time.Now()
		var sum uint64
		for _, v := range buf {
			sum += v
		}
		membwSink += sum
		rates = append(rates, float64(bytes)/time.Since(t0).Seconds()/1e9)
	}
	return median(rates)
}

// replayLayers re-runs, serially and inside this process, what one
// request does on the server: the same payload bytes and the same
// database go through each layer's public function in turn, with a span
// around each call. A span's parent is its logical caller (the replayed
// engine search stands in for the one Store.Search made), so a layer's
// self time is its span minus its children's.
func replayLayers(ctx context.Context, f *fixture, rec *recorder) (*replayResult, error) {
	res := &replayResult{}
	store := f.srv.Store()
	t0 := f.tenants[0]
	n := f.params.N
	r := f.params.Ring()

	eng, err := engine.Build(f.params, t0.db, f.spec.engine)
	if err != nil {
		return nil, err
	}
	if c, ok := eng.(io.Closer); ok {
		defer c.Close()
	}

	targets := f.searchedTenants()
	reloadsBefore, _ := metrics.Lookup(f.srv.Metrics().Snapshot(), "store_reloads_total")
	var words [][]uint64
	for i := 0; i < replayOps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := targets[i%len(targets)]
		k := (i / len(targets)) % len(t.payloads)
		p := &t.patterns[k]
		root := rec.begin(spanReplayOp, -1, i)

		id := rec.begin(spanDecodeQuery, root, i)
		name, q, err := proto.DecodeNamedQuery(t.payloads[k], f.params)
		rec.end(id)
		if err != nil {
			return nil, err
		}

		storeID := rec.begin(spanStoreSearch, root, i)
		ir, err := store.Search(name, q)
		rec.end(storeID)
		if err != nil {
			return nil, err
		}
		cands := ir.Candidates
		ir.Release()

		id = rec.begin(spanStoreWarm, root, i)
		ir, err = store.Search(name, q)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		ir.Release()

		id = rec.begin(spanEncodeResult, root, i)
		_, err = proto.EncodeResult(cands)
		rec.end(id)
		if err != nil {
			return nil, err
		}

		id = rec.begin(spanVerify, root, i)
		got := core.VerifyCandidates(t.data, t.bits(), p.bytes, p.bits, cands)
		rec.end(id)
		res.ops.attempted++
		if !slices.Equal(got, p.truth) {
			res.ops.failed++
		}

		// The engine and kernel legs run over tenant 0's client-side
		// copy, so they need a query whose token plane is tenant 0's.
		eq := q
		if t != t0 {
			if _, eq, err = proto.DecodeNamedQuery(t0.payloads[i%len(t0.payloads)], f.params); err != nil {
				return nil, err
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		engID := rec.begin(spanEngineSearch, storeID, i)
		eir, err := eng.SearchAndIndex(eq)
		rec.end(engID)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		res.allocs = append(res.allocs, float64(ms1.Mallocs-ms0.Mallocs))
		res.chunkStreams = append(res.chunkStreams, float64(eir.Stats.ChunkStreams))
		res.residues = len(eq.Residues)

		id = rec.begin(spanCandidates, engID, i)
		core.Candidates(eir.Hits, eq.DBBitLen, eq.YBits, eq.AlignBits)
		rec.end(id)
		eir.Release()

		fq, err := core.FactorQuery(r, eq, len(t0.db.Chunks))
		if err != nil {
			return nil, err
		}
		if words == nil {
			words = make([][]uint64, len(eq.Residues))
			for v := range words {
				words[v] = make([]uint64, (len(t0.db.Chunks)*n+63)/64)
			}
		}
		for v := range words {
			clear(words[v])
		}
		id = rec.begin(spanSweep, engID, i)
		for j, chunk := range t0.db.Chunks {
			r.SubCmpMultiBits(chunk.C[0], fq.DBTok[j], fq.Row(core.ChunkPhi(n, j, eq.YBits)), words, j*n)
		}
		rec.end(id)
		rec.end(root)
	}
	reloadsAfter, _ := metrics.Lookup(f.srv.Metrics().Snapshot(), "store_reloads_total")
	res.reloads = reloadsAfter - reloadsBefore

	// Once-per-run layer calls on tenant 0's database.
	segDir, err := segment.OpenDir(filepath.Join(f.tmp, "scratch-segments"))
	if err != nil {
		return nil, err
	}
	const scratch = "scratch"
	meta := segment.Meta{Name: scratch, RingDegree: n, Modulus: f.params.Q, Chunks: len(t0.db.Chunks),
		BitLen: t0.db.BitLen, NumSegments: t0.db.NumSegments, Spec: f.spec.engine}
	for i := 0; i < scratchReps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := rec.begin(spanEncodeDB, -1, i)
		wire := proto.EncodeDB(t0.db, f.params)
		rec.end(id)
		res.dbWireBytes = len(wire)
		id = rec.begin(spanDecodeDB, -1, i)
		_, err := proto.DecodeDB(wire, f.params)
		rec.end(id)
		if err != nil {
			return nil, err
		}

		id = rec.begin(spanSegmentSave, -1, i)
		err = segDir.Save(meta, t0.db)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin(spanSegmentLoad, -1, i)
		seg, err := segDir.Load(scratch, n, f.params.Q)
		if err == nil {
			_, err = seg.DB()
		}
		rec.end(id)
		if err != nil {
			return nil, err
		}
		seg.Close()

		id = rec.begin(spanStoreUpload, -1, i)
		err = store.Upload(scratch, f.spec.engine, t0.db)
		rec.end(id)
		if err == nil {
			err = store.Drop(scratch)
		}
		if err != nil {
			return nil, fmt.Errorf("store upload replay: %w", err)
		}
	}
	fi, err := os.Stat(filepath.Join(segDir.Root(), segment.FileName(scratch)))
	if err != nil {
		return nil, err
	}
	res.segmentFileBytes = fi.Size()
	res.seqReadGBps = seqReadGBps(f.arenaBytes())
	return res, nil
}

// statDelta is after[name]-before[name]; a counter the server never
// registered counts as zero.
func statDelta(before, after []metrics.KV, name string) float64 {
	b, _ := metrics.Lookup(before, name)
	a, _ := metrics.Lookup(after, name)
	return float64(a - b)
}

// layerMetrics turns the traced run's spans and counters into the
// per-layer metrics. plain and traced are the two steady halves.
func layerMetrics(f *fixture, rec *recorder, plain, traced *steadyResult, rp *replayResult) map[string]metricValue {
	m := make(map[string]metricValue)
	med := func(name string) (float64, int) {
		d := rec.durationsMS(name)
		return median(d), len(d)
	}
	set := func(name string, v float64, samples int) {
		m[name] = metricValue{Value: v, Samples: samples}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const mib = 1 << 20
	t0 := f.tenants[0]
	chunks := float64(len(t0.db.Chunks))
	n := float64(f.params.N)

	sweep, sweepN := med(spanSweep)
	cand, candN := med(spanCandidates)
	engSearch, engN := med(spanEngineSearch)
	// Computed bytes: the kernel reads the C0 plane and the token plane
	// once each per sweep.
	arenaGBps := ratio(2*chunks*n*8, sweep/1e3) / 1e9
	set("ring.sweep_ms", sweep, sweepN)
	set("ring.coeffs_per_s", ratio(chunks*n*float64(rp.residues), sweep/1e3), sweepN)
	set("ring.arena_gbps", arenaGBps, sweepN)
	set("ring.arena_bw_fraction", ratio(arenaGBps, rp.seqReadGBps), sweepN)

	prep, prepN := med(spanPrepareQuery)
	verify, verifyN := med(spanVerify)
	encDB, encDBN := med(spanEncryptDB)
	set("core.candidates_ms", cand, candN)
	set("core.prepare_query_ms", prep, prepN)
	set("core.verify_ms", verify, verifyN)
	set("core.encrypt_db_mib_per_s", ratio(float64(len(t0.data))/mib, encDB/1e3), encDBN)

	set("engine.search_ms", engSearch, engN)
	set("engine.self_ms", engSearch-sweep-cand, engN)
	set("engine.over_kernel_ratio", ratio(engSearch, sweep), engN)
	set("engine.chunk_streams_per_search", median(rp.chunkStreams), len(rp.chunkStreams))
	set("engine.allocs_per_search", median(rp.allocs), len(rp.allocs))

	encQ, encQN := med(spanEncodeQuery)
	decQ, decQN := med(spanDecodeQuery)
	encRes, encResN := med(spanEncodeResult)
	decDB, decDBN := med(spanDecodeDB)
	set("wire.encode_query_ms", encQ, encQN)
	set("wire.decode_query_ms", decQ, decQN)
	set("wire.encode_result_us", encRes*1e3, encResN)
	set("wire.decode_db_mib_per_s", ratio(float64(rp.dbWireBytes)/mib, decDB/1e3), decDBN)

	storeSearch, storeN := med(spanStoreSearch)
	storeWarm, _ := med(spanStoreWarm)
	reload := 0.0
	if rp.reloads > 0 { // otherwise first and second search differ by noise only
		reload = storeSearch - storeWarm
	}
	queries := statDelta(plain.before, plain.after, "queries_total") + statDelta(traced.before, traced.after, "queries_total")
	both := func(name string) float64 {
		return statDelta(plain.before, plain.after, name) + statDelta(traced.before, traced.after, name)
	}
	upload, uploadN := med(spanStoreUpload)
	set("store.search_ms", storeSearch, storeN)
	set("store.self_ms", storeSearch-engSearch, storeN)
	set("store.reload_ms", reload, storeN)
	set("store.reloads_per_search", ratio(both("store_reloads_total"), queries), int(queries))
	set("store.evictions_per_search", ratio(both("store_evictions_total"), queries), int(queries))
	set("store.upload_ms", upload, uploadN)

	save, saveN := med(spanSegmentSave)
	load, loadN := med(spanSegmentLoad)
	set("segment.save_ms", save, saveN)
	set("segment.load_ms", load, loadN)
	set("segment.bytes_per_plain_byte", ratio(float64(rp.segmentFileBytes), float64(len(t0.data))), 0)

	set("search_p90_ms", quantile(plain.searchMS, 0.90), len(plain.searchMS))
	rt, rtN := med(spanRoundtrip)
	attributed := decQ + storeSearch + encRes
	set("rpc.roundtrip_ms", rt, rtN)
	set("rpc.self_ms", rt-attributed, rtN)
	// With coalescing off every query is its own arena pass.
	occupancy := 1.0
	if c := both("batch_occupancy_count"); c > 0 {
		occupancy = both("batch_occupancy_sum") / c
	}
	set("coalesce.batch_occupancy", occupancy, int(queries))
	set("coalesce.chunk_streams_per_query", ratio(both("chunk_streams_total"), queries), int(queries))
	set("coalesce.decodes_saved_share", ratio(both("query_decodes_saved_total"), queries), int(queries))
	set("coalesce.rejected_share", ratio(both("queries_rejected_total"), queries), int(queries))

	untracedP50 := median(plain.searchMS)
	tracedP50, tracedN := med(spanClientSearch)
	set("membw.seq_read_gbps", rp.seqReadGBps, 0)
	set("bench.trace_overhead_pct", 100*ratio(tracedP50-untracedP50, untracedP50), tracedN)
	set("bench.attributed_share", ratio(attributed, rt), rtN)
	set("bench.samples_steady", float64(len(plain.searchMS)), 0)
	return m
}
