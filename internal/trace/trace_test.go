package trace

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ciphermatch/internal/metrics"
)

func TestStageCatalog(t *testing.T) {
	names := StageNames()
	if len(names) != NumStages {
		t.Fatalf("StageNames returned %d names, want %d", len(names), NumStages)
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" {
			t.Fatalf("stage %d has empty name", i)
		}
		if seen[n] {
			t.Fatalf("duplicate stage name %q", n)
		}
		seen[n] = true
		if Stage(i).String() != n {
			t.Fatalf("Stage(%d).String() = %q, want %q", i, Stage(i).String(), n)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatalf("out-of-range stage should stringify as unknown")
	}
}

func TestTraceResetAndStamp(t *testing.T) {
	var tr Trace
	tr.ID = 7
	tr.Tenant = "db"
	tr.Stamp(StageArena, 100)
	tr.Stamp(StageArena, 50)
	tr.Stamp(StageDecode, 10)
	if tr.StageNS[StageArena] != 150 {
		t.Fatalf("Stamp should accumulate: got %d", tr.StageNS[StageArena])
	}
	if got := tr.StagesTotal(); got != 160 {
		t.Fatalf("StagesTotal = %d, want 160", got)
	}
	tr.Flags = FlagError | FlagCoalesced
	tr.Reset()
	if tr != (Trace{}) {
		t.Fatalf("Reset left residue: %+v", tr)
	}
}

func TestRingPutSnapshot(t *testing.T) {
	r := NewRing(3) // rounds up to 8
	if len(r.slots) != 8 {
		t.Fatalf("%d slots, want 8", len(r.slots))
	}
	for i := 1; i <= 12; i++ {
		tr := Trace{ID: uint64(i)}
		r.Put(&tr)
	}
	if r.Len() != 12 {
		t.Fatalf("Len = %d, want 12", r.Len())
	}
	got := r.Snapshot(0)
	if len(got) != 8 {
		t.Fatalf("Snapshot len = %d, want 8 (ring capacity)", len(got))
	}
	// Newest first: 12, 11, ..., 5.
	for i, tr := range got {
		if want := uint64(12 - i); tr.ID != want {
			t.Fatalf("Snapshot[%d].ID = %d, want %d", i, tr.ID, want)
		}
	}
	if got := r.Snapshot(3); len(got) != 3 || got[0].ID != 12 {
		t.Fatalf("Snapshot(3) = %v", got)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := Trace{Tenant: "db"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.ID = uint64(w*1_000_000 + i)
				tr.TotalNS = int64(tr.ID)
				r.Put(&tr)
			}
		}(w)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, tr := range r.Snapshot(0) {
			// Torn slots must be discarded, so every surviving trace is
			// internally consistent.
			if tr.TotalNS != int64(tr.ID) {
				t.Errorf("torn trace escaped snapshot: id=%d total=%d", tr.ID, tr.TotalNS)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestRecorderSlowCapture(t *testing.T) {
	rec := NewRecorder(16, 1*time.Millisecond)
	reg := metrics.NewRegistry()
	rec.BindMetrics(reg)
	th := rec.TenantHistogram("db0")

	fast := Trace{ID: 1, Tenant: "db0", TotalNS: int64(100 * time.Microsecond)}
	fast.Stamp(StageArena, 90_000)
	rec.Finish(&fast, th)
	slow := Trace{ID: 2, Tenant: "db0", TotalNS: int64(5 * time.Millisecond)}
	slow.Stamp(StageCoalesceWait, 4_000_000)
	rec.Finish(&slow, th)

	total, slowN := rec.Counts()
	if total != 2 || slowN != 1 {
		t.Fatalf("Counts = (%d, %d), want (2, 1)", total, slowN)
	}
	if got := rec.Slow(0); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("Slow ring = %v", got)
	}
	if fast.Seq == 0 || slow.Seq == 0 || fast.Seq == slow.Seq {
		t.Fatalf("Finish must assign distinct nonzero seqs: %d, %d", fast.Seq, slow.Seq)
	}

	kvs := reg.Snapshot()
	if v, ok := metrics.Lookup(kvs, "request_latency_ns_count"); !ok || v != 2 {
		t.Fatalf("request_latency_ns_count = %d, %v", v, ok)
	}
	if v, ok := metrics.Lookup(kvs, "traces_slow_total"); !ok || v != 1 {
		t.Fatalf("traces_slow_total = %d, %v", v, ok)
	}
	if v, ok := metrics.Lookup(kvs, `stage_latency_ns_count{stage="arena"}`); !ok || v != 1 {
		t.Fatalf("arena stage count = %d, %v", v, ok)
	}
	if v, ok := metrics.Lookup(kvs, `tenant_latency_ns_count{db="db0"}`); !ok || v != 2 {
		t.Fatalf("tenant latency count = %d, %v", v, ok)
	}
}

// TestTraceRecordAllocs pins the hot-path contract: finishing a trace
// (ring puts plus histogram aggregation) performs zero heap
// allocations per request.
func TestTraceRecordAllocs(t *testing.T) {
	rec := NewRecorder(1024, time.Millisecond)
	reg := metrics.NewRegistry()
	rec.BindMetrics(reg)
	th := rec.TenantHistogram("db0")
	var tr Trace
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Reset()
		tr.ID = 42
		tr.Tenant = "db0"
		tr.Stamp(StageRead, 1_000)
		tr.Stamp(StageDecode, 2_000)
		tr.Stamp(StageArena, 3_000_000) // trips the slow ring too
		tr.TotalNS = tr.StagesTotal()
		rec.Finish(&tr, th)
	})
	if allocs != 0 {
		t.Fatalf("trace record allocates: %v allocs/op, want 0", allocs)
	}
}

func TestTracesJSONShape(t *testing.T) {
	rec := NewRecorder(16, time.Millisecond)
	tr := Trace{ID: 9, Tenant: "tenant-a", Start: 1700000000000000000,
		ChunkStreams: 3, HomAdds: 128, Batch: 4, Flags: FlagCoalesced | FlagClientID}
	tr.Stamp(StageCoalesceWait, 250_000)
	tr.Stamp(StageArena, 1_750_000)
	tr.TotalNS = 2_100_000
	rec.Finish(&tr, nil)

	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var dump struct {
		Total  uint64 `json:"total"`
		Slow   uint64 `json:"slow"`
		SlowNS int64  `json:"slow_threshold_ns"`
		Traces []struct {
			ID           uint64           `json:"id"`
			Seq          uint64           `json:"seq"`
			Tenant       string           `json:"tenant"`
			StartUnixNS  int64            `json:"start_unix_ns"`
			TotalNS      int64            `json:"total_ns"`
			Stages       map[string]int64 `json:"stages"`
			ChunkStreams int64            `json:"chunk_streams"`
			HomAdds      int64            `json:"hom_adds"`
			Batch        int32            `json:"batch"`
			Coalesced    bool             `json:"coalesced"`
			ClientID     bool             `json:"client_id"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decoding /traces JSON: %v", err)
	}
	if dump.Total != 1 || dump.Slow != 1 || dump.SlowNS != int64(time.Millisecond) {
		t.Fatalf("envelope = %+v", dump)
	}
	got := dump.Traces[0]
	if got.ID != 9 || got.Tenant != "tenant-a" || got.TotalNS != 2_100_000 ||
		got.ChunkStreams != 3 || got.HomAdds != 128 || got.Batch != 4 ||
		!got.Coalesced || !got.ClientID {
		t.Fatalf("trace JSON = %+v", got)
	}
	if got.Stages["coalesce_wait"] != 250_000 || got.Stages["arena"] != 1_750_000 {
		t.Fatalf("stages = %v", got.Stages)
	}
	if _, ok := got.Stages["read"]; ok {
		t.Fatalf("zero stages must be omitted, got %v", got.Stages)
	}

	// Bad ?n= is a 400, and the slow endpoint serves the slow ring.
	if resp, err := srv.Client().Get(srv.URL + "?n=bogus"); err != nil || resp.StatusCode != 400 {
		t.Fatalf("bad n: resp=%v err=%v", resp, err)
	} else {
		resp.Body.Close()
	}
	slowSrv := httptest.NewServer(rec.SlowHandler())
	defer slowSrv.Close()
	resp2, err := slowSrv.Client().Get(slowSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var slowDump struct {
		Traces []struct {
			ID uint64 `json:"id"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&slowDump); err != nil {
		t.Fatal(err)
	}
	if len(slowDump.Traces) != 1 || slowDump.Traces[0].ID != 9 {
		t.Fatalf("/traces/slow = %+v", slowDump)
	}
}

func BenchmarkTraceFinish(b *testing.B) {
	rec := NewRecorder(4096, DefaultSlowThreshold)
	reg := metrics.NewRegistry()
	rec.BindMetrics(reg)
	th := rec.TenantHistogram("db0")
	var tr Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		tr.ID = uint64(i)
		tr.Tenant = "db0"
		tr.Stamp(StageRead, 800)
		tr.Stamp(StageDecode, 1_200)
		tr.Stamp(StageArena, 10_000)
		tr.Stamp(StageEncode, 900)
		tr.Stamp(StageWrite, 700)
		tr.TotalNS = tr.StagesTotal()
		rec.Finish(&tr, th)
	}
}
