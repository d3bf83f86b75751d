package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("queries_total") != c {
		t.Fatal("get-or-create returned a different counter for the same name")
	}
	g := r.Gauge("window_ns")
	g.Set(250)
	g.Set(200)
	if got := g.Load(); got != 200 {
		t.Fatalf("gauge = %d, want 200", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	// 90 samples near 100, 10 near 100000: p50 must land in the small
	// cluster's bucket, p99 in the large one. Bounds are bucket upper
	// edges (power-of-two), so assert ranges, not exact values.
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 90*100+10*100000 {
		t.Fatalf("sum = %d", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < 100 || p50 > 256 {
		t.Fatalf("p50 = %d, want within [100, 256]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 100000 || p99 > 1<<17 {
		t.Fatalf("p99 = %d, want within [100000, 131072]", p99)
	}
	if h.Max() != 100000 {
		t.Fatalf("max = %d", h.Max())
	}
	// Quantiles never exceed the observed max.
	if h.Quantile(1.0) != 100000 {
		t.Fatalf("p100 = %d", h.Quantile(1.0))
	}
	h.Observe(0) // non-positive samples land in bucket 0
	if h.Quantile(0.001) != 0 {
		t.Fatalf("quantile floor = %d, want 0", h.Quantile(0.001))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d, want 1000", h.Max())
	}
}

func TestSnapshotSortedAndFlattened(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Histogram("lat_ns").Observe(7)
	kvs := r.Snapshot()
	for i := 1; i < len(kvs); i++ {
		if kvs[i-1].Name >= kvs[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", kvs[i-1].Name, kvs[i].Name)
		}
	}
	if v, ok := Lookup(kvs, "a_total"); !ok || v != 1 {
		t.Fatalf("a_total = %d (%v)", v, ok)
	}
	if v, ok := Lookup(kvs, "lat_ns_count"); !ok || v != 1 {
		t.Fatalf("lat_ns_count = %d (%v)", v, ok)
	}
	if _, ok := Lookup(kvs, "lat_ns_p99"); !ok {
		t.Fatal("snapshot missing histogram percentile entry")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries_total").Add(3)
	r.Gauge("queue_depth").Set(150)
	r.Histogram("queue_wait_ns").Observe(42)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE queries_total counter\nqueries_total 3\n",
		"# TYPE queue_depth gauge\nqueue_depth 150\n",
		"# TYPE queue_wait_ns histogram\n",
		`queue_wait_ns_bucket{le="63"} 1`, // 42 has bitlen 6 → bucket [32,64)
		`queue_wait_ns_bucket{le="+Inf"} 1`,
		"queue_wait_ns_sum 42\n",
		"queue_wait_ns_count 1\n",
		"queue_wait_ns_p99 ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	h.Observe(1)   // bucket 1, le=1
	h.Observe(3)   // bucket 2, le=3
	h.Observe(3)   // bucket 2
	h.Observe(100) // bucket 7, le=127
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Buckets must be cumulative, cover every bucket up to the highest
	// occupied one (empty intermediates included), and end at +Inf with
	// the total count.
	for _, want := range []string{
		`lat_ns_bucket{le="1"} 1`,
		`lat_ns_bucket{le="3"} 3`,
		`lat_ns_bucket{le="7"} 3`,
		`lat_ns_bucket{le="15"} 3`,
		`lat_ns_bucket{le="127"} 4`,
		`lat_ns_bucket{le="+Inf"} 4`,
		"lat_ns_sum 107\n",
		"lat_ns_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative counts must be monotonically non-decreasing in le order
	// (this is what Prometheus histogram_quantile requires).
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_ns_bucket{") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("unparsable bucket line %q", line)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	qv := r.CounterVec("tenant_queries_total", "db")
	qv.With("alpha").Add(5)
	qv.With("beta").Inc()
	if qv.With("alpha") != qv.With("alpha") {
		t.Fatal("With must return a stable child")
	}
	r.GaugeVec("tenant_queue_depth", "db").With("alpha").Set(3)
	hv := r.HistogramVec("stage_latency_ns", "stage")
	hv.With("arena").Observe(1000)
	hv.With("decode").Observe(10)

	kvs := r.Snapshot()
	if v, ok := Lookup(kvs, `tenant_queries_total{db="alpha"}`); !ok || v != 5 {
		t.Fatalf(`tenant_queries_total{db="alpha"} = %d (%v)`, v, ok)
	}
	if v, ok := Lookup(kvs, `tenant_queue_depth{db="alpha"}`); !ok || v != 3 {
		t.Fatalf("labeled gauge = %d (%v)", v, ok)
	}
	if v, ok := Lookup(kvs, `stage_latency_ns_count{stage="arena"}`); !ok || v != 1 {
		t.Fatalf("labeled hist count = %d (%v)", v, ok)
	}
	if _, ok := Lookup(kvs, `stage_latency_ns_p95{stage="decode"}`); !ok {
		t.Fatal("labeled hist percentile missing from snapshot")
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE tenant_queries_total counter\n",
		`tenant_queries_total{db="alpha"} 5`,
		`tenant_queries_total{db="beta"} 1`,
		`tenant_queue_depth{db="alpha"} 3`,
		"# TYPE stage_latency_ns histogram\n",
		`stage_latency_ns_bucket{stage="arena",le="+Inf"} 1`,
		`stage_latency_ns_sum{stage="arena"} 1000`,
		`stage_latency_ns_count{stage="decode"} 1`,
		`stage_latency_ns_p50{stage="decode"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The TYPE header must appear once per family, not once per child.
	if strings.Count(out, "# TYPE tenant_queries_total counter") != 1 {
		t.Fatalf("duplicate TYPE headers:\n%s", out)
	}
}

func TestVecKeyConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("x_total", "db")
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting label key must panic")
		}
	}()
	r.CounterVec("x_total", "stage")
}

func TestLabelEscaping(t *testing.T) {
	got := labeledName("m", "db", "a\\b\"c\nd")
	want := `m{db="a\\b\"c\nd"}`
	if got != want {
		t.Fatalf("labeledName = %q, want %q", got, want)
	}
	if escapeLabelValue("plain") != "plain" {
		t.Fatal("plain values must pass through unchanged")
	}
}

func TestBucketUpper(t *testing.T) {
	if BucketUpper(0) != 0 || BucketUpper(1) != 1 || BucketUpper(7) != 127 {
		t.Fatalf("BucketUpper wrong: %d %d %d", BucketUpper(0), BucketUpper(1), BucketUpper(7))
	}
	if BucketUpper(63) != math.MaxInt64 {
		t.Fatalf("BucketUpper(63) = %d", BucketUpper(63))
	}
}

func TestOnCollectAndRuntime(t *testing.T) {
	r := NewRegistry()
	calls := 0
	g := r.Gauge("pull_me")
	r.OnCollect(func() { calls++; g.Set(int64(calls)) })
	kvs := r.Snapshot()
	if v, _ := Lookup(kvs, "pull_me"); v != 1 {
		t.Fatalf("collect hook did not run before snapshot: %d", v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("collect hook ran %d times, want 2", calls)
	}

	RegisterRuntime(r)
	kvs = r.Snapshot()
	if v, ok := Lookup(kvs, "go_goroutines"); !ok || v < 1 {
		t.Fatalf("go_goroutines = %d (%v)", v, ok)
	}
	if v, ok := Lookup(kvs, "go_heap_alloc_bytes"); !ok || v <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %d (%v)", v, ok)
	}
}
