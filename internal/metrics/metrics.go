// Package metrics is a small, dependency-free serving-metrics toolkit
// for the CIPHERMATCH server: lock-free atomic counters and gauges plus
// power-of-two-bucketed histograms, collected in a Registry that renders
// either a flat name/value snapshot (the MsgStats wire reply) or
// Prometheus-style text exposition (the cmserver /metrics endpoint).
//
// The hot-path cost of recording is one or two atomic adds — a search
// under load must never serialise on a metrics mutex. Registration
// (name lookup) is mutex-guarded but callers cache the returned handle,
// so the map is only touched at setup time.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the bucket count of Histogram: bucket i holds samples
// v with bitlen(v) == i, i.e. [2^(i-1), 2^i), with bucket 0 holding
// v <= 0. 64 buckets cover the whole int64 range, so a nanosecond
// latency histogram spans sub-ns to ~292 years with ≤2× resolution.
const histBuckets = 64

// Histogram is a lock-free power-of-two histogram. Observe is two
// atomic adds plus one atomic max; quantiles are approximate (bucket
// upper bound), which is plenty for latency percentiles where the
// interesting signal is orders of magnitude.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Buckets snapshots the per-bucket counts (bucket i holds samples with
// bitlen == i; see histBuckets). The exposition layer folds these into
// cumulative Prometheus _bucket{le=...} samples, and delta consumers
// (the storm report) subtract two snapshots to get interval quantiles.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BucketUpper returns the inclusive upper bound (the Prometheus `le`
// value) of bucket i: 0 for bucket 0 (samples <= 0), else 2^i - 1 —
// exact for integer samples, since bucket i holds [2^(i-1), 2^i).
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return (int64(1) << uint(i)) - 1
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed sample (0 before any Observe).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of the
// observed samples: the upper edge of the bucket the quantile sample
// falls in, clamped to the observed max. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			upper := int64(1) << uint(i)
			if i == 63 || upper <= 0 {
				upper = h.max.Load()
			}
			if m := h.max.Load(); m < upper {
				upper = m
			}
			return upper
		}
	}
	return h.max.Load()
}

// KV is one flattened metric sample of a Registry snapshot — what
// MsgStats ships. Histograms expand to _count/_sum/_max/_p50/_p95/_p99
// entries so the wire stays a flat integer list.
type KV struct {
	Name  string
	Value int64
}

// Registry is a named collection of metrics. Get-or-create lookups are
// mutex-guarded; the returned handles record lock-free.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
	collectors  []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*Histogram),
		counterVecs: make(map[string]*CounterVec),
		gaugeVecs:   make(map[string]*GaugeVec),
		histVecs:    make(map[string]*HistogramVec),
	}
}

// OnCollect registers a hook run before every Snapshot or Prometheus
// exposition — the place to sample values that are pulled, not pushed
// (Go runtime stats, queue depths). Hooks run outside the registry
// lock, in registration order; they should cache their metric handles.
func (r *Registry) OnCollect(f func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// collect runs the registered collect hooks.
func (r *Registry) collect() {
	r.mu.Lock()
	hooks := r.collectors
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// appendHistKVs flattens one histogram under the given sample name.
func appendHistKVs(out []KV, name string, h *Histogram) []KV {
	return append(out,
		KV{name + "_count", h.Count()},
		KV{name + "_sum", h.Sum()},
		KV{name + "_max", h.Max()},
		KV{name + "_p50", h.Quantile(0.50)},
		KV{name + "_p95", h.Quantile(0.95)},
		KV{name + "_p99", h.Quantile(0.99)},
	)
}

// Snapshot flattens every metric into a name-sorted KV list: counters
// and gauges verbatim, histograms as _count/_sum/_max/_p50/_p95/_p99.
// Labeled families flatten with the rendered exposition name as the KV
// key (histogram suffixes go before the braces, so a child sample reads
// stage_latency_ns_p95{stage="arena"} — still one flat string on the
// wire). Collect hooks run first so pulled values are fresh.
func (r *Registry) Snapshot() []KV {
	r.collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]KV, 0, len(r.counters)+len(r.gauges)+6*len(r.hists))
	for name, c := range r.counters {
		out = append(out, KV{name, c.Load()})
	}
	for name, g := range r.gauges {
		out = append(out, KV{name, g.Load()})
	}
	for name, h := range r.hists {
		out = appendHistKVs(out, name, h)
	}
	for name, v := range r.counterVecs {
		for _, ch := range sortedChildren(&v.mu, v.children) {
			out = append(out, KV{labeledName(name, v.key, ch.Value), ch.Child.Load()})
		}
	}
	for name, v := range r.gaugeVecs {
		for _, ch := range sortedChildren(&v.mu, v.children) {
			out = append(out, KV{labeledName(name, v.key, ch.Value), ch.Child.Load()})
		}
	}
	for name, v := range r.histVecs {
		for _, ch := range sortedChildren(&v.mu, v.children) {
			h := ch.Child
			lbl := `{` + v.key + `="` + escapeLabelValue(ch.Value) + `"}`
			out = append(out,
				KV{name + "_count" + lbl, h.Count()},
				KV{name + "_sum" + lbl, h.Sum()},
				KV{name + "_max" + lbl, h.Max()},
				KV{name + "_p50" + lbl, h.Quantile(0.50)},
				KV{name + "_p95" + lbl, h.Quantile(0.95)},
				KV{name + "_p99" + lbl, h.Quantile(0.99)},
			)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the value of one snapshot entry by name.
func Lookup(kvs []KV, name string) (int64, bool) {
	for _, kv := range kvs {
		if kv.Name == name {
			return kv.Value, true
		}
	}
	return 0, false
}

// writeHistProm renders one histogram in real cumulative Prometheus
// histogram form: _bucket{le="..."} samples (le values are the exact
// integer upper bounds of the pow2 buckets, emitted up to the highest
// occupied bucket, then +Inf), _sum and _count, plus _p50/_p95/_p99
// convenience gauges so a human reading the page (or cmtop) gets
// quantiles without running PromQL. labels is either empty or a
// rendered `key="value"` pair to merge into the bucket label set.
func writeHistProm(w io.Writer, name, labels string, h *Histogram) error {
	buckets := h.Buckets()
	top := -1
	for i, c := range buckets {
		if c > 0 {
			top = i
		}
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%d\"} %d\n", name, labels, sep, BucketUpper(i), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.Count()); err != nil {
		return err
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", name, suffix, h.Sum(), name, suffix, h.Count()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_p50%s %d\n%s_p95%s %d\n%s_p99%s %d\n",
		name, suffix, h.Quantile(0.50), name, suffix, h.Quantile(0.95), name, suffix, h.Quantile(0.99))
	return err
}

// WritePrometheus renders the registry in Prometheus text exposition
// format: counters and gauges as bare samples (labeled families as one
// TYPE block with one sample per child), histograms in cumulative
// _bucket{le=...} form with _sum/_count and _p50/_p95/_p99 lines.
// Collect hooks run first so pulled values are fresh.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.collect()
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	counterVecs := make(map[string]*CounterVec, len(r.counterVecs))
	for k, v := range r.counterVecs {
		counterVecs[k] = v
	}
	gaugeVecs := make(map[string]*GaugeVec, len(r.gaugeVecs))
	for k, v := range r.gaugeVecs {
		gaugeVecs[k] = v
	}
	histVecs := make(map[string]*HistogramVec, len(r.histVecs))
	for k, v := range r.histVecs {
		histVecs[k] = v
	}
	r.mu.Unlock()

	for _, name := range sortedNames(counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, counters[name].Load()); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(counterVecs) {
		v := counterVecs[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", name); err != nil {
			return err
		}
		for _, ch := range sortedChildren(&v.mu, v.children) {
			if _, err := fmt.Fprintf(w, "%s %d\n", labeledName(name, v.key, ch.Value), ch.Child.Load()); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedNames(gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, gauges[name].Load()); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(gaugeVecs) {
		v := gaugeVecs[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
			return err
		}
		for _, ch := range sortedChildren(&v.mu, v.children) {
			if _, err := fmt.Fprintf(w, "%s %d\n", labeledName(name, v.key, ch.Value), ch.Child.Load()); err != nil {
				return err
			}
		}
	}
	for _, name := range sortedNames(hists) {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		if err := writeHistProm(w, name, "", hists[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(histVecs) {
		v := histVecs[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		for _, ch := range sortedChildren(&v.mu, v.children) {
			labels := v.key + `="` + escapeLabelValue(ch.Value) + `"`
			if err := writeHistProm(w, name, labels, ch.Child); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Handler returns an http.Handler serving the Prometheus exposition —
// what cmserver mounts at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
