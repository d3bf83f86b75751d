package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary (the program itself is not
// instrumented; that is ROADMAP item 5). Parent is the ID of the span
// that caused it, -1 for a root; spans of one operation share Op.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced phases run. It is not
// safe for concurrent use: each connection's loop gets its own (fork),
// merged after the loop has been joined.
type recorder struct {
	epoch time.Time
	spans []span
	base  int // ID offset, so forks mint disjoint IDs
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// idStride separates the ID ranges of forked recorders.
const idStride = 1 << 24

func (r *recorder) fork(i int) *recorder {
	if r == nil {
		return nil
	}
	return &recorder{epoch: r.epoch, base: (i + 1) * idStride}
}

func (r *recorder) merge(o *recorder) {
	if r != nil && o != nil {
		r.spans = append(r.spans, o.spans...)
	}
}

// begin opens a span and returns its ID (-1 when not recording).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	id := r.base + len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Op: op,
		StartNS: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-r.base].EndNS = int64(time.Since(r.epoch))
}

// durationsMS returns every finished span of that name, in milliseconds.
func (r *recorder) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
