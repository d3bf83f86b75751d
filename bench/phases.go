package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"ciphermatch/internal/core"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/rng"
)

// opCounts tallies operations. A wrong, errored, rejected or timed-out
// operation is failed: it is counted here and left out of the latency
// samples.
type opCounts struct {
	attempted, failed int
}

func (a *opCounts) add(b opCounts) {
	a.attempted += b.attempted
	a.failed += b.failed
}

// settleHeap collects the previous phase's garbage before a timed phase
// starts, as testing.B does before a benchmark run: the server shares
// this process's heap, and without it a phase inherits whatever pacer
// state set-up or the phase before happened to leave.
func settleHeap() { runtime.GC() }

// steadyResult is what one closed-loop steady phase measured.
type steadyResult struct {
	searchMS []float64 // prepared payload sent -> verified offsets, correct ops only
	uploadMS []float64 // ingest_mix only: UploadDB call -> ack
	ops      opCounts
	elapsed  time.Duration
	before   []metrics.KV // Conn.ServerStats bracketing the phase
	after    []metrics.KV
}

// pickPayload returns which of n payloads operation k sends: round-robin,
// or a seeded weighted draw when the workload skews its keys.
func pickPayload(spec workloadSpec, k, n int, src *rng.Source) int {
	if spec.weights == nil {
		return k % n
	}
	total := 0
	for _, w := range spec.weights {
		total += w
	}
	r := src.Intn(total)
	for i, w := range spec.weights {
		if r < w {
			return i
		}
		r -= w
	}
	return n - 1
}

// steady runs the closed loop for dur: every connection sends its next
// request only when the previous reply has been verified. rec is nil
// for the untraced phase.
func steady(ctx context.Context, f *fixture, dur time.Duration, rec *recorder) (*steadyResult, error) {
	settleHeap()
	res := &steadyResult{}
	var err error
	if res.before, err = f.conns[0].ServerStats(); err != nil {
		return nil, fmt.Errorf("server stats: %w", err)
	}
	type connResult struct {
		searchMS, uploadMS []float64
		ops                opCounts
		rec                *recorder
	}
	results := make([]connResult, len(f.conns))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for ci, c := range f.conns {
		wg.Add(1)
		go func(ci int, c *clientConn) {
			defer wg.Done()
			r := &results[ci]
			r.rec = rec.fork(ci)
			if f.spec.ingest && ci == 0 {
				r.uploadMS, r.ops = ingestLoop(ctx, f, c, deadline)
				return
			}
			src := rng.NewSourceFromString(fmt.Sprintf("bench/%d/%s/conn%d", f.seed, f.spec.name, ci))
			// The connection walks tenants round-robin (one tenant
			// unless the workload cycles them) and payloads within.
			targets := f.searchedTenants()
			for k := 0; ctx.Err() == nil && time.Now().Before(deadline); k++ {
				t := targets[k%len(targets)]
				pi := pickPayload(f.spec, k/len(targets), len(t.payloads), src)
				t0 := time.Now()
				ok, err := f.searchPrepared(c, t, pi, r.rec, ci<<32|k)
				ms := float64(time.Since(t0)) / 1e6
				r.ops.attempted++
				if err != nil || !ok {
					r.ops.failed++
					continue
				}
				r.searchMS = append(r.searchMS, ms)
			}
		}(ci, c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range results {
		res.searchMS = append(res.searchMS, results[i].searchMS...)
		res.uploadMS = append(res.uploadMS, results[i].uploadMS...)
		res.ops.add(results[i].ops)
		rec.merge(results[i].rec)
	}
	if res.after, err = f.conns[0].ServerStats(); err != nil {
		return nil, fmt.Errorf("server stats: %w", err)
	}
	return res, nil
}

// ingestLoop is ingest_mix's writer: upload tenant 1's next version
// under the other of two names, then drop the old one.
func ingestLoop(ctx context.Context, f *fixture, c *clientConn, deadline time.Time) (uploadMS []float64, ops opCounts) {
	w := f.tenants[1]
	names := [2]string{w.name, w.name + ".next"}
	for ; ctx.Err() == nil && time.Now().Before(deadline); f.versions++ {
		live := f.versions % 2
		t0 := time.Now()
		err := c.UploadDB(names[1-live], f.spec.engine, w.db)
		ms := float64(time.Since(t0)) / 1e6
		if err == nil {
			err = c.DropDB(names[live])
		}
		ops.attempted++
		if err != nil {
			ops.failed++
			continue
		}
		uploadMS = append(uploadMS, ms)
	}
	return uploadMS, ops
}

// fresh is the data owner's un-amortised path on one connection, with
// nothing precomputed: plaintext pattern -> PrepareQuery -> encode ->
// round trip -> decode -> verify. It runs until both minOps and minDur
// are met. Ground truth is computed outside the timed section.
func fresh(ctx context.Context, f *fixture, minOps int, minDur time.Duration) (freshMS []float64, ops opCounts, err error) {
	settleHeap()
	c := f.conns[len(f.conns)-1]
	src := rng.NewSourceFromString(fmt.Sprintf("bench/%d/%s/fresh", f.seed, f.spec.name))
	start := time.Now()
	for k := 0; k < minOps || time.Since(start) < minDur; k++ {
		if err := ctx.Err(); err != nil {
			return nil, ops, err
		}
		targets := f.searchedTenants()
		t := targets[k%len(targets)]
		pat := drawPattern(t.data, f.spec, src)
		t0 := time.Now()
		got, err := freshSearch(c, t, pat, f.spec.patternBits)
		ms := float64(time.Since(t0)) / 1e6
		ops.attempted++
		truth := core.DetectableOccurrences(t.data, t.bits(), pat, f.spec.patternBits, f.spec.alignBits)
		if err != nil || !slices.Equal(got, truth) {
			ops.failed++
			continue
		}
		freshMS = append(freshMS, ms)
	}
	return freshMS, ops, nil
}

func freshSearch(c *clientConn, t *tenant, pat []byte, bits int) ([]int, error) {
	q, err := t.client.PrepareQuery(pat, bits, t.bits())
	if err != nil {
		return nil, err
	}
	cands, err := c.Search(t.name, q)
	if err != nil {
		return nil, err
	}
	return core.VerifyCandidates(t.data, t.bits(), pat, bits, cands), nil
}

// uploadProbe times uploads of a scratch tenant the size of tenant 0
// (dropped again, untimed, after each), until both minCycles and minDur
// are met: what UploadDB costs on workloads whose steady phase does not
// upload. The first probeWarmCycles are checked but not timed: upload
// latency falls by a quarter over the first cycles while the heap grows
// to hold the transient arena copies, and the median over that slope
// differed by 12 % between runs.
func uploadProbe(ctx context.Context, f *fixture, minCycles int, minDur time.Duration) (uploadMS []float64, ops opCounts, err error) {
	settleHeap()
	c := f.conns[0]
	const scratch = "scratch"
	var start time.Time
	for k := -probeWarmCycles; k < minCycles || time.Since(start) < minDur; k++ {
		if err := ctx.Err(); err != nil {
			return nil, ops, err
		}
		if k == 0 {
			start = time.Now()
		}
		t0 := time.Now()
		err := c.UploadDB(scratch, f.spec.engine, f.tenants[0].db)
		ms := float64(time.Since(t0)) / 1e6
		if err == nil {
			err = c.DropDB(scratch)
		}
		ops.attempted++
		if err != nil {
			ops.failed++
			continue
		}
		if k >= 0 {
			uploadMS = append(uploadMS, ms)
		}
	}
	return uploadMS, ops, nil
}

const probeWarmCycles = 10
