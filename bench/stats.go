package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"ciphermatch/internal/ring"
)

// quantile returns the q-quantile (0..1) of samples by linear
// interpolation between order statistics; 0 for an empty set. The
// slice is sorted in place.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	if lo+1 >= len(samples) {
		return samples[len(samples)-1]
	}
	frac := pos - float64(lo)
	return samples[lo]*(1-frac) + samples[lo+1]*frac
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// tailQuantile picks the highest of the usual tail percentiles that
// still has at least ten samples beyond it, so the printed tail is one
// the sample can support. ok is false below 100 samples (not even p90
// qualifies).
func tailQuantile(samples []float64) (q, value float64, ok bool) {
	for _, q := range []float64{0.9999, 0.999, 0.99, 0.95, 0.90} {
		if float64(len(samples))*(1-q) >= 10 {
			return q, quantile(samples, q), true
		}
	}
	return 0, 0, false
}

// hostFacts is what the numbers of one run depend on besides the code.
type hostFacts struct {
	NProc      int               `json:"nproc"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GOARCH     string            `json:"goarch"`
	Kernel     string            `json:"ring_kernel"`
	Caches     map[string]string `json:"cache_sizes,omitempty"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Kernel:     ring.ActiveKernel().String(),
	}
	// Best effort: sysfs is Linux-only and may be masked in a sandbox.
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		typ, err2 := os.ReadFile(filepath.Join(d, "type"))
		size, err3 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		if h.Caches == nil {
			h.Caches = make(map[string]string)
		}
		key := "L" + strings.TrimSpace(string(level)) + " " + strings.TrimSpace(string(typ))
		h.Caches[key] = strings.TrimSpace(string(size))
	}
	return h
}
