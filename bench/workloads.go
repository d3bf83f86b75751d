package main

import (
	"fmt"
	"time"

	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/proto"
	"ciphermatch/internal/rng"
)

// workloadSpec is one traffic mix: the fixture geometry, how the server
// is configured for it and how load is applied. Sizes are plaintext
// bytes per tenant; the ciphertext arena is 8x that (chunks x 2 planes
// x 1024 x 8 B).
type workloadSpec struct {
	name string
	why  string // one line, goes into BENCHMARK.json

	tenants     int
	tenantBytes int // full scale
	tinyBytes   int // -scale tiny, the smoke test's fixture
	alignBits   int
	patternBits int
	patterns    int   // prepared payloads per searched tenant
	weights     []int // draw weights over the payload set; nil = round-robin

	engine       core.EngineSpec
	durable      bool
	budgetArenas float64 // MemBudget in arenas; 0 = unlimited
	coalesce     proto.CoalesceConfig

	conns  int  // closed-loop client connections in steady
	ingest bool // connection 0 uploads/drops tenant 1 while connection 1 searches tenant 0
	plant  bool // copy each pattern to a second place, so it occurs twice
}

var workloads = []workloadSpec{
	{
		name:    "dna_scan",
		why:     "one 4 MiB genome, 2-bit aligned (32 residues), serial engine, 1 conn: ring kernel and core.Candidates dominate, rpc/store/segment are bypassed",
		tenants: 1, tenantBytes: 4 << 20, tinyBytes: 8 << 10,
		alignBits: 2, patternBits: 64, patterns: 4, plant: true,
		conns: 1,
	},
	{
		name:    "records_storm",
		why:     "32 KiB cache-resident records, 2 conns on one DB, skewed keys, 2 ms coalescing window: rpc, coalescer dedup and wire decode dominate, the kernel is bypassed",
		tenants: 1, tenantBytes: 32 << 10, tinyBytes: 4 << 10,
		alignBits: 8, patternBits: 64, patterns: 4, weights: []int{70, 10, 10, 10},
		coalesce: proto.CoalesceConfig{Window: 2 * time.Millisecond, MaxBatch: 2},
		conns:    2,
	},
	{
		name:    "tenants_cold",
		why:     "4 tenants x 4 MiB on a durable store with a 1.5-arena budget, pool:2 engine, 1 conn cycling tenants: every search evicts and reloads, so segment/store and DRAM-cold streaming dominate",
		tenants: 4, tenantBytes: 4 << 20, tinyBytes: 8 << 10,
		alignBits: 8, patternBits: 64, patterns: 1,
		engine:  core.EngineSpec{Kind: core.EnginePool, Workers: 2},
		durable: true, budgetArenas: 1.5,
		conns: 1,
	},
	{
		name:    "ingest_mix",
		why:     "2 tenants x 1 MiB on a durable store: conn A uploads a new version and drops the old while conn B searches the other tenant, so ingest and reads share store/segment/wire",
		tenants: 2, tenantBytes: 1 << 20, tinyBytes: 4 << 10,
		alignBits: 8, patternBits: 64, patterns: 4,
		durable: true,
		conns:   2, ingest: true,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func (s workloadSpec) bytesAt(scale string) int {
	if scale == scaleTiny {
		return s.tinyBytes
	}
	return s.tenantBytes
}

// pattern is one plaintext query with its ground truth.
type pattern struct {
	bytes []byte
	bits  int
	truth []int // core.DetectableOccurrences over the tenant's plaintext
}

// copyBits copies n bits (MSB-first) from src at srcOff to dst at dstOff.
func copyBits(dst []byte, dstOff int, src []byte, srcOff, n int) {
	for i := 0; i < n; i++ {
		mathutil.SetBit(dst, dstOff+i, mathutil.GetBit(src, srcOff+i))
	}
}

// drawPattern cuts a patternBits-long query out of data at a random
// aligned offset. Random 64-bit windows of random data are unique with
// overwhelming probability, so a drawn pattern has exactly the
// occurrences the generator gave it.
func drawPattern(data []byte, spec workloadSpec, src *rng.Source) []byte {
	pat := make([]byte, (spec.patternBits+7)/8)
	copyBits(pat, 0, data, randomOffset(data, spec, src), spec.patternBits)
	return pat
}

// randomOffset picks an aligned bit offset at which a pattern fits.
func randomOffset(data []byte, spec workloadSpec, src *rng.Source) int {
	slots := (len(data)*8 - spec.patternBits) / spec.alignBits
	return src.Intn(slots) * spec.alignBits
}

// tenantSource derives the generator stream for one tenant of one run.
func tenantSource(seed int64, workload string, tenant int, domain string) *rng.Source {
	return rng.NewSourceFromString(fmt.Sprintf("bench/%d/%s/%d/%s", seed, workload, tenant, domain))
}

// generateTenant makes tenant i's plaintext and its steady-phase
// patterns from the seed: random bytes (for dna_scan, a random 2-bit
// packed genome), with each pattern optionally planted a second time.
func generateTenant(spec workloadSpec, scale string, seed int64, i int) (data []byte, pats []pattern) {
	data = make([]byte, spec.bytesAt(scale))
	tenantSource(seed, spec.name, i, "data").Bytes(data)
	if spec.ingest && i > 0 { // written, never searched
		return data, nil
	}
	src := tenantSource(seed, spec.name, i, "patterns")
	for k := 0; k < spec.patterns; k++ {
		pat := drawPattern(data, spec, src)
		if spec.plant {
			copyBits(data, randomOffset(data, spec, src), pat, 0, spec.patternBits)
		}
		pats = append(pats, pattern{bytes: pat, bits: spec.patternBits})
	}
	// Ground truth after all planting: a later plant may overwrite an
	// earlier pattern's source.
	for k := range pats {
		pats[k].truth = core.DetectableOccurrences(data, len(data)*8, pats[k].bytes, pats[k].bits, spec.alignBits)
	}
	return data, pats
}
