package harness

import (
	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/rng"
)

// NewEngineBenchFixture builds the one standard engine-benchmark
// workload — a 4 KiB database and a 32-bit byte-aligned seeded-match
// query — shared by the in-tree BenchmarkEngine sub-benchmarks and the
// fixture-level tests, so they stay measurements of the same thing.
func NewEngineBenchFixture() (core.Config, *core.EncryptedDB, *core.Query, error) {
	return newEngineBenchFixtureSized(4096)
}

// NewEngineBenchLargeFixture builds the large engine-benchmark
// workload: the same query over a 128 KiB database — 64 chunks, a
// 1 MiB ciphertext arena — so engine comparisons also cover the
// memory-resident regime where parallel fan-out pays for itself.
func NewEngineBenchLargeFixture() (core.Config, *core.EncryptedDB, *core.Query, error) {
	return newEngineBenchFixtureSized(128 << 10)
}

func newEngineBenchFixtureSized(dbBytes int) (core.Config, *core.EncryptedDB, *core.Query, error) {
	cfg := core.Config{Params: bfv.ParamsPaper(), AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("engine-bench"))
	if err != nil {
		return cfg, nil, nil, err
	}
	data := make([]byte, dbBytes)
	rng.NewSourceFromString("engine-bench-data").Bytes(data)
	db, err := client.EncryptDatabase(data, len(data)*8)
	if err != nil {
		return cfg, nil, nil, err
	}
	q, err := client.PrepareQuery([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 32, len(data)*8)
	if err != nil {
		return cfg, nil, nil, err
	}
	return cfg, db, q, nil
}
