// Package pum is a SIMDRAM-style processing-using-memory simulator [49],
// the substrate of the paper's CM-PuM (external DDR4) and CM-PuM-SSD
// (SSD-internal LPDDR4) comparison points (§5.2).
//
// SIMDRAM computes bulk bitwise operations with charge-sharing
// triple-row activation: the fundamental primitives are MAJ3 (majority of
// three rows), NOT (via dual-contact cells) and RowClone copies. Every such
// bulk operation processes an entire DRAM row (8 KiB = 65536 bit lanes) in
// Tbbop = 49 ns and Ebbop = 0.864 nJ (Table 3). Addition is bit-serial
// over vertically transposed operands, exactly as in the flash adder, with
// a majority-based full adder.
package pum

import "time"

// Config describes a PuM-capable DRAM device.
type Config struct {
	Name          string
	CapacityBytes int64
	Channels      int
	Ranks         int
	BanksPerRank  int
	RowBytes      int
	// Tbbop is the latency of one bulk bitwise operation (triple-row
	// activation sequence).
	Tbbop time.Duration
	// Ebbop is the energy of one bulk bitwise operation.
	Ebbop float64
}

// ExternalDDR4 returns the CM-PuM configuration of Table 3: 32 GB
// DDR4-2400, 4 channels × 1 rank × 16 banks, 19.2 GB/s.
func ExternalDDR4() Config {
	return Config{
		Name:          "DDR4-2400 (external)",
		CapacityBytes: 32 << 30,
		Channels:      4,
		Ranks:         1,
		BanksPerRank:  16,
		RowBytes:      8192,
		Tbbop:         49 * time.Nanosecond,
		Ebbop:         0.864e-9,
	}
}

// InternalLPDDR4 returns the CM-PuM-SSD configuration of Table 3: 2 GB
// LPDDR4-1866 inside the SSD, 1 channel × 1 rank × 8 banks. Tbbop is the
// DDR4-2400 value derated by the clock ratio 2400/1866 ≈ 1.29 (bulk ops
// are activation-timing bound).
func InternalLPDDR4() Config {
	return Config{
		Name:          "LPDDR4-1866 (SSD-internal)",
		CapacityBytes: 2 << 30,
		Channels:      1,
		Ranks:         1,
		BanksPerRank:  8,
		RowBytes:      8192,
		Tbbop:         63 * time.Nanosecond,
		Ebbop:         0.864e-9,
	}
}

// RowBits returns the bit lanes per row.
func (c Config) RowBits() int { return c.RowBytes * 8 }

// ParallelBanks returns the number of banks that can execute bulk ops
// concurrently — the array-level parallelism of the device.
func (c Config) ParallelBanks() int { return c.Channels * c.Ranks * c.BanksPerRank }

// Full-adder microprogram costs, derived in add.go:
//
//	Cout = MAJ(A, B, Cin)
//	S    = MAJ(NOT(Cout), MAJ(A, B, NOT(Cin)), Cin)
//
// per bit: 3 MAJ + 2 NOT = 5 bulk ops, plus 3 RowClone copies to stage
// operands into the compute rows and write the sum back.
const (
	// AddBbopsPerBit is the number of MAJ/NOT bulk operations per bit of
	// bit-serial addition.
	AddBbopsPerBit = 5
	// AddRowClonesPerBit is the number of RowClone copies per bit.
	AddRowClonesPerBit = 3
)

// Add32Latency returns the latency of one 32-bit bit-serial addition
// across a full row of lanes (every lane adds independently).
func (c Config) Add32Latency() time.Duration {
	return time.Duration(32*(AddBbopsPerBit+AddRowClonesPerBit)) * c.Tbbop
}

// Add32Energy returns the energy of one 32-bit row-wide addition.
func (c Config) Add32Energy() float64 {
	return 32 * (AddBbopsPerBit + AddRowClonesPerBit) * c.Ebbop
}
