// Package ssd models the CIPHERMATCH-enabled SSD of §4.3.2: the
// CIPHERMATCH region (vertical layout, SLC+ESP mode) that holds half of
// every plane's blocks, the software- and hardware-based data
// transposition units, the index generation unit, and the host commands
// CM-write and CM-search that dispatch the bop_add µ-program across
// planes. The paper's CM-read (reading a chunk back out of the vertical
// layout) is not simulated: nothing reads it. The other half of each
// plane stays TLC and is not simulated beyond its block mode.
//
// The model is functional — CM-search executes real homomorphic additions
// through the flash latch simulator and produces byte-identical results to
// the software evaluator (tested against internal/core) — and it accounts
// latency/energy per Table 3 for the performance model.
package ssd

import (
	"time"

	"ciphermatch/internal/flash"
)

// Config holds the SSD-level parameters of Table 3 and §4.3.2/§7.1.
type Config struct {
	Geometry flash.Geometry
	Timing   flash.Timing
	Energy   flash.Energy

	// ChannelBandwidth is the per-channel NAND IO rate (1.2 GB/s).
	ChannelBandwidth float64

	// SoftTransposeLatency is the software transposition-unit latency per
	// 4 KiB page on the controller cores (13.6 µs, §4.3.2); it is hidden
	// under the 22.5 µs flash read when pipelined.
	SoftTransposeLatency time.Duration
	// HardTransposeLatency is the dedicated hardware unit's latency per
	// 4 KiB page (158 ns, §7.1).
	HardTransposeLatency time.Duration
	// IndexGenLatency is the index-generation latency per page on the
	// controller (3.42 µs, §4.3.2), overlapped with sequential reads.
	IndexGenLatency time.Duration
}

// DefaultConfig returns the Table 3 SSD configuration.
func DefaultConfig() Config {
	return Config{
		Geometry:             flash.DefaultGeometry(),
		Timing:               flash.DefaultTiming(),
		Energy:               flash.DefaultEnergy(),
		ChannelBandwidth:     1.2e9,
		SoftTransposeLatency: 13600 * time.Nanosecond,
		HardTransposeLatency: 158 * time.Nanosecond,
		IndexGenLatency:      3420 * time.Nanosecond,
	}
}

// TestConfig returns a small configuration for unit tests: 512-byte pages
// (4096 bitlines) and few blocks, with the real latency constants.
func TestConfig() Config {
	c := DefaultConfig()
	c.Geometry.PageBytes = 512
	c.Geometry.BlocksPerPlane = 16
	c.Geometry.Channels = 2
	c.Geometry.DiesPerChan = 2
	c.Geometry.PlanesPerDie = 2
	return c
}

// TranspositionKind selects the data transposition unit implementation.
type TranspositionKind int

const (
	// SoftwareTransposition runs on the controller cores (13.6 µs / 4 KiB,
	// hideable under flash reads). This is the paper's default (§4.3.2).
	SoftwareTransposition TranspositionKind = iota
	// HardwareTransposition is the dedicated unit of §7.1 (158 ns / 4 KiB,
	// 0.24 mm²), motivated by low-latency Z-NAND.
	HardwareTransposition
)

// TransposeLatency returns the per-page latency of the selected unit,
// scaled from the 4 KiB reference to the configured page size.
func (c Config) TransposeLatency(kind TranspositionKind) time.Duration {
	base := c.SoftTransposeLatency
	if kind == HardwareTransposition {
		base = c.HardTransposeLatency
	}
	return time.Duration(float64(base) * float64(c.Geometry.PageBytes) / 4096)
}
