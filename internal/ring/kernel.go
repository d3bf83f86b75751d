package ring

// This file is the kernel dispatch layer of ROADMAP item 1: the hot
// compare kernel SubCmpNarrowBits, the CPU engine's 16-bit compare,
// exists in three implementations behind one API, selected once at
// process start and swappable at runtime for tests and benchmarks:
//
//	generic   the portable path: four 16-bit lanes per uint64 XOR
//	          (SWAR), three-index re-slices so the compiler elides
//	          bounds checks; the only path off amd64
//	avx2      amd64 assembly stage primitives (kernel_amd64.s), 16
//	          narrow lanes per vector op; present only on amd64 with
//	          OS-enabled AVX2
//	avx512    amd64 assembly stage primitives on ZMM registers, 32
//	          narrow lanes per vector op, plus a hit-row pass; present
//	          only with AVX512F+BW and OS-enabled ZMM/opmask state
//
// SubCmpMultiBits, the 64-bit form every path must match record for
// record (FuzzKernelPaths, TestKernelPathsBitIdentical), runs one
// portable loop and ignores the active path.
//
// Selection policy, in order: the CM_KERNEL environment variable
// (generic|avx2|avx512) when set and satisfiable; otherwise
// the most specialised path the CPU and OS support. GODEBUG containing
// cpu.avx2=off disables both assembly paths, and cpu.avx512f=off or
// cpu.avx512bw=off disables avx512, exactly like the stdlib knobs, so
// CI can prove the fallback paths never rot. The active path is a
// process-wide atomic: engines read it per kernel call (one load per
// tile of chunks, noise against the coefficient loop), and tests
// flip it to run the same workload through every implementation.

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// KernelPath identifies one implementation of the hot compare kernel.
type KernelPath uint32

const (
	// KernelGeneric is the portable SWAR kernel, four lanes per word.
	KernelGeneric KernelPath = iota
	// KernelAVX2 is the amd64 assembly narrow kernel (16 lanes per
	// vector op).
	KernelAVX2
	// KernelAVX512 is the amd64 ZMM narrow kernel (32 lanes per vector
	// op, lanes and guard held in registers across comparands).
	KernelAVX512
)

// String returns the CM_KERNEL spelling of the path.
func (p KernelPath) String() string {
	switch p {
	case KernelGeneric:
		return "generic"
	case KernelAVX2:
		return "avx2"
	case KernelAVX512:
		return "avx512"
	}
	return fmt.Sprintf("kernel(%d)", uint32(p))
}

// ParseKernelPath maps a CM_KERNEL value to its path.
func ParseKernelPath(s string) (KernelPath, error) {
	switch s {
	case "generic":
		return KernelGeneric, nil
	case "avx2":
		return KernelAVX2, nil
	case "avx512":
		return KernelAVX512, nil
	}
	return 0, fmt.Errorf("ring: unknown kernel path %q (want generic, avx2 or avx512)", s)
}

var (
	// avx2Supported and avx512Supported are fixed at init: CPU + OS
	// support, minus the GODEBUG escape hatches.
	avx2Supported, avx512Supported bool
	// activeKernel holds the KernelPath SubCmpNarrowBits dispatches
	// on.
	activeKernel atomic.Uint32
	// kernelNote records a CM_KERNEL value that could not be honored,
	// for CLIs to surface (a library init has no business printing).
	kernelNote string
)

func init() {
	godebug := os.Getenv("GODEBUG")
	avx2Supported = archAVX2Supported() && !godebugDisables(godebug, "avx2")
	avx512Supported = avx2Supported && archAVX512Supported() && !godebugDisables(godebug, "avx512f", "avx512bw")
	avail := AvailableKernels()
	p := avail[len(avail)-1]
	if env := os.Getenv("CM_KERNEL"); env != "" {
		switch forced, err := ParseKernelPath(env); {
		case err != nil:
			kernelNote = fmt.Sprintf("ignoring CM_KERNEL=%q: unknown path, using %s", env, p)
		case !kernelSupported(forced):
			kernelNote = fmt.Sprintf("CM_KERNEL=%s requested but unavailable (CPU, OS or GODEBUG); using %s", forced, p)
		default:
			p = forced
		}
	}
	activeKernel.Store(uint32(p))
}

// godebugDisables reports whether a GODEBUG value turns off any of the
// named internal/cpu options (cpu.<opt>=off) — honored here exactly
// like the stdlib honors them, so one knob degrades both.
func godebugDisables(godebug string, opts ...string) bool {
	for _, kv := range strings.Split(godebug, ",") {
		for _, opt := range opts {
			if strings.TrimSpace(kv) == "cpu."+opt+"=off" {
				return true
			}
		}
	}
	return false
}

// kernelSupported reports whether path p can run on this process.
func kernelSupported(p KernelPath) bool {
	switch p {
	case KernelGeneric:
		return true
	case KernelAVX2:
		return avx2Supported
	case KernelAVX512:
		return avx512Supported
	}
	return false
}

// ActiveKernel returns the kernel path searches currently dispatch to.
func ActiveKernel() KernelPath { return KernelPath(activeKernel.Load()) }

// KernelInitNote returns a human-readable note when an explicit
// CM_KERNEL request could not be honored at init, and "" otherwise.
// CLIs print it; the library itself stays silent.
func KernelInitNote() string { return kernelNote }

// SetKernel switches the process-wide kernel path. Selecting an
// assembly path on a machine without it is refused, so a successful
// SetKernel means subsequent searches really run the named
// implementation.
func SetKernel(p KernelPath) error {
	if !kernelSupported(p) {
		if p > KernelAVX512 {
			return fmt.Errorf("ring: unknown kernel path %d", uint32(p))
		}
		return fmt.Errorf("ring: kernel path %s is not available on this machine", p)
	}
	activeKernel.Store(uint32(p))
	return nil
}

// AvailableKernels lists the paths SetKernel would accept on this
// machine, in ascending specialisation order.
func AvailableKernels() []KernelPath {
	var out []KernelPath
	for p := KernelGeneric; p <= KernelAVX512; p++ {
		if kernelSupported(p) {
			out = append(out, p)
		}
	}
	return out
}
