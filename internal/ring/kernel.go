package ring

// This file is the kernel dispatch layer of ROADMAP item 1: the hot
// compare kernels (SubCmpMultiBits, CmpEqScalarBits) exist in three
// implementations behind one API, selected once at process start and
// swappable at runtime for tests and benchmarks:
//
//	generic   the committed portable baseline: word-at-a-time with
//	          range loops — the reference every other path must match
//	          bit for bit (FuzzKernelPaths, TestKernelPathsBitIdentical)
//	unrolled  the multi-lane portable rewrite: 8 coefficients per
//	          iteration with explicit slice re-slicing so the compiler
//	          elides bounds checks, slice headers hoisted out of the
//	          coefficient loops
//	avx2      amd64 assembly block primitives (kernel_amd64.s), 4
//	          coefficient lanes per vector op; present only on amd64
//	          with OS-enabled AVX2
//
// Selection policy, in order: the CM_KERNEL environment variable
// (generic|unrolled|avx2) when set and satisfiable; otherwise avx2
// when the CPU and OS support it; otherwise unrolled. GODEBUG
// containing cpu.avx2=off disables AVX2 exactly like the stdlib knob,
// so CI can prove the fallback paths never rot. The active path is a
// process-wide atomic: engines read it per kernel call (one load per
// streamed polynomial, noise against the coefficient loop), and tests
// flip it to run the same workload through every implementation.

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// KernelPath identifies one implementation of the hot compare kernels.
type KernelPath uint32

const (
	// KernelGeneric is the portable word-at-a-time baseline kernel.
	KernelGeneric KernelPath = iota
	// KernelUnrolled is the multi-lane bounds-check-free portable kernel.
	KernelUnrolled
	// KernelAVX2 is the amd64 assembly kernel (4 lanes per vector op).
	KernelAVX2
)

// String returns the CM_KERNEL spelling of the path.
func (p KernelPath) String() string {
	switch p {
	case KernelGeneric:
		return "generic"
	case KernelUnrolled:
		return "unrolled"
	case KernelAVX2:
		return "avx2"
	}
	return fmt.Sprintf("kernel(%d)", uint32(p))
}

// ParseKernelPath maps a CM_KERNEL value to its path.
func ParseKernelPath(s string) (KernelPath, error) {
	switch s {
	case "generic":
		return KernelGeneric, nil
	case "unrolled":
		return KernelUnrolled, nil
	case "avx2":
		return KernelAVX2, nil
	}
	return 0, fmt.Errorf("ring: unknown kernel path %q (want generic, unrolled or avx2)", s)
}

var (
	// avx2Supported is fixed at init: CPU + OS support, minus the
	// GODEBUG=cpu.avx2=off escape hatch.
	avx2Supported bool
	// activeKernel holds the KernelPath every exported kernel
	// dispatches on.
	activeKernel atomic.Uint32
	// kernelNote records a CM_KERNEL value that could not be honored,
	// for CLIs to surface (a library init has no business printing).
	kernelNote string
)

func init() {
	avx2Supported = archAVX2Supported() && !godebugDisablesAVX2(os.Getenv("GODEBUG"))
	p := KernelUnrolled
	if avx2Supported {
		p = KernelAVX2
	}
	if env := os.Getenv("CM_KERNEL"); env != "" {
		switch forced, err := ParseKernelPath(env); {
		case err != nil:
			kernelNote = fmt.Sprintf("ignoring CM_KERNEL=%q: unknown path, using %s", env, p)
		case forced == KernelAVX2 && !avx2Supported:
			kernelNote = "CM_KERNEL=avx2 requested but AVX2 is unavailable; using " + p.String()
		default:
			p = forced
		}
	}
	activeKernel.Store(uint32(p))
}

// godebugDisablesAVX2 reports whether a GODEBUG value contains
// cpu.avx2=off — honored here exactly like the stdlib honors it for
// internal/cpu, so one knob degrades both.
func godebugDisablesAVX2(godebug string) bool {
	for _, kv := range strings.Split(godebug, ",") {
		if strings.TrimSpace(kv) == "cpu.avx2=off" {
			return true
		}
	}
	return false
}

// ActiveKernel returns the kernel path searches currently dispatch to.
func ActiveKernel() KernelPath { return KernelPath(activeKernel.Load()) }

// AVX2Supported reports whether the avx2 path can be selected on this
// process (CPU feature, OS state support, and no GODEBUG override).
func AVX2Supported() bool { return avx2Supported }

// KernelInitNote returns a human-readable note when an explicit
// CM_KERNEL request could not be honored at init, and "" otherwise.
// CLIs print it; the library itself stays silent.
func KernelInitNote() string { return kernelNote }

// SetKernel switches the process-wide kernel path. Selecting avx2 on a
// machine without it is refused, so a successful SetKernel means
// subsequent searches really run the named implementation.
func SetKernel(p KernelPath) error {
	switch p {
	case KernelGeneric, KernelUnrolled:
	case KernelAVX2:
		if !avx2Supported {
			return fmt.Errorf("ring: kernel path avx2 is not available on this machine")
		}
	default:
		return fmt.Errorf("ring: unknown kernel path %d", uint32(p))
	}
	activeKernel.Store(uint32(p))
	return nil
}

// SetKernelByName is SetKernel on the CM_KERNEL spelling.
func SetKernelByName(name string) error {
	p, err := ParseKernelPath(name)
	if err != nil {
		return err
	}
	return SetKernel(p)
}

// AvailableKernels lists the paths SetKernel would accept on this
// machine, in ascending specialisation order.
func AvailableKernels() []KernelPath {
	out := []KernelPath{KernelGeneric, KernelUnrolled}
	if avx2Supported {
		out = append(out, KernelAVX2)
	}
	return out
}
