//go:build !linux && !darwin

package segment

// On platforms without a usable Madvise in syscall the hints are no-ops.

func adviseSequential(b []byte) {}

func adviseWillNeed(b []byte) {}
