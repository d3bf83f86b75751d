//go:build !linux && !darwin

package segment

// On platforms without a usable Madvise in syscall the hint is a no-op.

func adviseSequential(b []byte) {}
