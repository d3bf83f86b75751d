//go:build linux || darwin

package segment

import "syscall"

// adviseSequential tells the kernel the mapping will be read
// front-to-back, so readahead can run maximally aggressive — exactly
// the access pattern of the segment open's CRC verification pass and of
// the fused search kernel streaming the C0 plane.
func adviseSequential(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_SEQUENTIAL) //nolint:errcheck // advisory only
}

// adviseWillNeed asks the kernel to start faulting the mapping in ahead
// of the first search over a cold-loaded segment, overlapping flash
// reads with engine construction instead of paying them one page fault
// at a time inside the kernel's hot loop.
func adviseWillNeed(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_WILLNEED) //nolint:errcheck // advisory only
}
