//go:build linux || darwin

package segment

import "syscall"

// adviseSequential tells the kernel the mapping will be read
// front-to-back, so readahead can run maximally aggressive — exactly
// the access pattern of the segment open's checksum pass and of
// the fused search kernel streaming the C0 plane.
func adviseSequential(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_SEQUENTIAL) //nolint:errcheck // advisory only
}
