package mathutil

// Bit-stream helpers used by the data-packing schemes (internal/core).
// CIPHERMATCH treats the database and query as flat binary strings (§4.2.1);
// throughout this repository bit k of a stream stored in a byte slice is bit
// (7 - k%8) of byte k/8, i.e. MSB-first within each byte, matching the
// paper's textual convention of writing strings left to right.

// GetBit returns bit k (MSB-first) of the byte-slice stream.
func GetBit(stream []byte, k int) uint32 {
	return uint32(stream[k/8]>>(7-uint(k%8))) & 1
}

// SetBit sets bit k (MSB-first) of the stream to v (0 or 1).
func SetBit(stream []byte, k int, v uint32) {
	mask := byte(1) << (7 - uint(k%8))
	if v&1 == 1 {
		stream[k/8] |= mask
	} else {
		stream[k/8] &^= mask
	}
}

// Segment16 extracts the 16-bit segment starting at bit offset off
// (MSB-first: the bit at off becomes the segment's most significant bit).
// Bits beyond the end of the stream read as zero. It reads the three
// bytes a segment can touch instead of 16 single bits, since packing a
// database extracts one segment per 16 bits.
func Segment16(stream []byte, off int) uint16 {
	var w uint32 // stream[off/8 : off/8+3], big-endian
	for b := off / 8; b < off/8+3; b++ {
		w <<= 8
		if b < len(stream) {
			w |= uint32(stream[b])
		}
	}
	return uint16(w >> (8 - uint(off%8)))
}
