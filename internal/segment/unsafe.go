package segment

import "unsafe"

// u64Bytes reinterprets a coefficient slice as its in-memory bytes.
// They are the file's byte order only on little-endian hosts:
// arenaPlanes gates on nativeLittleEndian, and openCopy reads file
// bytes through it and byte-swaps them in place elsewhere.
func u64Bytes(words []uint64) []byte {
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)
}

// bytesU64 reinterprets an 8-byte-aligned byte slice as coefficients.
// The segment layout guarantees alignment: mappings are page-aligned
// and the planes start at an 8-byte multiple.
func bytesU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%8 != 0 {
		return nil // cannot alias unaligned memory; caller copies instead
	}
	return unsafe.Slice((*uint64)(p), len(b)/8)
}
