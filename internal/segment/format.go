// Package segment implements the durable on-disk form of an encrypted
// database: one segment file per tenant under a data directory, written
// crash-atomically and loaded zero-copy via mmap, so the ciphertext
// arena the fused search kernel streams is the page-cache/flash-backed
// mapping itself. This is the software analogue of CIPHERMATCH's
// in-flash read path (§5, §6.2): the encrypted database lives in flash
// and the search walks it where it lies, instead of the server hauling
// every tenant into heap-resident DRAM.
//
// File layout (version 2, all integers little-endian):
//
//	offset  size  field
//	     0     8  magic "CMSEGARN"
//	     8     4  version (2; 1 still loads)
//	    12     4  header length (128)
//	    16     8  ring degree n
//	    24     8  ciphertext modulus q
//	    32     8  chunk count
//	    40     8  database bit length
//	    48     8  segment (16-bit coefficient) count
//	    56     4  name length (<= 255)
//	    60     4  engine workers
//	    64     4  reserved (was engine shards; written 0, ignored)
//	    68    16  engine kind, NUL-padded
//	    84    44  reserved (zero)
//	   128     -  database name, zero-padded to an 8-byte multiple
//	     -     -  C0 plane: chunk coefficients c(0), 8 bytes each
//	     -     -  C1 plane: chunk coefficients c(1), 8 bytes each
//	     -    32  footer: C0 sum, C1 sum, header+name sum, "CMSEGEND"
//
// The planes are laid out exactly as core.EncryptedDB lays out its
// arena — all first components, then all second components — and
// every plane starts 8-byte aligned, so on little-endian platforms the
// mapped byte range reinterprets directly as the []uint64 arena that
// core.AdoptArena plugs into the chunk-view layout.
//
// Each footer sum is a 64-bit CRC: CRC-32C in the high word, CRC-32/IEEE
// in the low word, both computed in hardware (SSE4.2 and PCLMULQDQ on
// amd64, the CRC32 instructions on arm64). The two generator polynomials
// are coprime, so by the Chinese remainder theorem the pair is a CRC
// whose generator is their degree-64 product: every burst of up to 64
// bits is caught and random damage escapes with probability 2^-64, the
// guarantees of the table-driven CRC-64/ECMA that version 1 used. Version
// 1 files stay readable; nothing writes them.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"runtime"

	"ciphermatch/internal/core"
)

// Distinct load-failure classes, so callers (and tests) can tell a
// foreign file from a damaged one from a mismatched one. Every error
// returned by Open/ReadMeta wraps exactly one of these.
var (
	// ErrBadMagic: the file does not start with the segment magic — not
	// a segment file at all.
	ErrBadMagic = errors.New("segment: bad magic")
	// ErrBadVersion: a segment file from an unknown format version.
	ErrBadVersion = errors.New("segment: unsupported format version")
	// ErrTruncated: the file is shorter than its header promises.
	ErrTruncated = errors.New("segment: truncated file")
	// ErrChecksum: a stored CRC does not match the bytes on disk
	// (bit rot, torn write).
	ErrChecksum = errors.New("segment: checksum mismatch")
	// ErrGeometry: the segment's ring degree or modulus differs from
	// the parameters the caller expects.
	ErrGeometry = errors.New("segment: ring geometry mismatch")
	// ErrCorrupt: structurally malformed header or footer (impossible
	// counts, oversize fields, trailing garbage).
	ErrCorrupt = errors.New("segment: malformed file")
)

const (
	magic    = "CMSEGARN"
	endMagic = "CMSEGEND"
	// Version is the segment format version Write produces. Version 1
	// (CRC-64/ECMA sums) is still read.
	Version = 2

	headerLen = 128
	footerLen = 32

	// MaxNameLen bounds the stored database name; it mirrors the wire
	// protocol's name bound (proto.MaxNameLen).
	MaxNameLen = 255

	maxKindLen = 16
	// Sanity bounds on header-declared geometry, so a hostile header
	// cannot drive the size arithmetic into overflow.
	maxRingDegree = 1 << 26
	maxChunks     = 1 << 28
)

var (
	castagnoliTable = crc32.MakeTable(crc32.Castagnoli)
	ecmaTable       = crc64.MakeTable(crc64.ECMA) // version 1 only
)

// checksum is the 64-bit sum that seals each section of a version 2
// segment: CRC-32C in the high word, CRC-32/IEEE in the low word. The
// writer, both loaders and the store's upload fingerprint and scrub (via
// planeSums) all use it.
func checksum(b []byte) uint64 {
	var d digest
	d.Write(b) //nolint:errcheck // never fails
	return d.Sum64()
}

// digest is the streaming form of checksum.
type digest struct{ castagnoli, ieee uint32 }

// Write folds b into both CRCs. It never fails. It runs the two CRCs
// block by block, so the second reads each block from L1 cache. Over a
// mapped 32 MiB segment that beats two whole passes: BenchmarkOpen/v2
// medians 7.9 against 10.0 ms at -cpu 1 (6 and 8 runs), 4.5 against
// 5.4 ms at -cpu 2 with the planes hashing in parallel (14 and 24
// runs), on a 2-vCPU Xeon.
func (d *digest) Write(b []byte) (int, error) {
	n := len(b)
	for len(b) > 0 {
		k := min(len(b), digestBlock)
		d.castagnoli = crc32.Update(d.castagnoli, castagnoliTable, b[:k])
		d.ieee = crc32.Update(d.ieee, crc32.IEEETable, b[:k])
		b = b[k:]
	}
	return n, nil
}

// digestBlock is the span each CRC covers before the other takes it:
// 16 KiB measured ahead of 64 and 256 KiB.
const digestBlock = 16 << 10

// Sum64 returns the checksum of everything written.
func (d *digest) Sum64() uint64 { return uint64(d.castagnoli)<<32 | uint64(d.ieee) }

// hash64 is what verification needs of a format version's checksum.
type hash64 interface {
	io.Writer
	Sum64() uint64
}

// newHash returns the streaming checksum a format version seals its
// sections with. This is the only place version 1 differs.
func newHash(version uint32) hash64 {
	if version == 1 {
		return crc64.New(ecmaTable)
	}
	return new(digest)
}

// nativeLittleEndian reports whether the host lays uint64s out in the
// file's byte order; only then can a mapped plane be reinterpreted as
// the coefficient arena without copying.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{0x01, 0x02}) == 0x0201

// Meta is the identity and geometry of one segment: everything the
// store needs to re-register a tenant after a restart without touching
// the coefficient planes.
type Meta struct {
	// Name is the tenant database name the segment was saved under.
	Name string
	// RingDegree and Modulus pin the BFV parameter point the
	// ciphertexts were produced under.
	RingDegree int
	Modulus    uint64
	// Chunks, BitLen and NumSegments mirror core.EncryptedDB.
	Chunks      int
	BitLen      int
	NumSegments int
	// Spec is the engine the tenant uploaded with; recovery rebuilds
	// the same engine kind over the reloaded arena.
	Spec core.EngineSpec
}

// arenaWords returns the coefficient count of both planes together.
func (m Meta) arenaWords() int { return 2 * m.Chunks * m.RingDegree }

// planeBytes returns the byte size of one plane.
func (m Meta) planeBytes() int64 { return int64(m.Chunks) * int64(m.RingDegree) * 8 }

// CheckGeometry verifies the segment was written under the expected
// ring degree and modulus.
func (m Meta) CheckGeometry(ringDegree int, modulus uint64) error {
	if m.RingDegree != ringDegree || m.Modulus != modulus {
		return fmt.Errorf("%w: segment has n=%d q=%d, store runs n=%d q=%d",
			ErrGeometry, m.RingDegree, m.Modulus, ringDegree, modulus)
	}
	return nil
}

// pad8 rounds n up to a multiple of 8, keeping the planes 8-byte
// aligned behind the variable-length name.
func pad8(n int) int { return (n + 7) &^ 7 }

// encodeHeader renders the header plus the padded name section.
func encodeHeader(m Meta) []byte {
	buf := make([]byte, headerLen+pad8(len(m.Name)))
	copy(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[8:], Version)
	binary.LittleEndian.PutUint32(buf[12:], headerLen)
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.RingDegree))
	binary.LittleEndian.PutUint64(buf[24:], m.Modulus)
	binary.LittleEndian.PutUint64(buf[32:], uint64(m.Chunks))
	binary.LittleEndian.PutUint64(buf[40:], uint64(m.BitLen))
	binary.LittleEndian.PutUint64(buf[48:], uint64(m.NumSegments))
	binary.LittleEndian.PutUint32(buf[56:], uint32(len(m.Name)))
	binary.LittleEndian.PutUint32(buf[60:], uint32(m.Spec.Workers))
	// buf[64:68] stays zero: reserved. Segments written while it held a
	// shard count still load, their header CRC covering the old bytes.
	copy(buf[68:68+maxKindLen], m.Spec.Kind)
	copy(buf[headerLen:], m.Name)
	return buf
}

// layout is where one segment file's sections lie and which format
// version sealed them.
type layout struct {
	version  uint32 // picks the checksum (newHash)
	nameLen  int    // declared name length, before padding
	planeOff int    // offset of the C0 plane
	size     int64  // total file size
}

// decodeHeader parses and bounds-checks a header block (at least
// headerLen bytes). It returns the meta with an empty Name — the name
// sits behind the fixed block — plus the layout the header declares
// (size left zero).
func decodeHeader(buf []byte) (Meta, layout, error) {
	var m Meta
	if len(buf) < headerLen {
		return m, layout{}, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(buf))
	}
	if string(buf[:8]) != magic {
		return m, layout{}, fmt.Errorf("%w: % x", ErrBadMagic, buf[:8])
	}
	version := binary.LittleEndian.Uint32(buf[8:])
	if version != 1 && version != Version {
		return m, layout{}, fmt.Errorf("%w: version %d, this build reads 1 and %d", ErrBadVersion, version, Version)
	}
	if hl := binary.LittleEndian.Uint32(buf[12:]); hl != headerLen {
		return m, layout{}, fmt.Errorf("%w: header length %d", ErrCorrupt, hl)
	}
	n := binary.LittleEndian.Uint64(buf[16:])
	chunks := binary.LittleEndian.Uint64(buf[32:])
	if n < 1 || n > maxRingDegree || n&(n-1) != 0 {
		return m, layout{}, fmt.Errorf("%w: ring degree %d", ErrCorrupt, n)
	}
	if chunks < 1 || chunks > maxChunks {
		return m, layout{}, fmt.Errorf("%w: chunk count %d", ErrCorrupt, chunks)
	}
	bitLen := binary.LittleEndian.Uint64(buf[40:])
	numSegs := binary.LittleEndian.Uint64(buf[48:])
	if bitLen > 1<<50 || numSegs > 1<<50 {
		return m, layout{}, fmt.Errorf("%w: bit length %d / segment count %d", ErrCorrupt, bitLen, numSegs)
	}
	nameLen := binary.LittleEndian.Uint32(buf[56:])
	if nameLen > MaxNameLen {
		return m, layout{}, fmt.Errorf("%w: name length %d exceeds %d", ErrCorrupt, nameLen, MaxNameLen)
	}
	kind := buf[68 : 68+maxKindLen]
	kindEnd := 0
	for kindEnd < maxKindLen && kind[kindEnd] != 0 {
		kindEnd++
	}
	for _, b := range kind[kindEnd:] {
		if b != 0 {
			return m, layout{}, fmt.Errorf("%w: engine kind not NUL-padded", ErrCorrupt)
		}
	}
	m.RingDegree = int(n)
	m.Modulus = binary.LittleEndian.Uint64(buf[24:])
	m.Chunks = int(chunks)
	m.BitLen = int(bitLen)
	m.NumSegments = int(numSegs)
	m.Spec = core.EngineSpec{
		Kind:    string(kind[:kindEnd]),
		Workers: int(binary.LittleEndian.Uint32(buf[60:])),
	}
	return m, layout{version: version, nameLen: int(nameLen), planeOff: headerLen + pad8(int(nameLen))}, nil
}

// ArenaPlaneCRCs computes the checksum of each coefficient plane of a
// compact plane-major arena, exactly as Write stores them in the segment
// footer. A memory-only store fingerprints an uploaded arena with it (a
// durable store adopts the sums its segment write sealed), and the
// background scrub re-hashes every resident arena with it.
func ArenaPlaneCRCs(arena []uint64) [2]uint64 {
	return planeSums(Version, arenaPlanes(arena))
}

// planeSums returns the checksum format version seals each plane with.
// Planes of parallelHashBytes or more hash concurrently on core.ForEach,
// one task per plane; smaller ones on the caller's goroutine. Either
// way the sums do not depend on which plane finishes first.
func planeSums(version uint32, planes [2][]byte) [2]uint64 {
	runners := 1
	if len(planes[0]) >= parallelHashBytes {
		runners = runtime.GOMAXPROCS(0)
	}
	var sums [2]uint64
	core.ForEach(runners, len(planes), func(p int) {
		h := newHash(version)
		h.Write(planes[p]) //nolint:errcheck // hashes never fail
		sums[p] = h.Sum64()
	})
	return sums
}

// parallelHashBytes is the plane size from which planeSums hashes the
// planes in parallel. Below it, waking a second runner costs more than
// it saves: on a 2-vCPU Xeon, ArenaPlaneCRCs over a resident 1 MiB
// arena took 122 µs on one runner and 139 µs on two, over 4 MiB 522 and
// 380 µs.
const parallelHashBytes = 1 << 20

// arenaPlanes returns the file bytes of a plane-major arena's two
// planes: the words themselves on a little-endian host, encoded copies
// elsewhere.
func arenaPlanes(arena []uint64) [2][]byte {
	words := len(arena) / 2
	var planes [2][]byte
	for p, plane := range [2][]uint64{arena[:words], arena[words:]} {
		if nativeLittleEndian {
			planes[p] = u64Bytes(plane)
			continue
		}
		buf := make([]byte, 0, 8*len(plane))
		for _, c := range plane {
			buf = binary.LittleEndian.AppendUint64(buf, c)
		}
		planes[p] = buf
	}
	return planes
}
