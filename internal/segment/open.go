package segment

import (
	"encoding/binary"
	"fmt"
	"os"

	"ciphermatch/internal/core"
)

// Segment is a loaded segment file: its metadata plus the coefficient
// arena. On little-endian unix hosts the arena is a read-only view of
// the mmap'd file — zero-copy, page-cache backed — and Close unmaps it;
// elsewhere it is a heap copy. Either way loading costs O(1) heap
// allocations independent of the chunk count.
//
// The arena (and any EncryptedDB adopted over it) must not be used
// after Close: a mapped arena's pages vanish with the mapping.
type Segment struct {
	meta     Meta
	arena    []uint64
	mapping  []byte // non-nil while mmap-backed
	fsys     FS     // filesystem that produced the mapping
	planeCRC [2]uint64
}

// PlaneCRCs returns the checksum of each coefficient plane, as
// ArenaPlaneCRCs computes it — for a current-version file, the sums
// stored in its footer (verified against the bytes at load time). The
// store records them so the background scrubber can re-verify resident
// arenas against the durable checksums.
func (s *Segment) PlaneCRCs() [2]uint64 { return s.planeCRC }

// DB adopts the arena into an EncryptedDB: chunk views over the mapped
// (or copied) planes, ready for any engine. The database is read-only
// and dies with the segment's Close.
func (s *Segment) DB() (*core.EncryptedDB, error) {
	db, err := core.AdoptArena(s.meta.RingDegree, s.meta.Chunks, s.arena)
	if err != nil {
		return nil, err
	}
	db.BitLen = s.meta.BitLen
	db.NumSegments = s.meta.NumSegments
	return db, nil
}

// Close releases the mapping (or drops the heap arena). Idempotent.
func (s *Segment) Close() error {
	m, fsys := s.mapping, s.fsys
	s.mapping, s.arena, s.fsys = nil, nil, nil
	if m != nil {
		if fsys == nil {
			fsys = OSFS{}
		}
		return fsys.Munmap(m)
	}
	return nil
}

// OpenFS loads the segment at path through fsys, verifying structure
// and checksums, and rejects files whose ring geometry differs from
// (ringDegree, modulus). The error wraps one of ErrBadMagic,
// ErrBadVersion, ErrTruncated, ErrChecksum, ErrGeometry or ErrCorrupt.
// If fsys cannot map the file (platform without mmap, or an injected
// mmap failure) the loader falls back to the plain-read copying path —
// same verification, one heap arena instead of a zero-copy view.
func OpenFS(fsys FS, path string, ringDegree int, modulus uint64) (*Segment, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	meta, lay, err := readHeader(f)
	if err != nil {
		return nil, err
	}
	if err := meta.CheckGeometry(ringDegree, modulus); err != nil {
		return nil, err
	}
	s, err := openVerified(fsys, f, meta, lay)
	if err != nil {
		return nil, err
	}
	if lay.version == 1 {
		// The planes were just verified against their CRC-64 sums, but
		// the store's scrub re-hashes with the current checksum: derive
		// those sums once from the verified bytes.
		s.planeCRC = ArenaPlaneCRCs(s.arena)
	}
	return s, nil
}

// openVerified maps the file where it can and copies it where it
// cannot, verifying both planes either way.
func openVerified(fsys FS, f File, meta Meta, lay layout) (*Segment, error) {
	if nativeLittleEndian {
		if m, err := fsys.Mmap(f, lay.size); err == nil {
			// The checksum pass below and the search kernels both stream
			// the planes front-to-back: tell the kernel so readahead runs
			// at full depth from the first fault.
			adviseSequential(m)
			foot, err := verifyMapped(m, meta, lay)
			if err != nil {
				fsys.Munmap(m) //nolint:errcheck // reporting the verify failure
				return nil, err
			}
			if arena := bytesU64(m[lay.planeOff : int64(lay.planeOff)+2*meta.planeBytes()]); arena != nil {
				return &Segment{meta: meta, arena: arena, mapping: m, fsys: fsys, planeCRC: foot.planeCRC}, nil
			}
			fsys.Munmap(m) //nolint:errcheck // falling back to the copying loader
		}
		// Mapping failed (exotic filesystem, size limits, injected
		// fault): copy instead.
	}
	return openCopy(f, meta, lay)
}

// ReadMetaFS reads and validates a segment's header, name and header
// checksum without touching the coefficient planes — the cheap probe
// the recovery scan runs per file at startup.
func ReadMetaFS(fsys FS, path string) (Meta, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return Meta{}, err
	}
	defer f.Close()
	meta, _, err := readHeader(f)
	return meta, err
}

// readHeader validates sizes, parses the header and name, and checks
// the header sum stored in the footer. It returns the file's layout.
func readHeader(f File) (Meta, layout, error) {
	st, err := f.Stat()
	if err != nil {
		return Meta{}, layout{}, err
	}
	size := st.Size()
	if size < headerLen+footerLen {
		return Meta{}, layout{}, fmt.Errorf("%w: %d bytes", ErrTruncated, size)
	}
	var head [headerLen]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return Meta{}, layout{}, err
	}
	meta, lay, err := decodeHeader(head[:])
	if err != nil {
		return Meta{}, layout{}, err
	}
	want := int64(lay.planeOff) + 2*meta.planeBytes() + footerLen
	if size < want {
		return Meta{}, layout{}, fmt.Errorf("%w: %d bytes, header promises %d", ErrTruncated, size, want)
	}
	if size > want {
		return Meta{}, layout{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, size-want)
	}
	lay.size = size

	nameBuf := make([]byte, lay.planeOff-headerLen)
	if _, err := f.ReadAt(nameBuf, headerLen); err != nil {
		return Meta{}, layout{}, err
	}
	for _, b := range nameBuf[lay.nameLen:] {
		if b != 0 {
			return Meta{}, layout{}, fmt.Errorf("%w: name padding not zero", ErrCorrupt)
		}
	}
	meta.Name = string(nameBuf[:lay.nameLen])

	foot, err := readFooter(f, size)
	if err != nil {
		return Meta{}, layout{}, err
	}
	h := newHash(lay.version)
	h.Write(head[:]) //nolint:errcheck // hashes never fail
	h.Write(nameBuf) //nolint:errcheck // hashes never fail
	if sum := h.Sum64(); sum != foot.headCRC {
		return Meta{}, layout{}, fmt.Errorf("%w: header CRC %016x, stored %016x", ErrChecksum, sum, foot.headCRC)
	}
	return meta, lay, nil
}

// footer is the decoded trailing block.
type footer struct {
	planeCRC [2]uint64
	headCRC  uint64
}

func readFooter(f File, size int64) (footer, error) {
	var buf [footerLen]byte
	if _, err := f.ReadAt(buf[:], size-footerLen); err != nil {
		return footer{}, err
	}
	return decodeFooter(buf[:])
}

func decodeFooter(buf []byte) (footer, error) {
	if string(buf[24:32]) != endMagic {
		return footer{}, fmt.Errorf("%w: bad end magic", ErrCorrupt)
	}
	return footer{
		planeCRC: [2]uint64{binary.LittleEndian.Uint64(buf[0:]), binary.LittleEndian.Uint64(buf[8:])},
		headCRC:  binary.LittleEndian.Uint64(buf[16:]),
	}, nil
}

// verifyMapped checks both plane sums against the mapped bytes. This is
// the cold-load cost, and it is CRC work, not page faults.
func verifyMapped(m []byte, meta Meta, lay layout) (footer, error) {
	foot, err := decodeFooter(m[len(m)-footerLen:])
	if err != nil {
		return footer{}, err
	}
	c0 := int64(lay.planeOff)
	return foot, verifyPlanes(lay.version, m[c0:c0+2*meta.planeBytes()], foot)
}

// verifyPlanes checks the file bytes of both planes, C0 then C1, against
// the footer's sums. The planes hash in parallel (planeSums) and the
// sums are compared C0 first, so a segment with both planes damaged
// reports C0 whichever task ends first.
func verifyPlanes(version uint32, planes []byte, foot footer) error {
	half := len(planes) / 2
	sums := planeSums(version, [2][]byte{planes[:half], planes[half:]})
	for p, sum := range sums {
		if sum != foot.planeCRC[p] {
			return fmt.Errorf("%w: C%d plane CRC %016x, stored %016x", ErrChecksum, p, sum, foot.planeCRC[p])
		}
	}
	return nil
}

// openCopy is the plain-read fallback (no mmap, or a big-endian host):
// the planes are read straight into a heap arena's bytes, verified like
// a mapping, and byte-order corrected in place where needed. Still O(1)
// allocations. Read-time bit flips injected by a fault FS surface here
// as ErrChecksum (the checksum pass covers exactly the bytes adopted
// into the arena).
func openCopy(f File, meta Meta, lay layout) (*Segment, error) {
	foot, err := readFooter(f, lay.size)
	if err != nil {
		return nil, err
	}
	arena := make([]uint64, core.ArenaWords(meta.RingDegree, meta.Chunks))
	planes := u64Bytes(arena)
	if _, err := f.ReadAt(planes, int64(lay.planeOff)); err != nil {
		return nil, err
	}
	if err := verifyPlanes(lay.version, planes, foot); err != nil {
		return nil, err
	}
	if !nativeLittleEndian {
		for i := range arena {
			arena[i] = binary.LittleEndian.Uint64(planes[8*i:])
		}
	}
	return &Segment{meta: meta, arena: arena, planeCRC: foot.planeCRC}, nil
}
