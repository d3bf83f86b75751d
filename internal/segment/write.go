package segment

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"ciphermatch/internal/core"
)

// writeFS persists db as a segment file at path through fsys,
// crash-atomically, and returns the plane sums it sealed into the
// footer: the bytes are streamed to a temporary file in the same
// directory, fsynced, and renamed over path, then the directory is
// fsynced, so a crash at any point leaves either the old file or the
// new one — never a torn segment. The database must sit on an arena of
// the meta's geometry (core.NewCompactDB, as the wire decoder and the
// client build it). Every step announces a named crash point first, so
// a fault-injecting FS can simulate the process dying at any of them;
// proto's store model test requires recovery to be correct after every
// one.
func writeFS(fsys FS, path string, meta Meta, db *core.EncryptedDB) ([2]uint64, error) {
	var none [2]uint64
	if err := checkWritable(meta, db); err != nil {
		return none, err
	}
	if err := fsys.Crash(CrashWriteTmpCreate); err != nil {
		return none, err
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return none, err
	}
	// Best-effort cleanup on any failure below; harmless after rename.
	defer fsys.Remove(tmp) //nolint:errcheck // best-effort cleanup
	planeCRC, err := writeTo(fsys, f, meta, db)
	if err != nil {
		f.Close()
		return none, err
	}
	if err := fsys.Crash(CrashWriteSync); err != nil {
		f.Close()
		return none, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return none, err
	}
	if err := fsys.Crash(CrashWriteClose); err != nil {
		f.Close()
		return none, err
	}
	if err := f.Close(); err != nil {
		return none, err
	}
	if err := fsys.Crash(CrashWriteRename); err != nil {
		return none, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return none, err
	}
	// A crash here loses only the directory sync: the rename is done, so
	// recovery adopts the (unacknowledged but complete) segment.
	if err := fsys.Crash(CrashWriteDirsync); err != nil {
		return none, err
	}
	fsys.SyncDir(filepath.Dir(path)) //nolint:errcheck // advisory durability barrier
	return planeCRC, nil
}

// checkWritable validates that db matches meta chunk for chunk.
func checkWritable(meta Meta, db *core.EncryptedDB) error {
	if len(meta.Name) > MaxNameLen {
		return fmt.Errorf("segment: name of %d bytes exceeds %d", len(meta.Name), MaxNameLen)
	}
	if len(meta.Spec.Kind) > maxKindLen {
		return fmt.Errorf("segment: engine kind %q exceeds %d bytes", meta.Spec.Kind, maxKindLen)
	}
	if meta.Chunks != len(db.Chunks) {
		return fmt.Errorf("segment: meta declares %d chunks, database has %d", meta.Chunks, len(db.Chunks))
	}
	if meta.Chunks < 1 || meta.Chunks > maxChunks || meta.RingDegree < 1 || meta.RingDegree > maxRingDegree {
		return fmt.Errorf("segment: geometry %d chunks x degree %d out of range", meta.Chunks, meta.RingDegree)
	}
	if want := core.ArenaWords(meta.RingDegree, meta.Chunks); len(db.Arena()) != want {
		return fmt.Errorf("segment: database arena holds %d coefficients, %d chunks x degree %d need %d",
			len(db.Arena()), meta.Chunks, meta.RingDegree, want)
	}
	return nil
}

// writeTo writes header, name, planes and footer straight to f, each
// section one Write followed by its crash point, so a simulated crash
// leaves exactly the bytes written so far on disk (the torn state the
// recovery scan will face). It returns the plane sums it sealed.
func writeTo(fsys FS, f File, meta Meta, db *core.EncryptedDB) ([2]uint64, error) {
	var none [2]uint64
	head := encodeHeader(meta)
	if _, err := f.Write(head); err != nil {
		return none, err
	}
	headCRC := checksum(head)
	if err := fsys.Crash(CrashWriteHeader); err != nil {
		return none, err
	}

	// The arena's planes are the file's planes: on a little-endian host
	// the words already are the bytes (two bulk writes), elsewhere each
	// plane is encoded once.
	planes := arenaPlanes(db.Arena())
	planeCRC := planeSums(Version, planes)
	planePoints := [2]string{CrashWritePlane0, CrashWritePlane1}
	for p, buf := range planes {
		if _, err := f.Write(buf); err != nil {
			return none, err
		}
		if err := fsys.Crash(planePoints[p]); err != nil {
			return none, err
		}
	}

	var foot [footerLen]byte
	binary.LittleEndian.PutUint64(foot[0:], planeCRC[0])
	binary.LittleEndian.PutUint64(foot[8:], planeCRC[1])
	binary.LittleEndian.PutUint64(foot[16:], headCRC)
	copy(foot[24:], endMagic)
	if _, err := f.Write(foot[:]); err != nil {
		return none, err
	}
	return planeCRC, fsys.Crash(CrashWriteFooter)
}
