package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"

	"ciphermatch/internal/core"
)

const segSuffix = ".seg"

// FileName maps a database name to its segment file name. Names are
// arbitrary bytes up to MaxNameLen, so the file name is a digest, not
// an escape of the name; the name itself is stored inside the segment
// header.
func FileName(name string) string {
	sum := sha256.Sum256([]byte(name))
	return hex.EncodeToString(sum[:16]) + segSuffix
}

// Damaged reports a segment file the recovery scan will not serve: one
// that fails validation, was written under another ring geometry, or
// does not sit at the FileName of the database its header names.
type Damaged struct {
	File string
	Err  error
}

// Dir is a data directory of segment files. It keeps no index: FileName
// is the only map from a database name to its file, so a segment's
// rename is the only commit point of a save, Load and Remove act on
// FileName(name) directly, and the directory itself is what a restart
// re-reads (Recover). A file stays where it is until Remove deletes it
// or a Save of its name renames over it.
type Dir struct {
	root string
	fsys FS
}

// OpenDir opens a data directory, creating it if needed. It reads no
// segment: Recover is the scan a booting store runs.
func OpenDir(root string) (*Dir, error) {
	return OpenDirFS(OSFS{}, root)
}

// OpenDirFS is OpenDir over an explicit filesystem; every subsequent
// Recover/Save/Load/Remove on the returned Dir goes through fsys too.
func OpenDirFS(fsys FS, root string) (*Dir, error) {
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &Dir{root: root, fsys: fsys}, nil
}

// Recover is the recovery scan. It removes the temporary file an
// interrupted save left, validates every *.seg file's header, and
// returns the metas of the valid segments written under ringDegree and
// modulus that sit at the FileName of the name they carry; every other
// *.seg file is damaged, with its reason. It writes no file: a damaged
// one stays in place until a drop or an upload of its name replaces it.
func (d *Dir) Recover(ringDegree int, modulus uint64) (valid []Meta, damaged []Damaged, err error) {
	names, err := d.fsys.ReadDir(d.root)
	if err != nil {
		return nil, nil, err
	}
	for _, de := range names {
		fn := de.Name()
		if strings.HasSuffix(fn, ".tmp") {
			d.fsys.Remove(filepath.Join(d.root, fn)) //nolint:errcheck // stale partial write
			continue
		}
		if !strings.HasSuffix(fn, segSuffix) || de.IsDir() {
			continue
		}
		meta, err := ReadMetaFS(d.fsys, filepath.Join(d.root, fn))
		if err == nil && fn != FileName(meta.Name) {
			// Only a hand-copied file can get here.
			err = fmt.Errorf("%w: header names %q, whose file is %s", ErrCorrupt, meta.Name, FileName(meta.Name))
		}
		if err == nil {
			err = meta.CheckGeometry(ringDegree, modulus)
		}
		if err != nil {
			damaged = append(damaged, Damaged{File: fn, Err: err})
			continue
		}
		valid = append(valid, meta)
	}
	return valid, damaged, nil
}

// Root returns the directory path.
func (d *Dir) Root() string { return d.root }

// path is the segment file of a database name.
func (d *Dir) path(name string) string { return filepath.Join(d.root, FileName(name)) }

// Save writes db as meta.Name's segment (crash-atomically, replacing
// any previous version); the segment's rename is its commit point.
func (d *Dir) Save(meta Meta, db *core.EncryptedDB) error {
	_, err := d.SaveSealed(meta, db)
	return err
}

// SaveSealed is Save returning the plane sums it sealed into the
// segment footer — ArenaPlaneCRCs of db's arena, hashed once for both
// the file and the caller.
func (d *Dir) SaveSealed(meta Meta, db *core.EncryptedDB) ([2]uint64, error) {
	return writeFS(d.fsys, d.path(meta.Name), meta, db)
}

// Load opens the named database's segment, verifying checksums and
// geometry. A missing file reports fs.ErrNotExist.
func (d *Dir) Load(name string, ringDegree int, modulus uint64) (*Segment, error) {
	return OpenFS(d.fsys, d.path(name), ringDegree, modulus)
}

// Remove deletes the named database's segment file; when there is none
// it reports fs.ErrNotExist.
func (d *Dir) Remove(name string) error {
	if err := d.fsys.Remove(d.path(name)); err != nil {
		return err
	}
	d.fsys.SyncDir(d.root) //nolint:errcheck // advisory durability barrier
	return nil
}
