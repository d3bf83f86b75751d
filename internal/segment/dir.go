package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ciphermatch/internal/core"
)

const segSuffix = ".seg"

// QuarantineSuffix marks a segment file set aside by the runtime
// scrubber after a checksum failure: the file keeps its bytes for
// operator inspection but no longer matches the *.seg scan pattern, so
// subsequent recovery scans skip it.
const QuarantineSuffix = ".quarantined"

// FileName maps a database name to its segment file name. Names are
// arbitrary bytes up to MaxNameLen, so the file name is a digest, not
// an escape of the name; the name itself is stored inside the segment
// header.
func FileName(name string) string {
	sum := sha256.Sum256([]byte(name))
	return hex.EncodeToString(sum[:16]) + segSuffix
}

// Entry is one registered segment.
type Entry struct {
	Meta Meta
	File string // file name within the directory
}

// Damaged reports a segment file the recovery scan could not validate.
type Damaged struct {
	File string
	Err  error
}

// Dir manages a data directory of segment files. The directory is its
// own index: every well-formed *.seg file is a tenant, named by its
// self-describing header, so a segment's rename is the only commit
// point of a save and nothing else on disk has to agree with it.
type Dir struct {
	root string
	fsys FS

	mu      sync.Mutex
	entries map[string]*Entry // by database name
	damaged []Damaged
}

// OpenDir opens (creating if needed) a data directory: it scans every
// segment file, validates headers, and removes stale temporary files
// from interrupted writes; it writes no file of its own. Files that fail
// validation are quarantined in Damaged(), not deleted — the store
// boots without them and an operator can inspect or restore.
func OpenDir(root string) (*Dir, error) {
	return OpenDirFS(OSFS{}, root)
}

// OpenDirFS is OpenDir over an explicit filesystem; every subsequent
// Save/Load/Remove on the returned Dir goes through fsys too.
func OpenDirFS(fsys FS, root string) (*Dir, error) {
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	d := &Dir{root: root, fsys: fsys, entries: make(map[string]*Entry)}
	names, err := fsys.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, de := range names {
		fn := de.Name()
		if strings.HasSuffix(fn, ".tmp") {
			fsys.Remove(filepath.Join(root, fn)) //nolint:errcheck // stale partial write
			continue
		}
		if !strings.HasSuffix(fn, segSuffix) || de.IsDir() {
			continue
		}
		meta, err := ReadMetaFS(fsys, filepath.Join(root, fn))
		if err != nil {
			d.damaged = append(d.damaged, Damaged{File: fn, Err: err})
			continue
		}
		// Prefer the canonical file for a name if two files claim it
		// (possible only after manual copying into the directory).
		if old, ok := d.entries[meta.Name]; ok && old.File == FileName(meta.Name) {
			d.damaged = append(d.damaged, Damaged{File: fn, Err: fmt.Errorf("segment: duplicate of %q", meta.Name)})
			continue
		}
		d.entries[meta.Name] = &Entry{Meta: meta, File: fn}
	}
	return d, nil
}

// Root returns the directory path.
func (d *Dir) Root() string { return d.root }

// Entries lists registered segments sorted by database name.
func (d *Dir) Entries() []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Entry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.Name < out[j].Meta.Name })
	return out
}

// Damaged lists segment files the recovery scan quarantined.
func (d *Dir) Damaged() []Damaged {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Damaged(nil), d.damaged...)
}

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
	d.mu.Lock()
	defer d.mu.Unlock()
	fn := FileName(meta.Name)
	planeCRC, err := writeFS(d.fsys, filepath.Join(d.root, fn), meta, db)
	if err != nil {
		return planeCRC, err
	}
	d.entries[meta.Name] = &Entry{Meta: meta, File: fn}
	return planeCRC, nil
}

// Load opens the named segment, verifying checksums and geometry.
func (d *Dir) Load(name string, ringDegree int, modulus uint64) (*Segment, error) {
	d.mu.Lock()
	e, ok := d.entries[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("segment: no segment for database %q", name)
	}
	return OpenFS(d.fsys, filepath.Join(d.root, e.File), ringDegree, modulus)
}

// Remove deletes the named segment file and its entry.
func (d *Dir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[name]
	if !ok {
		return nil
	}
	if err := d.fsys.Remove(filepath.Join(d.root, e.File)); err != nil && !os.IsNotExist(err) {
		return err
	}
	delete(d.entries, name)
	d.fsys.SyncDir(d.root) //nolint:errcheck // advisory durability barrier
	return nil
}

// Quarantine sets the named segment's file aside (renamed with
// QuarantineSuffix so the recovery scan skips it, bytes preserved for
// inspection), drops its entry and records it as damaged with
// reason. Called by the runtime scrubber when a resident or reloaded
// segment fails its checksums — the same end state startup recovery
// gives a file that never validated.
func (d *Dir) Quarantine(name string, reason error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[name]
	if !ok {
		return nil
	}
	src := filepath.Join(d.root, e.File)
	if err := d.fsys.Rename(src, src+QuarantineSuffix); err != nil && !os.IsNotExist(err) {
		return err
	}
	delete(d.entries, name)
	d.damaged = append(d.damaged, Damaged{File: e.File, Err: reason})
	d.fsys.SyncDir(d.root) //nolint:errcheck // advisory durability barrier
	return nil
}
