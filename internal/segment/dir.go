package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ciphermatch/internal/core"
)

// ManifestName is the JSON index written beside the segment files.
const ManifestName = "MANIFEST.json"

const segSuffix = ".seg"

// QuarantineSuffix marks a segment file set aside by the runtime
// scrubber after a checksum failure: the file keeps its bytes for
// operator inspection but no longer matches the *.seg scan pattern, so
// subsequent recovery scans skip it.
const QuarantineSuffix = ".quarantined"

// FileName maps a database name to its segment file name. Names are
// arbitrary bytes up to MaxNameLen, so the file name is a digest, not
// an escape of the name; the name itself is stored inside the segment
// header and the manifest.
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

// Dir manages a data directory of segment files plus its manifest. The
// directory scan is authoritative — every well-formed *.seg file is a
// tenant, whatever the manifest says — so a crash between a segment
// rename and the manifest write loses nothing: the next OpenDir adopts
// the orphan from its self-describing header and rewrites the manifest.
type Dir struct {
	root string
	fsys FS

	mu      sync.Mutex
	entries map[string]*Entry // by database name
	damaged []Damaged
}

// manifest is the on-disk JSON shape.
type manifest struct {
	Version  int             `json:"version"`
	Segments []manifestEntry `json:"segments"`
}

type manifestEntry struct {
	Name        string `json:"name"`
	File        string `json:"file"`
	RingDegree  int    `json:"ring_degree"`
	Modulus     uint64 `json:"modulus"`
	Chunks      int    `json:"chunks"`
	BitLen      int    `json:"bit_len"`
	NumSegments int    `json:"num_segments"`
	EngineKind  string `json:"engine_kind,omitempty"`
	Workers     int    `json:"engine_workers,omitempty"`
}

// OpenDir opens (creating if needed) a data directory: it scans every
// segment file, validates headers, reconciles the manifest, and removes
// stale temporary files from interrupted writes. Files that fail
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
	if err := d.writeManifest(); err != nil {
		return nil, err
	}
	return d, nil
}

// Root returns the directory path.
func (d *Dir) Root() string { return d.root }

// FS returns the filesystem the directory operates through.
func (d *Dir) FS() FS { return d.fsys }

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
// any previous version) and updates the manifest.
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
	return planeCRC, d.writeManifest()
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

// Remove deletes the named segment file and its manifest entry.
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
	return d.writeManifest()
}

// Quarantine sets the named segment's file aside (renamed with
// QuarantineSuffix so the recovery scan skips it, bytes preserved for
// inspection), drops its manifest entry and records it as damaged with
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
	return d.writeManifest()
}

// writeManifest rewrites the manifest atomically; d.mu held. The
// manifest is a cache of the self-describing segment headers, so its
// two crash points (before the tmp write, before the rename) lose
// nothing: the next OpenDir scan rebuilds it.
func (d *Dir) writeManifest() error {
	m := manifest{Version: 1}
	for _, name := range sortedNames(d.entries) {
		e := d.entries[name]
		m.Segments = append(m.Segments, manifestEntry{
			Name:        e.Meta.Name,
			File:        e.File,
			RingDegree:  e.Meta.RingDegree,
			Modulus:     e.Meta.Modulus,
			Chunks:      e.Meta.Chunks,
			BitLen:      e.Meta.BitLen,
			NumSegments: e.Meta.NumSegments,
			EngineKind:  e.Meta.Spec.Kind,
			Workers:     e.Meta.Spec.Workers,
		})
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	if err := d.fsys.Crash(CrashManifestWrite); err != nil {
		return err
	}
	path := filepath.Join(d.root, ManifestName)
	tmp := path + ".tmp"
	if err := writeFileFS(d.fsys, tmp, append(data, '\n')); err != nil {
		return err
	}
	if err := d.fsys.Crash(CrashManifestRename); err != nil {
		return err
	}
	if err := d.fsys.Rename(tmp, path); err != nil {
		d.fsys.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return err
	}
	d.fsys.SyncDir(d.root) //nolint:errcheck // advisory durability barrier
	return nil
}

// writeFileFS is os.WriteFile through an FS.
func writeFileFS(fsys FS, name string, data []byte) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedNames(m map[string]*Entry) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
