package core

// This file implements the catalog file, the file a DB is opened at: its
// id and version counters and one descriptor per collection, naming the
// collection's row log, framed as
//
//	[magic u32][CRC-32C u32][JSON body]
//
// little-endian, the checksum covering the body. Open reads it whole and
// refuses a bad one; replaceFile replaces it atomically. A kv page file,
// the format before it, is imported once at Open (importPageFile).

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/kv"
)

// catalogMagic identifies a catalog file ("DLCT").
const catalogMagic = 0x54434C44

// errBadCatalog reports a catalog file with a bad magic, checksum or
// body.
var errBadCatalog = errors.New("core: bad catalog file")

// catalog is the catalog file's body.
type catalog struct {
	NextID  uint64    `json:"nextid"`
	NextVer uint64    `json:"nextver"`
	Cols    []colDesc `json:"collections"`
}

// encodeCatalog frames cat as the catalog file holds it.
func encodeCatalog(cat catalog) ([]byte, error) {
	body, err := json.Marshal(cat)
	raw := binary.LittleEndian.AppendUint32(make([]byte, 0, 8+len(body)), catalogMagic)
	raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(body, castagnoli))
	return append(raw, body...), err
}

// decodeCatalog reads a catalog file. Every descriptor must name a row
// log and a collection no other one names.
func decodeCatalog(raw []byte) (cat catalog, err error) {
	switch {
	case len(raw) < 8 || binary.LittleEndian.Uint32(raw) != catalogMagic:
		err = errors.New("bad magic")
	case crc32.Checksum(raw[8:], castagnoli) != binary.LittleEndian.Uint32(raw[4:]):
		err = errors.New("checksum mismatch")
	default:
		err = json.Unmarshal(raw[8:], &cat)
	}
	seen := make(map[string]bool, len(cat.Cols))
	for _, d := range cat.Cols {
		if err == nil && (d.Log == 0 || seen[d.Name]) {
			err = fmt.Errorf("collection %q", d.Name)
		}
		seen[d.Name] = true
	}
	if err != nil {
		return cat, fmt.Errorf("%w: %w", errBadCatalog, err)
	}
	return cat, nil
}

// Test seams: the steps a crash can fall between.
var (
	renameFile = os.Rename
	removeFile = os.Remove
)

// replaceFile replaces the file at path with data, so that a crash
// leaves the old file or the new one, whole: it writes and syncs a
// temporary file beside it, renames that over path and syncs the
// directory.
func replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = renameFile(tmp, path)
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(filepath.Dir(path)); err == nil {
			err = cmp.Or(d.Sync(), d.Close())
		}
	}
	return err
}

// isPageFile reports whether raw starts as a kv page file does.
func isPageFile(raw []byte) bool {
	return len(raw) >= 4 && binary.LittleEndian.Uint32(raw) == kv.Magic
}

// importPageFile imports the page file at db.path: it installs the
// descriptors and counters of its sys.catalog bucket, copies the rows of
// each collection whose descriptor names no row log from its bucket
// col.<name> verbatim into a new one, in descriptor order, and flushes,
// which syncs the logs and renames the catalog over the page file,
// dropping every other bucket with it. Until that rename the page file
// is as it was, so an import cut short runs again in full at the next
// Open, into the same logs.
func (db *DB) importPageFile() error {
	st, err := kv.Open(db.path)
	if err != nil {
		return err
	}
	defer st.Close() // after the rename: its write-back lands in the replaced file
	sys, err := st.Bucket("sys.catalog")
	if err != nil {
		return err
	}
	var cat catalog
	if v, err := sys.Get([]byte("nextid")); err == nil {
		cat.NextID = kv.ParseU64Key(v)
	}
	if v, err := sys.Get([]byte("nextver")); err == nil {
		cat.NextVer = kv.ParseU64Key(v)
	}
	var descErr error
	err = sys.Scan([]byte("col."), []byte("col/"), func(_, v []byte) bool {
		cat.Cols = append(cat.Cols, colDesc{})
		descErr = json.Unmarshal(v, &cat.Cols[len(cat.Cols)-1])
		return descErr == nil
	})
	if err = cmp.Or(err, descErr); err != nil {
		return err
	}
	db.install(cat)
	for _, d := range cat.Cols {
		if d.Log != 0 {
			continue
		}
		c := db.cols[d.Name]
		c.logKey = db.nextVersion()
		if c.count, err = copyBucket(st, d.Name, rowLogPath(db.path, c.logKey)); err != nil {
			return fmt.Errorf("collection %q: %w", d.Name, err)
		}
	}
	return db.Flush()
}

// copyBucket copies the rows of the page-format collection name, each
// stored under its id's 8-byte key in the bucket col.<name>, verbatim
// into a new row log at path, and returns how many it copied.
func copyBucket(st *kv.Store, name, path string) (int, error) {
	b, err := st.Bucket("col." + name)
	if err != nil {
		return 0, err
	}
	log, err := createRowLog(path)
	if err != nil {
		return 0, err
	}
	n, rowErr := 0, error(nil)
	err = b.Scan(nil, nil, func(k, v []byte) bool {
		if rowErr = errCorrupt; len(k) == 8 {
			rowErr = log.append(PatchID(kv.ParseU64Key(k)), v)
		}
		n++
		return rowErr == nil
	})
	return n, cmp.Or(err, rowErr, log.close())
}

// sweep removes what a crash can leave beside the catalog: a temporary
// catalog, and row logs it does not name, a dropped collection's or one
// created since the last Flush.
func (db *DB) sweep() error {
	live := make(map[uint64]bool, len(db.cols))
	for _, c := range db.cols {
		live[c.logKey] = true
	}
	dir, base := filepath.Split(db.path)
	ents, err := os.ReadDir(filepath.Clean(dir))
	for _, e := range ents {
		name := e.Name()
		key, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, base+"."), ".rows"), 10, 64)
		orphan := perr == nil && !live[key] && name == filepath.Base(rowLogPath(db.path, key))
		if err == nil && (orphan || name == base+".tmp") {
			err = os.Remove(filepath.Join(dir, name))
		}
	}
	return err
}
