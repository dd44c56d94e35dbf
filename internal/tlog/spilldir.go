package tlog

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"

	"mixedclock/internal/event"
	"mixedclock/internal/vfs"
)

// ReadCatalog reads the catalog a spill directory publishes: catalog.json,
// or — when that file is missing or does not decode, as a publication torn
// by a power cut leaves it — the catalog.json.prev copy the publisher keeps
// beside it. usedPrev reports the fallback. When neither file yields a
// catalog the error is catalog.json's own, so errors.Is(err,
// fs.ErrNotExist) tells a directory that never held a catalog from one
// whose catalog is damaged. Every reader of a spill directory — recovery,
// DirCursor, the shipper, the mvc tools — reads it through here.
func ReadCatalog(fsys vfs.FS, dir string) (c *Catalog, usedPrev bool, err error) {
	c, err = readCatalogFile(fsys, filepath.Join(dir, CatalogFileName))
	if err == nil {
		return c, false, nil
	}
	if prev, perr := readCatalogFile(fsys, filepath.Join(dir, CatalogPrevFileName)); perr == nil {
		return prev, true, nil
	}
	return nil, false, err
}

func readCatalogFile(fsys vfs.FS, path string) (*Catalog, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCatalog(f)
}

// VerifySegment reads the spill file entry lists in dir and checks it the
// way recovery does before adopting it: the file size and SHA-256 against
// the entry, the segment header against the entry's epoch and index range,
// and a scan of every record (SegmentReader.SkipStamps) — each check a full
// decode runs, without rebuilding stamps. visit, when non-nil, sees each
// record's event. It returns the file's bytes; any disagreement is an error
// naming the file.
func VerifySegment(fsys vfs.FS, dir string, entry CatalogSegment, visit func(event.Event)) ([]byte, error) {
	if entry.Path == "" {
		return nil, fmt.Errorf("tlog: segment [%d,%d): no spill file recorded",
			entry.FirstIndex, entry.FirstIndex+entry.Events)
	}
	data, err := vfs.ReadFile(fsys, filepath.Join(dir, entry.Path))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != entry.Bytes {
		return nil, fmt.Errorf("tlog: %s holds %d bytes, catalog says %d", entry.Path, len(data), entry.Bytes)
	}
	if entry.SHA256 != "" {
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != entry.SHA256 {
			return nil, fmt.Errorf("tlog: %s: content hash mismatch", entry.Path)
		}
	}
	sr, err := NewSegmentReaderBytes(data)
	if err != nil {
		return nil, fmt.Errorf("tlog: %s: %w", entry.Path, err)
	}
	if m := sr.Meta(); m.Epoch != entry.Epoch || m.FirstIndex != entry.FirstIndex || m.Count != entry.Events {
		return nil, fmt.Errorf("tlog: %s: header says %v, catalog says epoch %d events [%d,%d)",
			entry.Path, m, entry.Epoch, entry.FirstIndex, entry.FirstIndex+entry.Events)
	}
	sr.SkipStamps()
	for {
		e, _, err := sr.Next()
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, fmt.Errorf("tlog: %s: %w", entry.Path, err)
		}
		if visit != nil {
			visit(e)
		}
	}
}
