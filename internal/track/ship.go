// Shipper cursor: the consumer half of the catalog protocol.
//
// A tracker publishes catalog.json after every seal, compaction and
// retention pass; an external shipper's job is to mirror the listed segment
// files somewhere durable before retention retires them. Shipper does the
// mechanical part — tail the catalog, copy and verify the new segments,
// persist a cursor recording how far shipping got — so a crash on either
// side resumes from the cursor instead of re-copying history.
package track

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"mixedclock/internal/tlog"
	"mixedclock/internal/vfs"
)

// ErrCatalogBehind reports that the source catalog has not yet reached the
// generation ConsumeUpTo was asked to consume — the shipper should poll
// again later.
var ErrCatalogBehind = errors.New("track: catalog generation behind")

// Shipper copies a tracker's sealed segments out of its spill directory
// (Src) into a destination directory (Dst), incrementally, driven by the
// published catalog. The zero value is not usable; set both directories.
// Methods are not safe for concurrent use on one Shipper, but any number of
// Shippers (and the tracker itself) may work the same Src concurrently —
// the catalog protocol is read-only on Src except for the cursor file.
type Shipper struct {
	// Src is the tracker's spill directory: catalog.json plus segment
	// files, and where the shipper's cursor file is kept.
	Src string
	// Dst is the mirror directory, created on first use. After a ship it
	// holds the copied segments plus the catalog document that listed them,
	// so Dst is itself a valid directory for track.Open or offline tools.
	Dst string
	// FS is the filesystem both directories are accessed through; nil means
	// vfs.OS. Fault-injection tests substitute vfs.Faulty.
	FS vfs.FS
}

// fsys returns the shipper's filesystem, defaulting to the real one.
func (s *Shipper) fsys() vfs.FS {
	if s.FS != nil {
		return s.FS
	}
	return vfs.OS
}

// ShipReport describes one ConsumeUpTo pass.
type ShipReport struct {
	// Generation is the catalog generation the pass consumed (and the
	// cursor now records).
	Generation int64
	// SealedEvents and ShippedEvents are the source catalog's sealed extent
	// and how far shipping had gotten before this pass.
	SealedEvents  int
	ShippedEvents int
	// Copied lists the segment files this pass copied (already-mirrored
	// files are skipped).
	Copied []string
}

// ConsumeUpTo ships everything the source catalog lists, provided the
// catalog has reached at least the given generation (pass 0 to take
// whatever is current; a torn catalog.json is read from its .prev copy, as
// recovery reads it). Each listed segment file missing from Dst — or
// covering events past the cursor — is verified as recovery verifies it
// (size, SHA-256, header, a scan of every record), then copied through a
// temp file and renamed into place; the catalog document itself is
// mirrored last, so Dst always lists only files it already holds. Finally
// the cursor file in Src is atomically updated to the consumed generation.
// Returns
// ErrCatalogBehind (wrapped) when the catalog is still older than
// requested.
func (s *Shipper) ConsumeUpTo(generation int64) (*ShipReport, error) {
	if s.Src == "" || s.Dst == "" {
		return nil, fmt.Errorf("track: shipper needs both Src and Dst")
	}
	fsys := s.fsys()
	c, _, err := tlog.ReadCatalog(fsys, s.Src)
	if err != nil {
		return nil, fmt.Errorf("track: shipping: %w", err)
	}
	if c.Generation < generation {
		return nil, fmt.Errorf("track: shipping: catalog at generation %d, want %d: %w",
			c.Generation, generation, ErrCatalogBehind)
	}
	cursor, err := s.readCursor()
	if err != nil {
		return nil, err
	}
	if cursor.Generation > c.Generation {
		return nil, fmt.Errorf("track: shipping: cursor at generation %d is ahead of catalog generation %d",
			cursor.Generation, c.Generation)
	}
	if err := fsys.MkdirAll(s.Dst); err != nil {
		return nil, fmt.Errorf("track: shipping: %w", err)
	}
	rep := &ShipReport{
		Generation:    c.Generation,
		SealedEvents:  c.SealedEvents,
		ShippedEvents: cursor.ShippedEvents,
	}
	for _, entry := range c.Segments {
		// Below the cursor and already mirrored: compaction may have merged
		// the covering files since, so only the name check is meaningful.
		if entry.Path != "" && entry.FirstIndex+entry.Events <= cursor.ShippedEvents {
			if _, err := fsys.Stat(filepath.Join(s.Dst, entry.Path)); err == nil {
				continue
			}
		}
		data, err := tlog.VerifySegment(fsys, s.Src, entry, nil)
		if err != nil {
			return nil, fmt.Errorf("track: shipping: %w", err)
		}
		if err := writeFileSync(fsys, s.Dst, entry.Path, data); err != nil {
			return nil, fmt.Errorf("track: shipping %s: %w", entry.Path, err)
		}
		rep.Copied = append(rep.Copied, entry.Path)
	}
	// Mirror the catalog document itself (sans the live run's health — the
	// mirror is a faithful copy of the listing we just shipped), making Dst
	// self-describing and openable.
	var doc bytes.Buffer
	if err := tlog.EncodeCatalog(&doc, c); err != nil {
		return nil, fmt.Errorf("track: shipping catalog: %w", err)
	}
	if err := writeFileSync(fsys, s.Dst, tlog.CatalogFileName, doc.Bytes()); err != nil {
		return nil, fmt.Errorf("track: shipping catalog: %w", err)
	}
	cursor = tlog.ShipCursor{
		FormatVersion: tlog.ShipCursorFormatVersion,
		Generation:    c.Generation,
		ShippedEvents: c.SealedEvents,
	}
	var enc bytes.Buffer
	if err := tlog.EncodeShipCursor(&enc, &cursor); err != nil {
		return nil, fmt.Errorf("track: shipping: %w", err)
	}
	if err := writeFileSync(fsys, s.Src, tlog.ShipCursorFileName, enc.Bytes()); err != nil {
		return nil, fmt.Errorf("track: shipping: persisting cursor: %w", err)
	}
	return rep, nil
}

// readCursor loads the shipper's cursor from Src; a missing file is a zero
// cursor (nothing shipped yet).
func (s *Shipper) readCursor() (tlog.ShipCursor, error) {
	f, err := s.fsys().Open(filepath.Join(s.Src, tlog.ShipCursorFileName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return tlog.ShipCursor{FormatVersion: tlog.ShipCursorFormatVersion}, nil
		}
		return tlog.ShipCursor{}, fmt.Errorf("track: shipping: %w", err)
	}
	defer f.Close()
	c, err := tlog.DecodeShipCursor(f)
	if err != nil {
		return tlog.ShipCursor{}, fmt.Errorf("track: shipping: cursor: %w", err)
	}
	return *c, nil
}
