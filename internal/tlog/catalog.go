package tlog

import (
	"encoding/json"
	"fmt"
	"io"
)

// Segment catalog: the stable, read-only view of a tracker's sealed history
// that external log shippers poll. The tracker publishes one catalog
// document (catalog.json in the spill directory, rewritten atomically after
// every seal and compaction); a shipper that re-reads it sees a consistent
// generation — which segments exist, where each one's file lives, which
// index range and epoch it covers, its size and its content hash — without
// ever touching the tracker itself. Segment files are immutable once listed,
// so a shipper may copy any listed file at leisure and verify the copy
// against SHA256; compaction retires files only after the catalog generation
// that stops listing them is in place.
//
// The document is plain JSON so shippers need no Go in the loop; Decode
// validates structure on the way in, making the catalog safe to consume
// from untrusted or half-written files.

// CatalogFormatVersion is the catalog document version this package writes
// and accepts.
const CatalogFormatVersion = 1

// CatalogFileName is the catalog's file name inside a spill directory —
// shared by the tracker that publishes it and the tools that read it.
const CatalogFileName = "catalog.json"

// CatalogPrevFileName is the previous catalog generation, kept beside
// catalog.json by the publisher. catalog.json itself is replaced by atomic
// rename, but a power cut can still leave it torn on some filesystems;
// recovery falls back to this copy, losing at most one generation of
// listing (never any segment data — segment files are immutable).
const CatalogPrevFileName = CatalogFileName + ".prev"

// QuarantineSuffix is appended to a damaged file's name when recovery sets
// it aside instead of deleting it: a torn segment tail, an orphan spill file
// a crash left unlisted, or an unreadable catalog. Quarantined files are
// ignored by every reader (they no longer match *.mvcseg or catalog.json)
// but stay on disk for inspection.
const QuarantineSuffix = ".quarantined"

// CatalogSegment describes one sealed segment.
type CatalogSegment struct {
	// Epoch the segment's records belong to (a segment never spans one).
	Epoch int `json:"epoch"`
	// FirstIndex is the global trace index of the segment's first record;
	// Events is how many records it holds.
	FirstIndex int `json:"first_index"`
	Events     int `json:"events"`
	// Bytes is the encoded container size.
	Bytes int64 `json:"bytes"`
	// Path is the segment's spill file, relative to the catalog's own
	// directory; empty for a segment still held in memory.
	Path string `json:"path,omitempty"`
	// SHA256 is the hex content hash of the encoded container, when known —
	// what a shipper verifies its copy against.
	SHA256 string `json:"sha256,omitempty"`
	// SealedUnix is when the segment was sealed (Unix seconds), zero when
	// unknown. Retention's MaxAge clock; survives a reopen.
	SealedUnix int64 `json:"sealed_unix,omitempty"`
}

// ResumeComponent is one mixed-clock component in a resume manifest: the
// component at vector index i is Components[i] of the manifest. Kind is
// "thread" or "object"; ID is the dense thread or object identifier.
type ResumeComponent struct {
	Kind string `json:"kind"`
	ID   int    `json:"id"`
}

// Resume component kinds.
const (
	ResumeThread = "thread"
	ResumeObject = "object"
)

// CatalogResume is the manifest a tracker needs to resume a run from its
// sealed history alone: the epoch counter, where each epoch began, the
// requested clock representation, the registered thread and object names
// (dense IDs are positions), the ordered component set (positions are
// vector indices — components are append-only within an epoch, so the
// manifest set is always a suffix-superset of any sealed record's width),
// and the revealed thread–object edges. Everything else a live tracker
// holds — per-thread and per-object clocks — is reconstructed by replaying
// the current epoch's segments, whose stamps ARE those clocks.
type CatalogResume struct {
	// Epoch is the current epoch (compactions so far).
	Epoch int `json:"epoch"`
	// EpochStarts[i] is the trace index where epoch i+1 began; exactly
	// Epoch entries.
	EpochStarts []int `json:"epoch_starts,omitempty"`
	// Backend is the clock representation ("flat", "tree" or "auto") that
	// trackers which offered a choice recorded. It is still parsed and
	// checked against those three names so their directories open, but
	// recovery ignores it (every clock is a flat vector) and no writer
	// emits it any more.
	Backend string `json:"backend,omitempty"`
	// Threads and Objects are the registered names; index is the dense ID.
	Threads []string `json:"threads,omitempty"`
	Objects []string `json:"objects,omitempty"`
	// Components is the ordered component set of the current epoch.
	Components []ResumeComponent `json:"components,omitempty"`
	// Edges lists the revealed thread–object edges as [thread, object]
	// ID pairs.
	Edges [][2]int `json:"edges,omitempty"`
}

// validate checks a resume manifest against the catalog's sealed-event
// count. Every ID is bounds-checked against the name tables, so a hostile
// document cannot make a recovering tracker allocate beyond its own size.
func (r *CatalogResume) validate(sealedEvents int) error {
	if r.Epoch < 0 {
		return fmt.Errorf("tlog: catalog resume epoch %d", r.Epoch)
	}
	if len(r.EpochStarts) != r.Epoch {
		return fmt.Errorf("tlog: catalog resume has %d epoch starts for epoch %d", len(r.EpochStarts), r.Epoch)
	}
	prev := 0
	for i, s := range r.EpochStarts {
		if s < prev || s > sealedEvents {
			return fmt.Errorf("tlog: catalog resume epoch start %d = %d (prev %d, sealed %d)",
				i, s, prev, sealedEvents)
		}
		prev = s
	}
	switch r.Backend {
	case "", "flat", "tree", "auto":
	default:
		return fmt.Errorf("tlog: catalog resume: unknown backend %q (want flat, tree or auto)", r.Backend)
	}
	seen := make(map[ResumeComponent]bool, len(r.Components))
	for i, c := range r.Components {
		var n int
		switch c.Kind {
		case ResumeThread:
			n = len(r.Threads)
		case ResumeObject:
			n = len(r.Objects)
		default:
			return fmt.Errorf("tlog: catalog resume component %d has kind %q", i, c.Kind)
		}
		if c.ID < 0 || c.ID >= n {
			return fmt.Errorf("tlog: catalog resume component %d (%s %d) out of range [0,%d)", i, c.Kind, c.ID, n)
		}
		if seen[c] {
			return fmt.Errorf("tlog: catalog resume component %d (%s %d) duplicated", i, c.Kind, c.ID)
		}
		seen[c] = true
	}
	for i, e := range r.Edges {
		if e[0] < 0 || e[0] >= len(r.Threads) || e[1] < 0 || e[1] >= len(r.Objects) {
			return fmt.Errorf("tlog: catalog resume edge %d = (%d,%d) out of range (%d threads, %d objects)",
				i, e[0], e[1], len(r.Threads), len(r.Objects))
		}
	}
	return nil
}

// Catalog is the JSON-serializable segment catalog.
type Catalog struct {
	// FormatVersion is CatalogFormatVersion.
	FormatVersion int `json:"format_version"`
	// Generation increases on every publication; a shipper that reads the
	// same generation twice saw the same segment list.
	Generation int64 `json:"generation"`
	// SealedEvents is how many records sealed history covers: segments span
	// global indices [0, SealedEvents) with no gaps (barring lost files).
	SealedEvents int `json:"sealed_events"`
	// Health is empty while the tracker is healthy; otherwise the text of
	// its first error (clock misuse or segment I/O — see Tracker.Err).
	Health string `json:"health,omitempty"`
	// AutoSealDisarmed reports that automatic sealing hit a spill I/O
	// failure and stopped; history accumulates in memory until the
	// tracker's periodic disk probe, an explicit Seal, or a Compact
	// succeeds and re-arms it.
	AutoSealDisarmed bool `json:"auto_seal_disarmed,omitempty"`
	// DegradedSinceUnix is when (Unix seconds) a persistent spill failure
	// flipped the publishing tracker into degraded mode — tracking
	// continues fully in memory, nothing new reaches disk. Zero while
	// healthy; cleared by the first successful seal after the disk
	// recovers.
	DegradedSinceUnix int64 `json:"degraded_since_unix,omitempty"`
	// RetainedEvents is the retention floor: events below it were retired
	// (deleted or archived) by a RetainPolicy pass, so segments cover
	// [RetainedEvents, SealedEvents) instead of starting at zero. Retired
	// segments always belong to closed epochs, so replay of the current
	// epoch — what recovery needs — is never affected.
	RetainedEvents int `json:"retained_events,omitempty"`
	// Closed reports a clean shutdown: Tracker.Close sealed the tail and
	// published this generation as its last act. A catalog without it was
	// left by a crash (or a still-running tracker).
	Closed bool `json:"closed,omitempty"`
	// Segments lists sealed history, oldest first.
	Segments []CatalogSegment `json:"segments"`
	// Resume, when present, is the manifest track.Open needs to rebuild a
	// live tracker from this directory; see CatalogResume.
	Resume *CatalogResume `json:"resume,omitempty"`
}

// Validate checks the catalog's internal consistency: known version, sane
// counts, segments ordered and gapless from the retention floor, hashes
// well-formed, and the resume manifest (if any) in bounds.
func (c *Catalog) Validate() error {
	if c.FormatVersion != CatalogFormatVersion {
		return fmt.Errorf("tlog: catalog format version %d (want %d)", c.FormatVersion, CatalogFormatVersion)
	}
	if c.Generation < 0 || c.SealedEvents < 0 {
		return fmt.Errorf("tlog: negative catalog counters (generation %d, sealed %d)", c.Generation, c.SealedEvents)
	}
	if c.RetainedEvents < 0 || c.RetainedEvents > c.SealedEvents {
		return fmt.Errorf("tlog: catalog retention floor %d outside [0,%d]", c.RetainedEvents, c.SealedEvents)
	}
	if c.DegradedSinceUnix < 0 {
		return fmt.Errorf("tlog: catalog degraded_since_unix %d is negative", c.DegradedSinceUnix)
	}
	next, epoch := c.RetainedEvents, 0
	for i, sg := range c.Segments {
		if sg.Epoch < 0 || sg.FirstIndex < 0 || sg.Events <= 0 || sg.Bytes < 0 || sg.SealedUnix < 0 {
			return fmt.Errorf("tlog: catalog segment %d has impossible fields %+v", i, sg)
		}
		if sg.FirstIndex != next {
			return fmt.Errorf("tlog: catalog segment %d starts at %d, want %d (gapless from the retention floor)",
				i, sg.FirstIndex, next)
		}
		if sg.Epoch < epoch {
			return fmt.Errorf("tlog: catalog segment %d regresses to epoch %d after %d", i, sg.Epoch, epoch)
		}
		if sg.SHA256 != "" {
			if len(sg.SHA256) != 64 {
				return fmt.Errorf("tlog: catalog segment %d hash %q is not 64 hex digits", i, sg.SHA256)
			}
			for _, r := range sg.SHA256 {
				if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
					return fmt.Errorf("tlog: catalog segment %d hash %q is not lowercase hex", i, sg.SHA256)
				}
			}
		}
		next = sg.FirstIndex + sg.Events
		epoch = sg.Epoch
	}
	if next != c.SealedEvents {
		return fmt.Errorf("tlog: catalog lists %d sealed events, segments cover %d", c.SealedEvents, next)
	}
	if c.Resume != nil {
		if err := c.Resume.validate(c.SealedEvents); err != nil {
			return err
		}
	}
	return nil
}

// EncodeCatalog writes the catalog as indented JSON. The catalog is
// validated first, so a half-built document never reaches shippers.
func EncodeCatalog(w io.Writer, c *Catalog) error {
	if err := c.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return fmt.Errorf("tlog: encoding catalog: %w", err)
	}
	return nil
}

// DecodeCatalog reads and validates one catalog document.
func DecodeCatalog(r io.Reader) (*Catalog, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Catalog
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("tlog: decoding catalog: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
