package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mixedclock/internal/vfs"
)

// Span names. Every span is recorded by this package around a call into a
// layer's public functions; nothing inside the tracker is instrumented.
const (
	spanCommit  = "track.commit" // a Thread.Do or Batch.Commit of ≥1 ms
	spanReveal  = "core.reveal"  // a commit holding an edge's first touch in its epoch
	spanSeal    = "track.seal"
	spanCompact = "track.compact"
	spanOpen    = "track.open"
	spanClose   = "track.close"
	spanStream  = "track.stream"
	spanSync    = "track.monitor.sync"
	spanWrite   = "vfs.write"
	spanRead    = "vfs.read"
	spanFsync   = "vfs.fsync"
	spanRename  = "vfs.rename"
	spanRemove  = "vfs.remove"
)

// Driver ids of spans that no driver goroutine recorded.
const (
	driverMain  = -1 // the goroutine running set-up, drain and the gate
	driverOther = -2 // any goroutine the benchmark did not start (the monitor's)
)

// span is one timed interval. Parent is the id of the span that caused it
// (0 for none); times are nanoseconds since the pass started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Driver int    `json:"driver"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanIDs numbers spans across every pass of the process, so the spans of
// several workloads can share one -spans file.
var spanIDs atomic.Int64

// recorder keeps a traced pass's spans in memory.
type recorder struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	// owners maps a goroutine id to the driver running on it, so a vfs call
	// finds its parent span without any help from the tracker.
	owners map[int64]*owner
}

// owner is one goroutine the benchmark drives the tracker from. cur is the
// lifecycle span (seal, compact, open, close) it is inside, if any.
type owner struct {
	driver int
	cur    atomic.Int64
}

func newRecorder(base time.Time) *recorder {
	return &recorder{base: base, owners: map[int64]*owner{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// bind registers the calling goroutine as driver d.
func (r *recorder) bind(d int) *owner {
	o := &owner{driver: d}
	r.mu.Lock()
	r.owners[goid()] = o
	r.mu.Unlock()
	return o
}

// ownerOf returns the calling goroutine's owner, nil for goroutines the
// benchmark did not bind.
func (r *recorder) ownerOf() *owner {
	id := goid()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.owners[id]
}

// lifecycle runs fn as a span named name on o; vfs calls fn makes on the
// same goroutine become its children.
func (r *recorder) lifecycle(o *owner, name string, fn func()) {
	s := span{Name: name, ID: spanIDs.Add(1), Driver: o.driver}
	s.Parent = o.cur.Swap(s.ID)
	s.Start = r.now()
	fn()
	s.End = r.now()
	o.cur.Store(s.Parent)
	r.add(s)
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 17 [running]:"). It costs about a microsecond, which only
// the traced pass's vfs calls and set-up pay.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// writeSpans appends the spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedFS is the vfs layer's probe: every write, read, fsync, rename and
// remove the store makes becomes a span, parented to the lifecycle span
// its goroutine is inside.
type timedFS struct {
	inner vfs.FS
	rec   *recorder
}

// call times fn as a vfs span attributed to the calling goroutine.
func (t *timedFS) call(name string, o *owner, fn func() int64) {
	s := span{Name: name, ID: spanIDs.Add(1), Driver: driverOther}
	if o != nil {
		s.Driver, s.Parent = o.driver, o.cur.Load()
	}
	s.Start = t.rec.now()
	s.Bytes = fn()
	s.End = t.rec.now()
	t.rec.add(s)
}

func (t *timedFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t, owner: t.rec.ownerOf()}, nil
}

func (t *timedFS) Create(name string) (vfs.File, error) { return t.wrap(t.inner.Create(name)) }
func (t *timedFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return t.wrap(t.inner.CreateTemp(dir, pattern))
}
func (t *timedFS) Open(name string) (vfs.File, error)         { return t.wrap(t.inner.Open(name)) }
func (t *timedFS) ReadDir(name string) ([]fs.DirEntry, error) { return t.inner.ReadDir(name) }
func (t *timedFS) MkdirAll(name string) error                 { return t.inner.MkdirAll(name) }
func (t *timedFS) Stat(name string) (fs.FileInfo, error)      { return t.inner.Stat(name) }

func (t *timedFS) Rename(oldpath, newpath string) (err error) {
	t.call(spanRename, t.rec.ownerOf(), func() int64 { err = t.inner.Rename(oldpath, newpath); return 0 })
	return err
}

func (t *timedFS) Remove(name string) (err error) {
	t.call(spanRemove, t.rec.ownerOf(), func() int64 { err = t.inner.Remove(name); return 0 })
	return err
}

func (t *timedFS) SyncDir(name string) (err error) {
	t.call(spanFsync, t.rec.ownerOf(), func() int64 { err = t.inner.SyncDir(name); return 0 })
	return err
}

// timedFile attributes its calls to the goroutine that opened it.
type timedFile struct {
	vfs.File
	fs    *timedFS
	owner *owner
}

func (f *timedFile) Write(p []byte) (n int, err error) {
	f.fs.call(spanWrite, f.owner, func() int64 { n, err = f.File.Write(p); return int64(n) })
	return n, err
}

func (f *timedFile) Read(p []byte) (n int, err error) {
	f.fs.call(spanRead, f.owner, func() int64 { n, err = f.File.Read(p); return int64(n) })
	return n, err
}

func (f *timedFile) Sync() (err error) {
	f.fs.call(spanFsync, f.owner, func() int64 { err = f.File.Sync(); return 0 })
	return err
}
