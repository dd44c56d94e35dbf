package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
)

// Op names one filesystem operation class for fault matching and crash-point
// counting.
type Op uint8

// The operation classes Faulty can match on. OpRead, OpOpen, OpReadDir and
// OpStat are read-side and never advance the durable-op counter; everything
// else mutates the directory's durable state.
const (
	OpCreate Op = iota
	OpCreateTemp
	OpOpen
	OpRename
	OpRemove
	OpReadDir
	OpMkdir
	OpSyncDir
	OpStat
	OpRead
	OpWrite
	OpFileSync
	OpClose
	opMax
)

var opNames = [...]string{
	OpCreate: "create", OpCreateTemp: "create-temp", OpOpen: "open",
	OpRename: "rename", OpRemove: "remove", OpReadDir: "readdir",
	OpMkdir: "mkdir", OpSyncDir: "sync-dir", OpStat: "stat",
	OpRead: "read", OpWrite: "write", OpFileSync: "fsync", OpClose: "close",
}

// String names the operation class.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpSet is a bitmask of operation classes.
type OpSet uint16

// Ops builds an OpSet from the given operations.
func Ops(ops ...Op) OpSet {
	var s OpSet
	for _, o := range ops {
		s |= 1 << o
	}
	return s
}

// Has reports whether the set contains op.
func (s OpSet) Has(op Op) bool { return s&(1<<op) != 0 }

// AllOps matches every operation class.
const AllOps = OpSet(1<<opMax) - 1

// MutatingOps matches every operation that changes durable state — the ops
// the crash-point counter counts. (Close of a written file is counted too,
// but is matched via OpClose.)
var MutatingOps = Ops(OpCreate, OpCreateTemp, OpRename, OpRemove, OpMkdir, OpSyncDir, OpWrite, OpFileSync, OpClose)

// ErrCrashed is the error every operation returns after a Faulty filesystem
// reached its crash point: the directory is frozen exactly as a power cut at
// that durable-op index would have left it.
var ErrCrashed = errors.New("vfs: filesystem crashed (frozen at crash point)")

// ErrInjected is the default injected error for rules that do not name one.
var ErrInjected = errors.New("vfs: injected fault")

// Rule is one deterministic fault: among operations matching Ops (and, when
// PathContains is non-empty, whose path contains it), occurrences Nth
// through Nth+Count-1 fail with Err. Count <= 0 means every occurrence from
// Nth on — a persistent fault until Heal. TornFrac, for OpWrite rules,
// writes that fraction of the buffer through to the base filesystem before
// failing, leaving a genuinely torn file.
type Rule struct {
	// Ops selects the operation classes the rule applies to.
	Ops OpSet
	// PathContains, when non-empty, restricts the rule to paths containing
	// this substring.
	PathContains string
	// Nth is the first matching occurrence that fails (0-based).
	Nth int64
	// Count bounds how many occurrences fail; <= 0 means unbounded.
	Count int64
	// Err is the injected error (ErrInjected when nil). Wrapped, so
	// errors.Is sees the original (e.g. syscall.ENOSPC).
	Err error
	// TornFrac applies to OpWrite: the fraction of the buffer written
	// through before the failure (0 tears at the very start).
	TornFrac float64

	matched int64
}

// OpID names one durable operation by what it did rather than by when it
// ran: its class, the path it acted on, and how many earlier durable
// operations of that class acted on the same path. A file opened by
// CreateTemp is named by its directory and pattern plus the ordinal of that
// call among the CreateTemp calls with the same directory and pattern
// ("dir/.seg-*.tmp#2"), never by its random name. Goroutines that share the
// filesystem can interleave their operations differently from run to run,
// which moves every global op index; a run that performs the same
// operations names them with the same OpIDs.
type OpID struct {
	Op   Op
	Path string
	Nth  int64
}

// String renders the identity as "class path #nth".
func (id OpID) String() string { return fmt.Sprintf("%s %s #%d", id.Op, id.Path, id.Nth) }

// opKey is an OpID without its ordinal.
type opKey struct {
	op   Op
	path string
}

// fate is the decided outcome of one intercepted operation.
type fate struct {
	err  error
	torn float64 // meaningful for writes when err != nil and rule-injected
	tear bool
}

// Faulty wraps a base FS with a deterministic fault injector. Zero overhead
// is not a goal (OS is the production path); determinism is: the same
// operation sequence meets the same fates, which is what makes an
// exhaustive crash-point sweep possible.
type Faulty struct {
	base FS

	mu      sync.Mutex
	rules   []*Rule
	ops     int64 // durable (mutating) operations seen so far
	crashAt int64 // durable-op index the crash freezes at; -1 never
	crashed bool
	// history is every durable operation seen, in order; seen counts them
	// per class and path, the next OpID.Nth. With byID, the crash freezes
	// at the operation named crashID instead of at index crashAt.
	history []OpID
	seen    map[opKey]int64
	byID    bool
	crashID OpID
}

// NewFaulty wraps base with an injector that (until scripted) injects
// nothing.
func NewFaulty(base FS) *Faulty {
	return &Faulty{base: base, crashAt: -1, seen: map[opKey]int64{}}
}

// Script replaces the fault schedule. Rules are evaluated in order; the
// first match decides the operation's fate.
func (f *Faulty) Script(rules ...Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = make([]*Rule, len(rules))
	for i := range rules {
		r := rules[i]
		f.rules[i] = &r
	}
}

// Heal drops every scripted rule — the disk works again. A crash point is
// not healed; a crashed filesystem stays frozen.
func (f *Faulty) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// CrashAt freezes the filesystem at durable-op index k (0-based): the k-th
// mutating operation and everything after it — reads included — fail with
// ErrCrashed and change nothing, leaving the directory exactly as a crash
// between op k-1 and op k would. k < 0 disables the crash point.
func (f *Faulty) CrashAt(k int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt, f.byID = k, false
	f.crashed = false
}

// CrashAtOp freezes the filesystem at the durable operation named id, as
// CrashAt does at an index: that operation and everything after it fail
// with ErrCrashed and change nothing. Where goroutines interleave their
// operations differently from run to run, the operation at a given index
// changes, but the one named id does not.
func (f *Faulty) CrashAtOp(id OpID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt, f.byID, f.crashID = -1, true, id
	f.crashed = false
}

// Crashed reports whether the crash point has been reached.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Ops returns how many durable (mutating) operations the filesystem has
// seen — the op-index space CrashAt freezes in. Faulted operations count
// too: the index of an op does not depend on the fates of the ops before it.
func (f *Faulty) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// History returns the durable operations seen so far, in the order they
// ran — once crashed, the last is the one the crash froze at.
func (f *Faulty) History() []OpID {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]OpID(nil), f.history...)
}

// decide advances the counters and picks the operation's fate, and names a
// durable operation by its OpID, whose path is name. mutating marks ops
// that change durable state (for OpClose the caller knows whether the file
// was writable).
func (f *Faulty) decide(op Op, path, name string, mutating bool) (fate, OpID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return fate{err: fmt.Errorf("vfs: %s %s: %w", op, path, ErrCrashed)}, OpID{}
	}
	var id OpID
	if mutating {
		n := f.ops
		f.ops++
		k := opKey{op, name}
		id = OpID{Op: op, Path: name, Nth: f.seen[k]}
		f.seen[k]++
		f.history = append(f.history, id)
		if (f.crashAt >= 0 && n >= f.crashAt) || (f.byID && id == f.crashID) {
			f.crashed = true
			return fate{err: fmt.Errorf("vfs: %s %s: %w", op, path, ErrCrashed)}, id
		}
	}
	for _, r := range f.rules {
		if !r.Ops.Has(op) {
			continue
		}
		if r.PathContains != "" && !contains(path, r.PathContains) {
			continue
		}
		m := r.matched
		r.matched++
		if m < r.Nth || (r.Count > 0 && m >= r.Nth+r.Count) {
			continue
		}
		err := r.Err
		if err == nil {
			err = ErrInjected
		}
		return fate{
			err:  fmt.Errorf("vfs: injected fault on %s %s: %w", op, path, err),
			torn: r.TornFrac,
			tear: op == OpWrite,
		}, id
	}
	return fate{}, id
}

// contains is strings.Contains without the import.
func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Create implements FS.
func (f *Faulty) Create(name string) (File, error) {
	if ft, _ := f.decide(OpCreate, name, name, true); ft.err != nil {
		return nil, ft.err
	}
	file, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: f, base: file, path: name, name: name, writable: true}, nil
}

// CreateTemp implements FS.
func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	name := dir + "/" + pattern
	ft, id := f.decide(OpCreateTemp, name, name, true)
	if ft.err != nil {
		return nil, ft.err
	}
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: f, base: file, path: file.Name(), name: fmt.Sprintf("%s#%d", name, id.Nth), writable: true}, nil
}

// Open implements FS.
func (f *Faulty) Open(name string) (File, error) {
	if ft, _ := f.decide(OpOpen, name, name, false); ft.err != nil {
		return nil, ft.err
	}
	file, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: f, base: file, path: name, name: name}, nil
}

// Rename implements FS.
func (f *Faulty) Rename(oldpath, newpath string) error {
	if ft, _ := f.decide(OpRename, newpath, newpath, true); ft.err != nil {
		return ft.err
	}
	return f.base.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *Faulty) Remove(name string) error {
	if ft, _ := f.decide(OpRemove, name, name, true); ft.err != nil {
		return ft.err
	}
	return f.base.Remove(name)
}

// ReadDir implements FS.
func (f *Faulty) ReadDir(name string) ([]fs.DirEntry, error) {
	if ft, _ := f.decide(OpReadDir, name, name, false); ft.err != nil {
		return nil, ft.err
	}
	return f.base.ReadDir(name)
}

// MkdirAll implements FS.
func (f *Faulty) MkdirAll(name string) error {
	if ft, _ := f.decide(OpMkdir, name, name, true); ft.err != nil {
		return ft.err
	}
	return f.base.MkdirAll(name)
}

// SyncDir implements FS.
func (f *Faulty) SyncDir(name string) error {
	if ft, _ := f.decide(OpSyncDir, name, name, true); ft.err != nil {
		return ft.err
	}
	return f.base.SyncDir(name)
}

// Stat implements FS.
func (f *Faulty) Stat(name string) (fs.FileInfo, error) {
	if ft, _ := f.decide(OpStat, name, name, false); ft.err != nil {
		return nil, ft.err
	}
	return f.base.Stat(name)
}

// faultyFile threads per-file operations back through the injector. path
// is the file's name; name is its name in OpIDs.
type faultyFile struct {
	f          *Faulty
	base       File
	path, name string
	writable   bool
}

func (ff *faultyFile) Name() string { return ff.base.Name() }

func (ff *faultyFile) Read(p []byte) (int, error) {
	if ft, _ := ff.f.decide(OpRead, ff.path, ff.name, false); ft.err != nil {
		return 0, ft.err
	}
	return ff.base.Read(p)
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	ft, _ := ff.f.decide(OpWrite, ff.path, ff.name, true)
	if ft.err == nil {
		return ff.base.Write(p)
	}
	if ft.tear {
		// A torn write: part of the buffer really lands before the failure,
		// like a page-sized write split by a power cut.
		n := int(float64(len(p)) * ft.torn)
		if n > len(p) {
			n = len(p)
		}
		if n > 0 {
			if wrote, werr := ff.base.Write(p[:n]); werr != nil {
				return wrote, ft.err
			}
			return n, ft.err
		}
	}
	return 0, ft.err
}

func (ff *faultyFile) Sync() error {
	if ft, _ := ff.f.decide(OpFileSync, ff.path, ff.name, true); ft.err != nil {
		return ft.err
	}
	return ff.base.Sync()
}

func (ff *faultyFile) Close() error {
	if ft, _ := ff.f.decide(OpClose, ff.path, ff.name, ff.writable); ft.err != nil {
		ff.base.Close() // release the descriptor regardless
		return ft.err
	}
	return ff.base.Close()
}
