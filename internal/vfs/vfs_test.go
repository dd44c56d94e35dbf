package vfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "a.txt")
	if err := WriteFile(OS, name, []byte("hello")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(OS, name)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("round trip: got %q", got)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if _, err := OS.Stat(name); err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := OS.Rename(name, filepath.Join(dir, "b.txt")); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if err := OS.Remove(filepath.Join(dir, "b.txt")); err != nil {
		t.Fatalf("Remove: %v", err)
	}
}

func TestGlob(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"e0001.mvcseg", "e0002.mvcseg", "catalog.json", ".seg-1.tmp"} {
		if err := WriteFile(OS, filepath.Join(dir, n), nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Glob(OS, dir, "*.mvcseg")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "e0001.mvcseg"), filepath.Join(dir, "e0002.mvcseg")}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Glob = %v, want %v", got, want)
	}
	// Missing directory: no matches, no error (filepath.Glob contract).
	if got, err := Glob(OS, filepath.Join(dir, "nope"), "*"); err != nil || got != nil {
		t.Fatalf("Glob missing dir = %v, %v", got, err)
	}
	// Malformed pattern still errs.
	if _, err := Glob(OS, dir, "["); err == nil {
		t.Fatal("Glob with bad pattern: want error")
	}
}

func TestFaultyNthRule(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS)
	f.Script(Rule{Ops: Ops(OpFileSync), Nth: 1, Count: 1, Err: syscall.EIO})

	for i := 0; i < 3; i++ {
		file, err := f.Create(filepath.Join(dir, "f"))
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		err = file.Sync()
		file.Close()
		if i == 1 {
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("sync %d: want EIO, got %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
}

func TestFaultyPersistentENOSPCAndHeal(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS)
	f.Script(Rule{Ops: Ops(OpCreate, OpCreateTemp), Err: syscall.ENOSPC})

	if _, err := f.Create(filepath.Join(dir, "x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if _, err := f.CreateTemp(dir, "t-*"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	f.Heal()
	file, err := f.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatalf("after Heal: %v", err)
	}
	file.Close()
}

func TestFaultyPathContains(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS)
	f.Script(Rule{Ops: Ops(OpCreate), PathContains: "catalog", Err: syscall.ENOSPC})

	if file, err := f.Create(filepath.Join(dir, "seg.mvcseg")); err != nil {
		t.Fatalf("unmatched path: %v", err)
	} else {
		file.Close()
	}
	if _, err := f.Create(filepath.Join(dir, "catalog.json")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("matched path: want ENOSPC, got %v", err)
	}
}

func TestFaultyTornWrite(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS)
	f.Script(Rule{Ops: Ops(OpWrite), TornFrac: 0.5, Err: syscall.EIO})

	name := filepath.Join(dir, "torn")
	file, err := f.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	n, err := file.Write([]byte("0123456789"))
	file.Close()
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	if n != 5 {
		t.Fatalf("torn write landed %d bytes, want 5", n)
	}
	got, rerr := os.ReadFile(name)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "01234" {
		t.Fatalf("on-disk torn content = %q", got)
	}
}

func TestFaultyCrashFreezesDirectory(t *testing.T) {
	dir := t.TempDir()

	// Reference run: count durable ops for a tiny workload.
	workload := func(fsys FS, d string) error {
		file, err := fsys.Create(filepath.Join(d, "a")) // op 0
		if err != nil {
			return err
		}
		if _, err := file.Write([]byte("aa")); err != nil { // op 1
			return err
		}
		if err := file.Sync(); err != nil { // op 2
			return err
		}
		if err := file.Close(); err != nil { // op 3
			return err
		}
		if err := fsys.Rename(filepath.Join(d, "a"), filepath.Join(d, "b")); err != nil { // op 4
			return err
		}
		return fsys.SyncDir(d) // op 5
	}

	ref := NewFaulty(OS)
	refDir := filepath.Join(dir, "ref")
	if err := os.MkdirAll(refDir, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := workload(ref, refDir); err != nil {
		t.Fatal(err)
	}
	if ref.Ops() != 6 {
		t.Fatalf("reference ops = %d, want 6", ref.Ops())
	}

	// Crash before the rename: file still named "a", fully written.
	f := NewFaulty(OS)
	f.CrashAt(4)
	crashDir := filepath.Join(dir, "crash")
	if err := os.MkdirAll(crashDir, 0o777); err != nil {
		t.Fatal(err)
	}
	err := workload(f, crashDir)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	if !f.Crashed() {
		t.Fatal("Crashed() = false after crash point")
	}
	// Everything after the crash fails, reads included.
	if _, err := f.Open(filepath.Join(crashDir, "a")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash open: want ErrCrashed, got %v", err)
	}
	// The frozen directory (inspected with the real OS) holds the pre-crash state.
	if _, err := os.Stat(filepath.Join(crashDir, "a")); err != nil {
		t.Fatalf("frozen state: %v", err)
	}
	if _, err := os.Stat(filepath.Join(crashDir, "b")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("rename must not have happened: %v", err)
	}
}

func TestFaultyCrashAtZero(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS)
	f.CrashAt(0)
	if _, err := f.Create(filepath.Join(dir, "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed at op 0, got %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("directory must be untouched: %v %v", entries, err)
	}
}

func TestFaultyReadOpsNotCounted(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(OS, filepath.Join(dir, "x"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(OS)
	file, err := f.Open(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	file.Read(buf)
	file.Close() // close of a read-only file: not durable
	if _, err := f.ReadDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(filepath.Join(dir, "x")); err != nil {
		t.Fatal(err)
	}
	if f.Ops() != 0 {
		t.Fatalf("read-side ops advanced the durable counter: %d", f.Ops())
	}
}

// TestFaultyCrashAtOp: operation identities do not depend on the order the
// operations ran in — a temp file is named by its pattern and ordinal, not
// its random name — and CrashAtOp freezes at the named operation whichever
// order the run takes, letting every operation before it land.
func TestFaultyCrashAtOp(t *testing.T) {
	dir := t.TempDir()
	// run writes a temp file and two named files into dir, the named ones
	// in either order, and returns the ops' fates.
	run := func(f *Faulty, dir string, swap bool) map[string]error {
		fates := map[string]error{}
		tmp, err := f.CreateTemp(dir, ".t-*")
		if err != nil {
			t.Fatal(err)
		}
		_, fates["tmp"] = tmp.Write([]byte("t"))
		tmp.Close()
		os.Remove(tmp.Name())
		names := []string{"a", "b"}
		if swap {
			names[0], names[1] = names[1], names[0]
		}
		for _, n := range names {
			fates[n] = WriteFile(f, filepath.Join(dir, n), []byte(n))
		}
		return fates
	}
	fwd, rev := NewFaulty(OS), NewFaulty(OS)
	run(fwd, dir, false)
	run(rev, dir, true)
	h1, h2 := fwd.History(), rev.History()
	if len(h1) == 0 || len(h1) != len(h2) {
		t.Fatalf("histories of %d and %d ops", len(h1), len(h2))
	}
	set := map[OpID]bool{}
	for _, id := range h1 {
		set[id] = true
	}
	for _, id := range h2 {
		if !set[id] {
			t.Fatalf("%v ran in one order but not the other", id)
		}
	}
	if want := (OpID{Op: OpWrite, Path: dir + "/.t-*#0"}); h1[1] != want {
		t.Fatalf("temp-file write named %v, want %v", h1[1], want)
	}

	// Freeze at the write of a while b is written first: b lands, a is
	// created but never written, and everything after fails.
	writeA := OpID{Op: OpWrite, Path: filepath.Join(dir, "a")}
	os.Remove(filepath.Join(dir, "a"))
	os.Remove(filepath.Join(dir, "b"))
	f := NewFaulty(OS)
	f.CrashAtOp(writeA)
	fates := run(f, dir, true)
	if !f.Crashed() || fates["tmp"] != nil || fates["b"] != nil || !errors.Is(fates["a"], ErrCrashed) {
		t.Fatalf("crash at %v: crashed=%v fates %v", writeA, f.Crashed(), fates)
	}
	if h := f.History(); h[len(h)-1] != writeA {
		t.Fatalf("crash froze at %v, want %v", h[len(h)-1], writeA)
	}
	for name, want := range map[string]string{"a": "", "b": "b"} {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != want {
			t.Fatalf("%s after the crash: %q, %v; want %q", name, got, err, want)
		}
	}
}
