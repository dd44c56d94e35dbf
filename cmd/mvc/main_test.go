package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/trace"
	"mixedclock/internal/track"
	"mixedclock/internal/vfs"
)

func writeTempTrace(t *testing.T) (string, *event.Trace) {
	t.Helper()
	tr := event.NewTrace()
	tr.Append(0, 0, event.OpWrite)
	tr.Append(1, 0, event.OpRead)
	tr.Append(1, 1, event.OpWrite)
	tr.Append(2, 2, event.OpWrite)
	tr.Append(0, 1, event.OpWrite)

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	return path, tr
}

func TestLoadTrace(t *testing.T) {
	path, tr := writeTempTrace(t)
	got, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("loaded %d events, want %d", got.Len(), tr.Len())
	}
	if _, err := loadTrace(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadTraceRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrace(path); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestAnalyzeOutput(t *testing.T) {
	_, tr := writeTempTrace(t)
	var buf bytes.Buffer
	if err := analyze(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"minimum vertex cover", "mixed (optimal)", "thread-based", "savings"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestTimestampOutput(t *testing.T) {
	_, tr := writeTempTrace(t)
	var buf bytes.Buffer
	if err := timestamp(&buf, tr, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "components:") || !strings.Contains(out, "more; use -n 0") {
		t.Errorf("timestamp output:\n%s", out)
	}
	buf.Reset()
	if err := timestamp(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "more;") {
		t.Error("-n 0 should print everything")
	}
}

func TestOrderOutput(t *testing.T) {
	_, tr := writeTempTrace(t)
	var buf bytes.Buffer
	if err := order(&buf, tr, 0, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "happened before") {
		t.Errorf("order output: %s", buf.String())
	}
	buf.Reset()
	if err := order(&buf, tr, 0, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "concurrent") {
		t.Errorf("order output: %s", buf.String())
	}
	if err := order(&buf, tr, -1, 0); err == nil {
		t.Error("bad indices accepted")
	}
	if err := order(&buf, tr, 0, 99); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestDetectOutput(t *testing.T) {
	_, tr := writeTempTrace(t)
	var buf bytes.Buffer
	if err := detectCmd(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "census:") {
		t.Errorf("detect output: %s", buf.String())
	}
}

// TestDetectGolden pins `mvc detect` byte for byte on a 600-event
// lock-striped trace (`mvc gen -workload lock-striped -threads 8 -objects 8
// -events 600 -reads 0.3 -seed 5`). detect.golden was written by the
// quadratic implementation — the all-pairs mixed-stamp census and the
// happened-before oracle's pair rule — so the linear one must reproduce it.
func TestDetectGolden(t *testing.T) {
	tr, err := loadTrace(filepath.Join("testdata", "detect.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "detect.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := detectCmd(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("mvc detect output differs from testdata/detect.golden:\n%s", buf.Bytes())
	}
}

// TestDetectLiveGolden pins `mvc detect -live` byte for byte on the same
// 600-event trace, spilled by `mvc export -live -spill DIR -seal 50` (one
// replaying goroutine, so the sealed records are deterministic): an
// unbounded window, a 16-event window, and a 16-event window with an -order
// watch. detect_live.golden holds the three outputs in that order, each
// under an "== detect -live FLAGS" line. Merging the spill files with
// `mvc compact` must not change a byte.
func TestDetectLiveGolden(t *testing.T) {
	tr, err := loadTrace(filepath.Join("testdata", "detect.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "detect_live.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := exportLive(io.Discard, tr, filepath.Join(dir, "live.mvclog"), "full", spill, 50, 0); err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		flags  string
		window int
		order  string
	}{
		{"-window 0", 0, ""},
		{"-window 16", 16, ""},
		{"-window 16 -order O1,O2", 16, "O1,O2"},
	}
	detectAll := func() []byte {
		var buf bytes.Buffer
		for _, r := range runs {
			fmt.Fprintf(&buf, "== detect -live %s\n", r.flags)
			if err := detectLive(&buf, spill, false, r.window, r.order); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if got := detectAll(); !bytes.Equal(got, want) {
		t.Fatalf("mvc detect -live output differs from testdata/detect_live.golden:\n%s", got)
	}
	if err := compactCmd(io.Discard, []string{spill}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := detectAll(); !bytes.Equal(got, want) {
		t.Fatalf("mvc detect -live after compact differs from testdata/detect_live.golden:\n%s", got)
	}
}

// TestDetectLiveLegacyDirectory runs `mvc detect -live -dir` over
// testdata/legacy-spill: the same 600-event spill as TestDetectLiveGolden,
// but written before the derived record tag existed, so its segments hold
// only full and delta records. The output must still equal
// detect_live.golden byte for byte.
func TestDetectLiveLegacyDirectory(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "detect_live.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "legacy-spill")
	var buf bytes.Buffer
	for _, r := range []struct {
		flags  string
		window int
		order  string
	}{
		{"-window 0", 0, ""},
		{"-window 16", 16, ""},
		{"-window 16 -order O1,O2", 16, "O1,O2"},
	} {
		fmt.Fprintf(&buf, "== detect -live %s\n", r.flags)
		if err := detectLive(&buf, dir, false, r.window, r.order); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("mvc detect -live on the legacy directory differs from testdata/detect_live.golden:\n%s", buf.Bytes())
	}
}

// TestExportLiveGolden pins the bytes the live pipeline seals: for
// `mvc gen ARGS | mvc export -live -out L -spill DIR -seal S`, the SHA-256
// of every .mvcseg file and of L must match testdata/export_live.golden,
// one "[CASE ]seal=S NAME HASH" line each, L named live.mvclog. The first
// case is `-events 2000 -seed 3` at S = 50, 997 and 5000. Its threads
// hold 40 records each, fewer than a periodic sync, so the "sync" case
// runs 4 threads over 1000 objects: each thread writes 250 or more records
// a segment, most on an object new to the segment, which no record may be
// derived from, so the thread's periodic full records land where the sync
// interval puts them, and a change to tlog.DefaultSyncEvery changes the
// segment hashes. catalog.json is left out: it records seal times.
func TestExportLiveGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "export_live.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var got bytes.Buffer
	for _, c := range []struct {
		name  string
		gen   []string
		seals []int
	}{
		{"", []string{"-events", "2000", "-seed", "3"}, []int{50, 997, 5000}},
		{"sync", []string{"-threads", "4", "-objects", "1000", "-events", "3000", "-seed", "3"}, []int{1000, 5000}},
	} {
		prefix := ""
		if c.name != "" {
			prefix = c.name + " "
		}
		tracePath := filepath.Join(dir, "trace"+c.name+".jsonl")
		if err := gen(append(c.gen, "-out", tracePath), io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		tr, err := loadTrace(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		for _, seal := range c.seals {
			out := filepath.Join(dir, fmt.Sprintf("live%s-%d.mvclog", c.name, seal))
			spill := filepath.Join(dir, fmt.Sprintf("spill%s-%d", c.name, seal))
			if err := exportLive(io.Discard, tr, out, "full", spill, seal, 0); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(spill, "*.mvcseg"))
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range append(segs, out) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				name := filepath.Base(path)
				if path == out {
					name = "live.mvclog"
				}
				sum := sha256.Sum256(data)
				fmt.Fprintf(&got, "%sseal=%d %s %s\n", prefix, seal, name, hex.EncodeToString(sum[:]))
			}
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("mvc export -live bytes differ from testdata/export_live.golden:\n%s", got.Bytes())
	}
}

// TestSegmentsTagMix pins `mvc segments`' per-segment header — B/event and
// the counts of full, delta, derived-explicit and derived-implied records —
// on a tracker-produced spill: every record is derived except where its
// thread or its object first appears in the segment, and most derived
// records are implied.
func TestSegmentsTagMix(t *testing.T) {
	tr, err := loadTrace(filepath.Join("testdata", "detect.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := exportLive(io.Discard, tr, filepath.Join(dir, "live.mvclog"), "full", spill, 100, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := segmentsCmd(&buf, []string{spill}, "", 1); err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`events \[(\d+),(\d+)\], (\d+) events, ([\d.]+) B/event \((\d+) full, (\d+) delta, (\d+) derived-explicit, (\d+) derived-implied\)`)
	segs, derived, implied := 0, 0, 0
	for _, line := range strings.Split(buf.String(), "\n") {
		m := header.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var n [9]int
		for i, g := range m {
			if i != 0 && i != 4 { // 4 is B/event
				n[i], _ = strconv.Atoi(g)
			}
		}
		if bpe, err := strconv.ParseFloat(m[4], 64); err != nil || bpe <= 0 {
			t.Fatalf("%q: B/event %q", line, m[4])
		}
		first, last, count := n[1], n[2], n[3]
		thr, obj := map[event.ThreadID]bool{}, map[event.ObjectID]bool{}
		firsts := 0
		for i := first; i <= last; i++ {
			e := tr.At(i)
			if !thr[e.Thread] || !obj[e.Object] {
				firsts++
			}
			thr[e.Thread], obj[e.Object] = true, true
		}
		if n[5]+n[6] != firsts || n[7]+n[8] != count-firsts {
			t.Fatalf("%q: want %d first appearances, the other %d records derived", line, firsts, count-firsts)
		}
		segs++
		derived += n[7] + n[8]
		implied += n[8]
	}
	if segs != 6 || derived == 0 || 2*implied <= derived {
		t.Fatalf("listed %d segments with %d derived records, %d implied; want 6, some, mostly implied:\n%s", segs, derived, implied, buf.String())
	}
}

func TestRecoverOutput(t *testing.T) {
	_, tr := writeTempTrace(t)
	var buf bytes.Buffer
	if err := recover_(&buf, tr, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "recovery line") {
		t.Errorf("recover output: %s", buf.String())
	}
	if err := recover_(&buf, tr, -1); err == nil {
		t.Error("missing -fail accepted")
	}
}

func TestValidateOutput(t *testing.T) {
	_, tr := writeTempTrace(t)
	var buf bytes.Buffer
	if err := validate(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, scheme := range []string{"mixed/offline", "thread-based", "object-based", "chain"} {
		if !strings.Contains(out, scheme) {
			t.Errorf("validate output missing %q", scheme)
		}
	}
	if !strings.Contains(out, "all schemes valid") {
		t.Errorf("validate output: %s", out)
	}
}

func TestGraphOutput(t *testing.T) {
	_, tr := writeTempTrace(t)
	var buf bytes.Buffer
	if err := graph(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graph threadobject") {
		t.Errorf("graph output: %s", buf.String())
	}
}

func TestExportInspectRoundTrip(t *testing.T) {
	_, tr := writeTempTrace(t)
	logPath := filepath.Join(t.TempDir(), "t.mvclog")
	var buf bytes.Buffer
	if err := export(&buf, tr, logPath, "full"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote 5 timestamped events") {
		t.Errorf("export output: %s", buf.String())
	}
	buf.Reset()
	if err := inspect(&buf, logPath, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "validated 5 events") {
		t.Errorf("inspect output: %s", buf.String())
	}

	if err := export(&buf, tr, "", "full"); err == nil {
		t.Error("export without -out accepted")
	}
	if err := inspect(&buf, "", 0); err == nil {
		t.Error("inspect without -log accepted")
	}
}

func TestExportDeltaInspectRoundTrip(t *testing.T) {
	_, tr := writeTempTrace(t)
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.mvclog")
	deltaPath := filepath.Join(dir, "delta.mvclog")
	var buf bytes.Buffer
	if err := export(&buf, tr, fullPath, "full"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := export(&buf, tr, deltaPath, "delta"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "delta format") {
		t.Errorf("export output: %s", buf.String())
	}
	// inspect auto-detects the format; both logs validate and print the
	// same stamps.
	var fullOut, deltaOut bytes.Buffer
	if err := inspect(&fullOut, fullPath, 0); err != nil {
		t.Fatal(err)
	}
	if err := inspect(&deltaOut, deltaPath, 0); err != nil {
		t.Fatal(err)
	}
	if fullOut.String() != deltaOut.String() {
		t.Errorf("formats decode differently:\nfull:\n%s\ndelta:\n%s", fullOut.String(), deltaOut.String())
	}
	if err := export(&buf, tr, deltaPath, "cbor"); err == nil {
		t.Error("unknown format accepted")
	}
}

// liveTrace builds a trace long enough to force several seals at -seal 20.
func liveTrace(t *testing.T) *event.Trace {
	t.Helper()
	tr := event.NewTrace()
	for i := 0; i < 120; i++ {
		tr.Append(event.ThreadID(i%3), event.ObjectID((i*5)%4), event.Op(i%2))
	}
	return tr
}

func TestExportLiveAndSegments(t *testing.T) {
	tr := liveTrace(t)
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	logPath := filepath.Join(dir, "live.mvclog")
	var buf bytes.Buffer
	if err := exportLive(&buf, tr, logPath, "delta", spill, 20, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "live pipeline") || !strings.Contains(out, "sealed") {
		t.Errorf("export -live output: %s", out)
	}
	// The live log must inspect and validate like any other log.
	buf.Reset()
	if err := inspect(&buf, logPath, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "validated 120 events") {
		t.Errorf("inspect of live log: %s", buf.String())
	}

	// The spill directory holds the sealed prefix (plus the catalog, which
	// the directory expansion must skip); segments must list it...
	entries, err := os.ReadDir(spill)
	if err != nil || len(entries) < 3 {
		t.Fatalf("spill dir: %d entries, err=%v", len(entries), err)
	}
	files := []string{spill} // a directory stands for its *.mvcseg files
	buf.Reset()
	if err := segmentsCmd(&buf, files, "", 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "segments,") || !strings.Contains(buf.String(), "epoch 0, events [0,") {
		t.Errorf("segments listing: %s", buf.String())
	}
	// ...and merge it into a log whose records match the live export's
	// sealed prefix.
	merged := filepath.Join(dir, "merged.mvclog")
	buf.Reset()
	if err := segmentsCmd(&buf, files, merged, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "merged") {
		t.Errorf("segments merge output: %s", buf.String())
	}
	mf, err := os.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	mTr, mStamps, err := tlog.ReadAll(mf)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	lTr, lStamps, err := tlog.ReadAll(lf)
	if err != nil {
		t.Fatal(err)
	}
	if mTr.Len() == 0 || mTr.Len() > lTr.Len() {
		t.Fatalf("merged %d events, live log has %d", mTr.Len(), lTr.Len())
	}
	for i := 0; i < mTr.Len(); i++ {
		if mTr.At(i) != lTr.At(i) || !mStamps[i].Equal(lStamps[i]) {
			t.Fatalf("merged record %d diverges from live log", i)
		}
	}

	if err := segmentsCmd(&buf, nil, "", 0); err == nil {
		t.Error("segments without files accepted")
	}

	// A partial spill set (missing prefix) must warn: the merged log
	// renumbers events, and silence would misrepresent the history.
	segFiles, err := expandSegmentArgs([]string{spill})
	if err != nil || len(segFiles) < 2 {
		t.Fatalf("expandSegmentArgs: %v (%d files)", err, len(segFiles))
	}
	buf.Reset()
	if err := segmentsCmd(&buf, segFiles[len(segFiles)-1:], "", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "warning: gap") {
		t.Errorf("missing-prefix merge did not warn:\n%s", buf.String())
	}
}

// TestExportLiveSpillDir: export -live -spill opens DIR as a durable run.
// Spilling must not change a byte of the exported log, and a second export
// into the same directory must be refused rather than recover the first
// run's history into the new log.
func TestExportLiveSpillDir(t *testing.T) {
	tr := liveTrace(t)
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	spilled := filepath.Join(dir, "spilled.mvclog")
	plain := filepath.Join(dir, "plain.mvclog")
	if err := exportLive(io.Discard, tr, spilled, "delta", spill, 20, 0); err != nil {
		t.Fatal(err)
	}
	if err := exportLive(io.Discard, tr, plain, "delta", "", 20, 0); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(spilled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("export with -spill differs from export without it")
	}

	again := filepath.Join(dir, "again.mvclog")
	err = exportLive(io.Discard, tr, again, "delta", spill, 20, 0)
	if err == nil || !strings.Contains(err.Error(), spill) {
		t.Fatalf("second export into %s: err = %v, want a refusal naming the directory", spill, err)
	}
	if _, err := os.Stat(again); !os.IsNotExist(err) {
		t.Errorf("refused export left %s behind (stat err %v)", again, err)
	}
}

func TestExportLiveFullFormat(t *testing.T) {
	tr := liveTrace(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "live-full.mvclog")
	var buf bytes.Buffer
	if err := exportLive(&buf, tr, logPath, "full", "", 25, 0); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := inspect(&buf, logPath, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "validated 120 events") {
		t.Errorf("inspect of full live log: %s", buf.String())
	}
	if err := exportLive(&buf, tr, "", "delta", "", 0, 0); err == nil {
		t.Error("export -live without -out accepted")
	}
	if err := exportLive(&buf, tr, logPath, "cbor", "", 0, 0); err == nil {
		t.Error("export -live with unknown format accepted")
	}
}

// TestExportLiveRejectsBackend: every clock is a flat vector, so every
// command keeps accepting -backend flat and exits 2 on tree and auto with
// one message that says the tree clock was removed — offline commands and
// export -live alike. Each case runs main in a child process of the test
// binary, so the exit status is main's own.
func TestExportLiveRejectsBackend(t *testing.T) {
	path, _ := writeTempTrace(t)
	dir := t.TempDir()
	for _, args := range [][]string{
		{"timestamp", "-trace", path},
		{"validate", "-trace", path},
		{"export", "-trace", path},
		{"export", "-live", "-trace", path},
	} {
		for _, b := range []string{"flat", "tree", "auto"} {
			cmd := append(append([]string(nil), args...), "-backend", b)
			if args[0] == "export" {
				cmd = append(cmd, "-out", filepath.Join(dir, fmt.Sprintf("%d-%s.mvclog", len(args), b)))
			}
			code, stderr := runMain(t, cmd...)
			if b == "flat" {
				if code != 0 {
					t.Errorf("mvc %v exited %d: %s", cmd, code, stderr)
				}
				continue
			}
			if code != 2 {
				t.Errorf("mvc %v exited %d, want 2: %s", cmd, code, stderr)
			}
			for _, want := range []string{"-backend " + b, "tree clock was removed", "accepts only flat"} {
				if !strings.Contains(stderr, want) {
					t.Errorf("mvc %v: stderr %q does not name %q", cmd, stderr, want)
				}
			}
		}
	}
}

// mainArgsEnv carries the arguments runMain hands a child process of the
// test binary, which TestMain then runs through main instead of the tests.
const mainArgsEnv = "MVC_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"mvc"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs `mvc args...` in a child process and returns its exit status
// and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\x1f"))
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestExportLiveBatched: -batch N routes the replay through the batched
// commit path; the exported log must be byte-identical to the per-event
// replay — batching amortizes synchronization, it never changes a stamp.
func TestExportLiveBatched(t *testing.T) {
	tr := liveTrace(t)
	dir := t.TempDir()
	var buf bytes.Buffer
	perEvent := filepath.Join(dir, "per-event.mvclog")
	if err := exportLive(&buf, tr, perEvent, "delta", "", 20, 0); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 64} {
		batched := filepath.Join(dir, fmt.Sprintf("batched-%d.mvclog", batch))
		if err := exportLive(&buf, tr, batched, "delta", "", 20, batch); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(perEvent)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(batched)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-batch %d export differs from per-event export", batch)
		}
	}
}

func TestInspectTruncatedLog(t *testing.T) {
	_, tr := writeTempTrace(t)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "t.mvclog")
	var buf bytes.Buffer
	if err := export(&buf, tr, logPath, "full"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(dir, "cut.mvclog")
	if err := os.WriteFile(cutPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := inspect(&buf, cutPath, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "log truncated") {
		t.Errorf("inspect output: %s", buf.String())
	}
}

// TestInspectOverflowIsCorrupt: a log whose first field is a varint past
// 64 bits (eleven 0xff bytes and a 0x01) is corrupt, and inspect fails on
// it instead of reporting a truncated log.
func TestInspectOverflowIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "over.mvclog")
	data := append([]byte("MVCLOG01"), bytes.Repeat([]byte{0xff}, 11)...)
	if err := os.WriteFile(path, append(data, 0x01), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := inspect(&buf, path, 0)
	if !errors.Is(err, tlog.ErrCorrupt) || strings.Contains(buf.String(), "log truncated") {
		t.Fatalf("inspect: err %v, output %q; want ErrCorrupt and no truncation report", err, buf.String())
	}
}

// TestCatalogAndCompact drives the lifecycle tooling end to end: a live
// export with aggressive sealing leaves a swarm of tiny spill files plus a
// catalog; mvc catalog prints and verifies it; mvc compact collapses the
// files (replay unchanged) and rewrites the catalog, which must verify
// again.
func TestCatalogAndCompact(t *testing.T) {
	tr := liveTrace(t)
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	logPath := filepath.Join(dir, "live.mvclog")
	var buf bytes.Buffer
	if err := exportLive(&buf, tr, logPath, "delta", spill, 4, 0); err != nil {
		t.Fatal(err)
	}
	segFiles, err := expandSegmentArgs([]string{spill})
	if err != nil || len(segFiles) < 10 {
		t.Fatalf("setup produced %d spill files (err=%v)", len(segFiles), err)
	}

	buf.Reset()
	if err := catalogCmd(&buf, []string{spill}, true); err != nil {
		t.Fatalf("catalog -verify: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "catalog generation") || !strings.Contains(out, "verified") {
		t.Errorf("catalog output: %s", out)
	}

	buf.Reset()
	if err := compactCmd(&buf, []string{spill}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "compacted") {
		t.Errorf("compact output: %s", buf.String())
	}
	after, err := expandSegmentArgs([]string{spill})
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(segFiles) || len(after) != 1 {
		t.Fatalf("compaction left %d files (from %d), want 1", len(after), len(segFiles))
	}

	// The rewritten catalog verifies against the merged files.
	buf.Reset()
	if err := catalogCmd(&buf, []string{spill}, true); err != nil {
		t.Fatalf("catalog -verify after compact: %v\n%s", err, buf.String())
	}

	// Replay equivalence: the merged spill set still reproduces the sealed
	// prefix of the live log, record for record.
	merged := filepath.Join(dir, "merged.mvclog")
	buf.Reset()
	if err := segmentsCmd(&buf, []string{spill}, merged, 0); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	mTr, mStamps, err := tlog.ReadAll(mf)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	lTr, lStamps, err := tlog.ReadAll(lf)
	if err != nil {
		t.Fatal(err)
	}
	if mTr.Len() == 0 || mTr.Len() > lTr.Len() {
		t.Fatalf("merged %d events, live log has %d", mTr.Len(), lTr.Len())
	}
	for i := 0; i < mTr.Len(); i++ {
		if mTr.At(i) != lTr.At(i) || !mStamps[i].Equal(lStamps[i]) {
			t.Fatalf("merged record %d diverges from live log", i)
		}
	}

	// A second pass finds nothing to do, and reports the orphan spill file
	// its Open set aside.
	if err := os.WriteFile(filepath.Join(spill, "zzz-orphan.mvcseg"), []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := compactCmd(&buf, []string{spill}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nothing to compact") {
		t.Errorf("idempotent compact output: %s", buf.String())
	}
	if !strings.Contains(buf.String(), "quarantined: zzz-orphan.mvcseg"+tlog.QuarantineSuffix) {
		t.Errorf("compact output does not report the quarantined orphan: %s", buf.String())
	}
}

// dirListing returns the names in dir, sorted.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestCompactNeedsCatalog: mvc compact runs the tracker's own pass, which
// needs the directory's catalog; a bare pile of segment files is refused
// with a pointer at mvc segments -out, and nothing in it is touched (Open
// would have quarantined every file).
func TestCompactNeedsCatalog(t *testing.T) {
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := exportLive(io.Discard, liveTrace(t), filepath.Join(dir, "live.mvclog"), "delta", spill, 20, 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{tlog.CatalogFileName, tlog.CatalogPrevFileName} {
		if err := os.Remove(filepath.Join(spill, name)); err != nil {
			t.Fatal(err)
		}
	}
	before := dirListing(t, spill)
	err := compactCmd(io.Discard, []string{spill}, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "mvc segments -out") {
		t.Fatalf("compact without a catalog: err=%v, want a refusal pointing at mvc segments -out", err)
	}
	if after := dirListing(t, spill); strings.Join(after, " ") != strings.Join(before, " ") {
		t.Fatalf("refused compact touched the directory:\nbefore %v\nafter  %v", before, after)
	}
}

// TestCatalogTornFallsBack: a torn catalog.json is read from its .prev copy
// by mvc catalog and by mvc detect -live's name resolution, as recovery and
// the directory cursor read it, and both say so.
func TestCatalogTornFallsBack(t *testing.T) {
	tr, err := loadTrace(filepath.Join("testdata", "detect.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := exportLive(io.Discard, tr, filepath.Join(dir, "live.mvclog"), "full", spill, 50, 0); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(spill, tlog.CatalogFileName)
	raw, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, raw[:len(raw)/2], 0o666); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := catalogCmd(&buf, []string{spill}, true); err != nil {
		t.Fatalf("catalog -verify on a torn catalog.json: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "torn") || !strings.Contains(buf.String(), "verified") {
		t.Errorf("catalog output does not report the fallback:\n%s", buf.String())
	}
	buf.Reset()
	if err := detectLive(&buf, spill, false, 16, "O1,O2"); err != nil {
		t.Fatalf("detect -live -order on a torn catalog.json: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "torn") || !strings.Contains(buf.String(), "consumed") {
		t.Errorf("detect -live output does not report the fallback:\n%s", buf.String())
	}
}

// TestCatalogVerifyLegacyBackend: catalog -verify accepts a copy of
// testdata/legacy-spill whatever clock representation its resume manifest
// names — tree, auto or none, as trackers that offered a choice wrote it —
// and still rejects a name no version accepted.
func TestCatalogVerifyLegacyBackend(t *testing.T) {
	src := filepath.Join("testdata", "legacy-spill")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"tree", "auto", "", "bogus"} {
		dir := t.TempDir()
		for _, fi := range files {
			data, err := os.ReadFile(filepath.Join(src, fi.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if fi.Name() == tlog.CatalogFileName {
				line := []byte("\n    \"backend\": \"flat\",")
				repl := []byte{}
				if backend != "" {
					repl = []byte("\n    \"backend\": \"" + backend + "\",")
				}
				if !bytes.Contains(data, line) {
					t.Fatal("testdata/legacy-spill's catalog names no flat backend")
				}
				data = bytes.Replace(data, line, repl, 1)
			}
			if err := os.WriteFile(filepath.Join(dir, fi.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		err := catalogCmd(&buf, []string{dir}, true)
		if backend == "bogus" {
			if err == nil {
				t.Errorf("catalog -verify accepted backend %q:\n%s", backend, buf.String())
			}
			continue
		}
		if err != nil || !strings.Contains(buf.String(), "verified") {
			t.Errorf("catalog -verify with backend %q: %v\n%s", backend, err, buf.String())
		}
	}
}

// TestCatalogVerifyMatchesRecovery: catalog -verify runs recovery's segment
// check, so a listed file whose size and hash match its entry but whose
// header names other events fails -verify exactly as Open quarantines it.
func TestCatalogVerifyMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := exportLive(io.Discard, liveTrace(t), filepath.Join(dir, "live.mvclog"), "delta", spill, 20, 0); err != nil {
		t.Fatal(err)
	}
	cat, _, err := tlog.ReadCatalog(vfs.OS, spill)
	if err != nil {
		t.Fatal(err)
	}
	// Segment 0's bytes under segment 1's name, with entry 1's size and
	// hash rewritten to match them.
	data, err := os.ReadFile(filepath.Join(spill, cat.Segments[0].Path))
	if err != nil {
		t.Fatal(err)
	}
	victim := cat.Segments[1].Path
	if err := os.WriteFile(filepath.Join(spill, victim), data, 0o666); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	cat.Segments[1].Bytes, cat.Segments[1].SHA256 = int64(len(data)), hex.EncodeToString(sum[:])
	var doc bytes.Buffer
	if err := tlog.EncodeCatalog(&doc, cat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spill, tlog.CatalogFileName), doc.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := catalogCmd(&buf, []string{spill}, true); err == nil {
		t.Fatalf("catalog -verify accepted a segment whose header disagrees with its entry:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "header says") {
		t.Errorf("catalog -verify does not name the header mismatch:\n%s", buf.String())
	}
	re, err := track.Open(spill)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if q := re.Recovery().Quarantined; len(q) == 0 || q[0] != victim+tlog.QuarantineSuffix {
		t.Errorf("recovery quarantined %v, want %s first", q, victim)
	}
}

// TestCatalogVerifyScansRecords: a listed segment whose size, hash and
// header all match its entry, but whose last record is a derived record
// for an object with no record before it, prints BAD under catalog -verify
// — the record scan catches what the hash cannot — and Open quarantines
// it.
func TestCatalogVerifyScansRecords(t *testing.T) {
	dir := t.TempDir()
	spill := filepath.Join(dir, "spill")
	if err := exportLive(io.Discard, liveTrace(t), filepath.Join(dir, "live.mvclog"), "delta", spill, 20, 0); err != nil {
		t.Fatal(err)
	}
	cat, _, err := tlog.ReadCatalog(vfs.OS, spill)
	if err != nil {
		t.Fatal(err)
	}
	victim := &cat.Segments[1]
	data, err := os.ReadFile(filepath.Join(spill, victim.Path))
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode every record but the last, then forge the last.
	sr, err := tlog.NewSegmentReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	w := tlog.NewDeltaWriter(&payload)
	var widths []int
	seen := map[event.ObjectID]bool{}
	var last event.Event
	for len(widths) < sr.Meta().Count {
		e, v, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		widths = append(widths, len(v))
		if len(widths) < sr.Meta().Count {
			seen[e.Object] = true
			if err := w.Append(e, v); err != nil {
				t.Fatal(err)
			}
		}
		last = e
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh := event.ObjectID(0)
	for seen[fresh] {
		fresh++
	}
	rec := payload.Bytes()
	// MVCLOG03 header: op in bits 6–5, kind 2 (derived-explicit); then
	// thread, object, 1 tick, index 0.
	rec = append(rec, byte(last.Op)<<5|2)
	for _, x := range []uint64{uint64(last.Thread), uint64(fresh), 1, 0} {
		rec = binary.AppendUvarint(rec, x)
	}
	if data, err = tlog.AppendSegment(nil, sr.Meta(), widths, rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spill, victim.Path), data, 0o666); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	victim.Bytes, victim.SHA256 = int64(len(data)), hex.EncodeToString(sum[:])
	var doc bytes.Buffer
	if err := tlog.EncodeCatalog(&doc, cat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spill, tlog.CatalogFileName), doc.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := catalogCmd(&buf, []string{spill}, true); err == nil {
		t.Fatalf("catalog -verify accepted a structurally corrupt segment:\n%s", buf.String())
	}
	if want := "BAD: tlog: " + victim.Path; !strings.Contains(buf.String(), want) || !strings.Contains(buf.String(), "before any record") {
		t.Errorf("catalog -verify does not report %q for the forged record:\n%s", want, buf.String())
	}
	re, err := track.Open(spill)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if q := re.Recovery().Quarantined; len(q) == 0 || q[0] != victim.Path+tlog.QuarantineSuffix {
		t.Errorf("recovery quarantined %v, want %s first", q, victim.Path)
	}
}

// TestRecoverDirCommand reopens a crashed spill directory through the
// durable-run recovery path and checks the report, then verifies the
// catalog together with a shipper cursor.
func TestRecoverDirCommand(t *testing.T) {
	dir := t.TempDir()
	spill := filepath.Join(dir, "run")
	tr, err := track.Open(spill)
	if err != nil {
		t.Fatal(err)
	}
	th, ob := tr.NewThread("t0"), tr.NewObject("o0")
	for i := 0; i < 12; i++ {
		th.Write(ob, nil)
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	sealed := tr.Events()
	th.Write(ob, nil) // unsealed suffix a crash loses
	// Simulated crash: the tracker is abandoned without Close.

	var buf bytes.Buffer
	quarantined, err := recoverDir(&buf, spill)
	if err != nil {
		t.Fatalf("recoverDir: %v\n%s", err, buf.String())
	}
	if quarantined != 0 {
		t.Errorf("clean crash recovery quarantined %d files:\n%s", quarantined, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("resumes at index %d", sealed),
		"crash (no Close marker",
		"1 threads, 1 objects",
		"health: ok",
		"closed cleanly",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("recover -dir output missing %q:\n%s", want, out)
		}
	}

	// Ship the run, then catalog -verify must report the cursor as healthy.
	mirror := filepath.Join(dir, "mirror")
	sh := &track.Shipper{Src: spill, Dst: mirror}
	if _, err := sh.ConsumeUpTo(0); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := catalogCmd(&buf, []string{spill}, true); err != nil {
		t.Fatalf("catalog -verify: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "shipper cursor: generation") {
		t.Errorf("catalog -verify missing cursor report:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "run closed cleanly") {
		t.Errorf("catalog -verify missing Closed marker:\n%s", buf.String())
	}

	// A cursor ahead of the catalog fails verification.
	var cbuf bytes.Buffer
	if err := tlog.EncodeShipCursor(&cbuf, &tlog.ShipCursor{
		FormatVersion: tlog.ShipCursorFormatVersion,
		Generation:    1 << 40,
		ShippedEvents: sealed,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spill, tlog.ShipCursorFileName), cbuf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := catalogCmd(&buf, []string{spill}, true); err == nil {
		t.Errorf("catalog -verify accepted a cursor ahead of the catalog:\n%s", buf.String())
	}

	// recoverDir on a directory that was never a run.
	if _, err := recoverDir(&buf, filepath.Join(dir, "mirror")); err != nil {
		t.Errorf("recover -dir on a shipped mirror: %v", err)
	}
}

// TestRecoverDirQuarantined plants an orphan spill file in a crashed run and
// checks recoverDir reports it and returns a non-zero quarantine count — the
// signal main turns into exitQuarantined.
func TestRecoverDirQuarantined(t *testing.T) {
	spill := t.TempDir()
	tr, err := track.Open(spill)
	if err != nil {
		t.Fatal(err)
	}
	th, ob := tr.NewThread("t0"), tr.NewObject("o0")
	for i := 0; i < 4; i++ {
		th.Write(ob, nil)
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	// Simulated crash (no Close), plus an orphan segment file no catalog
	// generation ever listed — recovery must set it aside, not adopt it.
	if err := os.WriteFile(filepath.Join(spill, "zzz-orphan.mvcseg"), []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	quarantined, err := recoverDir(&buf, spill)
	if err != nil {
		t.Fatalf("recoverDir: %v\n%s", err, buf.String())
	}
	if quarantined == 0 {
		t.Errorf("orphan segment not counted as quarantined:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "quarantined:") {
		t.Errorf("quarantine list missing from the report:\n%s", buf.String())
	}
}

// TestDetectLiveOutput seeds an order violation into a real durable run and
// checks detect -live reports it with epoch and trace-index provenance,
// plus the streaming census summary.
func TestDetectLiveOutput(t *testing.T) {
	spill := t.TempDir()
	tk, err := track.Open(spill, track.WithStore(track.Store{
		Spill: track.SpillPolicy{SealEvery: 2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	guard := tk.NewObject("guard")
	data := tk.NewObject("data")
	a := tk.NewThread("a")
	b := tk.NewThread("b")
	a.Write(guard, nil)
	b.Write(data, nil) // concurrent with the guard write: violation
	b.Read(guard, nil) // causal edge a -> b
	b.Write(data, nil) // ordered: clean
	if err := tk.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := detectLive(&buf, spill, false, 0, "guard,data"); err != nil {
		t.Fatalf("detectLive: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "order: [guard,data]") {
		t.Errorf("missing order detection:\n%s", out)
	}
	if !strings.Contains(out, "(epoch 0, index 1) concurrent with") ||
		!strings.Contains(out, "(epoch 0, index 0)") {
		t.Errorf("missing provenance:\n%s", out)
	}
	if !strings.Contains(out, "consumed 4 sealed events") {
		t.Errorf("missing consumption summary:\n%s", out)
	}
	if !strings.Contains(out, "run closed") || !strings.Contains(out, "census:") {
		t.Errorf("missing closed marker or census:\n%s", out)
	}

	// Bad -order specs fail loudly.
	if err := detectLive(io.Discard, spill, false, 0, "guard"); err == nil {
		t.Error("malformed -order accepted")
	}
	if err := detectLive(io.Discard, spill, false, 0, "guard,nosuch"); err == nil {
		t.Error("-order with an unknown object accepted")
	}
}

// TestSpamJSON runs a tiny deterministic load and checks the JSON report
// parses and carries the fields scripts (and the CI smoke step) rely on.
func TestSpamJSON(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-threads", "2", "-objects", "8", "-ops", "500", "-warmup", "50", "-seed", "7", "-format", "json"}
	if err := spam(args, &out, &errb); err != nil {
		t.Fatalf("%v, stderr: %s", err, errb.String())
	}
	var rep struct {
		Ops     int64   `json:"ops"`
		Mops    float64 `json:"mops"`
		Latency struct {
			P50 int64 `json:"p50_ns"`
			P99 int64 `json:"p99_ns"`
		} `json:"latency"`
		Tracker struct {
			Events int `json:"events"`
			Width  int `json:"width"`
		} `json:"tracker"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report not parseable JSON: %v\n%s", err, out.String())
	}
	if want := int64(2 * 500); rep.Ops != want {
		t.Errorf("ops = %d, want %d (deterministic -ops mode)", rep.Ops, want)
	}
	if rep.Mops <= 0 || rep.Latency.P99 < rep.Latency.P50 || rep.Tracker.Width < 1 {
		t.Errorf("implausible report: %+v", rep)
	}
	if rep.Tracker.Events != 2*500+2*50 {
		t.Errorf("tracker events = %d, want warmup+measured = %d", rep.Tracker.Events, 2*500+2*50)
	}
}

// TestSpamFormats checks the table and CSV renderings and the format and
// flag error paths.
func TestSpamFormats(t *testing.T) {
	for _, format := range []string{"table", "csv"} {
		var out bytes.Buffer
		if err := spam([]string{"-threads", "1", "-ops", "100", "-format", format}, &out, io.Discard); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		if format == "table" && !strings.Contains(out.String(), "mops/sec") {
			t.Errorf("table output missing throughput:\n%s", out.String())
		}
		if format == "csv" && !strings.HasPrefix(out.String(), "threads,") {
			t.Errorf("csv output missing header:\n%s", out.String())
		}
	}
	if err := spam([]string{"-threads", "1", "-ops", "10", "-format", "nope"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown format accepted")
	}
	for _, flag := range []string{"-nosuchflag", "-backend"} {
		if err := spam([]string{flag, "tree"}, io.Discard, io.Discard); err == nil {
			t.Errorf("unknown flag %s accepted", flag)
		}
	}
}

// TestGenLookupWorkload resolves every generator family by its name.
func TestGenLookupWorkload(t *testing.T) {
	for _, w := range trace.Workloads() {
		got, err := lookupWorkload(w.String())
		if err != nil || got != w {
			t.Errorf("lookup %q = %v, %v", w.String(), got, err)
		}
	}
	if _, err := lookupWorkload("nonsense"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestGenWritesTrace generates one trace to -out and to stdout: both carry
// the same bytes, which read back as the requested computation.
func TestGenWritesTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.jsonl")
	args := []string{"-workload", "hotset", "-threads", "10", "-objects", "10", "-events", "50", "-reads", "0.25", "-seed", "3"}
	var summary bytes.Buffer
	if err := gen(append(args, "-out", out), io.Discard, &summary); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(summary.String(), "mvc gen: ") {
		t.Errorf("no summary on stderr: %q", summary.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := gen(args, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), data) {
		t.Error("stdout trace differs from the -out trace")
	}
	tr, err := event.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 50 {
		t.Fatalf("trace has %d events, want 50", tr.Len())
	}
	if tr.Summarize().Reads == 0 {
		t.Error("read fraction ignored")
	}
}

// TestGenRejectsBadConfig checks gen's error paths.
func TestGenRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"negative threads": {"-threads", "-1", "-out", filepath.Join(dir, "a.jsonl")},
		"unknown workload": {"-workload", "nope", "-out", filepath.Join(dir, "b.jsonl")},
		"unwritable path":  {"-out", filepath.Join(dir, "missing", "c.jsonl")},
		"unknown flag":     {"-nosuchflag"},
	} {
		if err := gen(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
