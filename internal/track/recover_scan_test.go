package track

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/vclock"
	"mixedclock/internal/vfs"
)

// epochClocks replays every segment of the resume epoch dir's catalog
// lists, record by record, and returns each thread's and each object's
// stamp at its last record in the epoch — the clocks a reopen must restore.
func epochClocks(t *testing.T, dir string) (threads, objects map[int]vclock.Vector) {
	t.Helper()
	cat, _, err := tlog.ReadCatalog(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Resume == nil {
		t.Fatal("catalog has no resume manifest")
	}
	threads, objects = map[int]vclock.Vector{}, map[int]vclock.Vector{}
	for _, sg := range cat.Segments {
		if sg.Epoch != cat.Resume.Epoch {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, sg.Path))
		if err != nil {
			t.Fatal(err)
		}
		sr, err := tlog.NewSegmentReaderBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		for {
			e, v, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			threads[int(e.Thread)], objects[int(e.Object)] = v.Clone(), v.Clone()
		}
	}
	return threads, objects
}

// checkRecoveredClocks requires every thread's and object's clock in tr to
// equal, width for width, its stamp in the replay; a thread or object
// with no record in the epoch must have no clock.
func checkRecoveredClocks(t *testing.T, tr *Tracker, threads, objects map[int]vclock.Vector) {
	t.Helper()
	check := func(what string, got *vclock.Flat, want vclock.Vector) {
		t.Helper()
		switch {
		case want == nil && got != nil:
			t.Errorf("%s: recovered clock %v, want none", what, got.Flatten())
		case want != nil && got == nil:
			t.Errorf("%s: no recovered clock, want %v", what, want)
		case want != nil:
			if v := got.Flatten(); len(v) != len(want) || !v.Equal(want) {
				t.Errorf("%s: recovered clock %v, want %v", what, v, want)
			}
		}
	}
	for i, th := range tr.Threads() {
		check("thread "+th.Name(), th.clock, threads[i])
	}
	for i, ob := range tr.Objects() {
		check("object "+ob.Name(), ob.clock, objects[i])
	}
}

// TestRecoverClocksFromNewestSegments checks that the clocks a reopen
// takes from the segments holding each thread's and object's last record
// equal a replay of the whole resume epoch, and that the stamps committed
// after the reopen equal those of a twin run that never crashed. The twin
// lives in memory and makes the same commits and Compacts.
func TestRecoverClocksFromNewestSegments(t *testing.T) {
	type run struct{ a, twin *Tracker }
	step := func(r run, fn func(*Tracker)) { fn(r.a); fn(r.twin) }
	// commits writes round-robin from every thread but the silent one,
	// which with its object only ever appears in the first segment.
	commits := func(rounds int) func(*Tracker) {
		return func(tr *Tracker) {
			ths, obs := tr.Threads(), tr.Objects()
			for r := 0; r < rounds; r++ {
				for i, th := range ths[1:] {
					o := obs[1+(r+2*i)%(len(obs)-1)]
					if (r+i)%3 == 0 {
						th.Read(o, nil)
					} else {
						th.Write(o, nil)
					}
				}
			}
		}
	}
	seal := func(tr *Tracker) {
		if tr.dir == "" {
			return
		}
		if err := tr.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		steps func(run)
	}{
		{"seals-and-merge", func(r run) {
			step(r, seal)
			for range 2 {
				step(r, commits(7))
				step(r, seal)
			}
			if n, err := r.a.CompactSegments(CompactPolicy{MaxSegments: 1}); err != nil || n == 0 {
				t.Fatalf("CompactSegments merged %d segments, err %v", n, err)
			}
			for range 2 {
				step(r, commits(5))
				step(r, seal)
			}
		}},
		{"compact", func(r run) {
			step(r, seal)
			step(r, commits(6))
			step(r, seal)
			step(r, func(tr *Tracker) {
				if _, _, err := tr.Compact(); err != nil {
					t.Fatal(err)
				}
			})
			for range 2 {
				step(r, commits(4))
				step(r, seal)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := run{a: mustOpen(t, dir), twin: mustOpen(t, "")}
			step(r, func(tr *Tracker) {
				silent := tr.NewThread("silent")
				quiet := tr.NewObject("quiet")
				for i := range 5 {
					tr.NewThread(fmt.Sprintf("t%d", i))
					tr.NewObject(fmt.Sprintf("o%d", i))
				}
				silent.Write(quiet, nil)
				silent.Read(tr.Objects()[1], nil)
				tr.Threads()[1].Write(quiet, nil)
				commits(3)(tr)
			})
			tc.steps(r)
			epoch := r.a.Epoch()
			// Crash: the run in dir is abandoned without Close.
			wantThreads, wantObjects := epochClocks(t, dir)
			re := mustOpen(t, dir)
			defer re.Close()
			if ri := re.Recovery(); len(ri.Quarantined) != 0 || re.Epoch() != epoch || re.Err() != nil {
				t.Fatalf("reopen: epoch %d (want %d), quarantined %v, err %v", re.Epoch(), epoch, ri.Quarantined, re.Err())
			}
			checkRecoveredClocks(t, re, wantThreads, wantObjects)

			// The reopened run and the twin commit alike from here on,
			// the silent thread and object included.
			after := func(tr *Tracker) []Stamped {
				ths, obs := tr.Threads(), tr.Objects()
				var out []Stamped
				for k := range 24 {
					out = append(out, ths[k%len(ths)].Write(obs[(k*5)%len(obs)], nil))
				}
				return out
			}
			got, want := after(re), after(r.twin)
			for k := range got {
				if got[k].Event != want[k].Event || got[k].Epoch != want[k].Epoch || !got[k].Vector().Equal(want[k].Vector()) {
					t.Fatalf("commit %d after reopen: %v %v in epoch %d, twin %v %v in epoch %d", k,
						got[k].Event, got[k].Vector(), got[k].Epoch, want[k].Event, want[k].Vector(), want[k].Epoch)
				}
			}
		})
	}
}

// forgeLastRecord returns the segment container data with its payload
// re-encoded in delta format version 2 or 3 and its last record replaced by
// a derived-explicit record of the same thread on an object with no record
// before it in the segment: every field is in range and the header is
// unchanged, but the record cannot be decoded, as there is no object stamp
// to derive it from. Version 3 is what DeltaWriter writes; version 2, which
// nothing writes any more, holds the other records as full vectors.
func forgeLastRecord(t *testing.T, data []byte, version int) []byte {
	t.Helper()
	sr, err := tlog.NewSegmentReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	meta := sr.Meta()
	if meta.Count < 2 {
		t.Fatalf("segment %v is too short to forge", meta)
	}
	var payload bytes.Buffer
	w := tlog.NewDeltaWriter(&payload)
	if version == 2 {
		payload.WriteString("MVCLOG02")
	}
	widths := make([]int, 0, meta.Count)
	seen := map[event.ObjectID]bool{}
	for {
		e, v, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		widths = append(widths, len(v))
		if len(widths) == meta.Count {
			fresh := event.ObjectID(0)
			for seen[fresh] {
				fresh++
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			rec := payload.Bytes()
			if version == 2 {
				// thread | object | op | tag 2 | 1 tick | index 0
				for _, x := range []uint64{uint64(e.Thread), uint64(fresh), uint64(e.Op), 2, 1, 0} {
					rec = binary.AppendUvarint(rec, x)
				}
			} else {
				// header (op in bits 6–5, kind 2: derived-explicit) |
				// thread | object | 1 tick | index 0
				rec = append(rec, byte(e.Op)<<5|2)
				for _, x := range []uint64{uint64(e.Thread), uint64(fresh), 1, 0} {
					rec = binary.AppendUvarint(rec, x)
				}
			}
			out, err := tlog.AppendSegment(nil, meta, widths, rec)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		seen[e.Object] = true
		if version == 2 {
			for _, x := range []uint64{uint64(e.Thread), uint64(e.Object), uint64(e.Op), 0} { // tag 0: full
				payload.Write(binary.AppendUvarint(nil, x))
			}
			payload.Write(v.AppendBinary(nil))
		} else if err := w.Append(e, v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverScanCatchesHashMatchingCorruption corrupts one record of a
// listed segment, re-encoded in the MVCLOG02 format older directories hold,
// structurally and rewrites its catalog entry's size and hash to match, so
// only the record scan can tell. The shipper must refuse the segment, and
// Open must quarantine it and every segment after it, whether the segment
// lies in the epoch the run resumes or in an older one.
func TestRecoverScanCatchesHashMatchingCorruption(t *testing.T) {
	checkHashMatchingCorruption(t, 2)
}

// TestRecoverScanCatchesHashMatchingCorruption03 is the same check on a
// segment in the MVCLOG03 format the tracker writes.
func TestRecoverScanCatchesHashMatchingCorruption03(t *testing.T) {
	checkHashMatchingCorruption(t, 3)
}

func checkHashMatchingCorruption(t *testing.T, version int) {
	for _, tc := range []struct {
		name   string
		victim int // listed segment to corrupt
	}{
		{"older-epoch", 1},
		{"resume-epoch", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tr := runSealedWorkload(t, dir, 3, 3, 6)
			seal := func() {
				if err := tr.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			more := func() {
				for i, th := range tr.Threads() {
					th.Write(tr.Objects()[(i+1)%3], nil)
					th.Read(tr.Objects()[i%3], nil)
				}
			}
			seal()
			more()
			seal()
			if _, _, err := tr.Compact(); err != nil {
				t.Fatal(err)
			}
			more()
			seal()
			more()
			seal()
			// Abandoned without Close. Segments 0 and 1 are epoch 0, 2 and
			// 3 the epoch the reopen resumes.
			cat, _, err := tlog.ReadCatalog(vfs.OS, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(cat.Segments) != 4 || cat.Segments[1].Epoch == cat.Resume.Epoch || cat.Segments[2].Epoch != cat.Resume.Epoch {
				t.Fatalf("unexpected listing: %+v", cat.Segments)
			}
			entry := &cat.Segments[tc.victim]
			data, err := os.ReadFile(filepath.Join(dir, entry.Path))
			if err != nil {
				t.Fatal(err)
			}
			data = forgeLastRecord(t, data, version)
			if err := os.WriteFile(filepath.Join(dir, entry.Path), data, 0o666); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			entry.Bytes, entry.SHA256 = int64(len(data)), hex.EncodeToString(sum[:])
			var doc bytes.Buffer
			if err := tlog.EncodeCatalog(&doc, cat); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tlog.CatalogFileName), doc.Bytes(), 0o666); err != nil {
				t.Fatal(err)
			}

			sh := &Shipper{Src: dir, Dst: t.TempDir()}
			if _, err := sh.ConsumeUpTo(0); err == nil || !strings.Contains(err.Error(), entry.Path) {
				t.Fatalf("shipper accepted the forged segment (err %v)", err)
			}

			re := mustOpen(t, dir)
			defer re.Close()
			ri := re.Recovery()
			var want []string
			for _, sg := range cat.Segments[tc.victim:] {
				want = append(want, sg.Path+tlog.QuarantineSuffix)
			}
			if fmt.Sprint(ri.Quarantined) != fmt.Sprint(want) {
				t.Errorf("quarantined %v, want %v", ri.Quarantined, want)
			}
			if ri.Segments != tc.victim || ri.Events != entry.FirstIndex {
				t.Errorf("adopted %d segments and %d events, want %d and %d", ri.Segments, ri.Events, tc.victim, entry.FirstIndex)
			}
			if re.Epoch() != cat.Resume.Epoch+1 {
				t.Errorf("resumed epoch %d, want the fresh epoch %d", re.Epoch(), cat.Resume.Epoch+1)
			}
			if err := re.Err(); err == nil || !strings.Contains(err.Error(), "before any record") {
				t.Errorf("health does not name the forged record: %v", err)
			}
		})
	}
}
