package crashtest

import (
	"bytes"
	"syscall"
	"testing"

	"mixedclock/internal/track"
	"mixedclock/internal/vfs"
)

// rulesFromBytes decodes a fuzz input into a deterministic fault schedule:
// each 4-byte group becomes one rule (which ops fail, from which occurrence,
// how many times, with which error — including torn writes), and a trailing
// byte may arm a crash point. The mapping is total: every input is a valid
// schedule, so the fuzzer explores fault-timing space instead of fighting a
// parser.
func rulesFromBytes(script []byte) (rules []vfs.Rule, crashAt int64) {
	crashAt = -1
	for len(script) >= 4 && len(rules) < 4 {
		sel, nth, count, errSel := script[0], script[1], script[2], script[3]
		script = script[4:]
		r := vfs.Rule{Nth: int64(nth) % 64, Count: int64(count) % 8}
		switch sel % 4 {
		case 0:
			r.Ops = vfs.MutatingOps
		case 1:
			r.Ops = vfs.Ops(vfs.OpFileSync, vfs.OpSyncDir)
		case 2:
			r.Ops = vfs.Ops(vfs.OpRename, vfs.OpRemove)
		case 3:
			r.Ops = vfs.Ops(vfs.OpWrite)
			r.TornFrac = float64(sel%8) / 8
		}
		switch errSel % 3 {
		case 0: // default ErrInjected
		case 1:
			r.Err = syscall.ENOSPC
		case 2:
			r.Err = syscall.EIO
		}
		rules = append(rules, r)
	}
	if len(script) > 0 && script[0]%2 == 1 {
		crashAt = int64(script[0]) % 128
	}
	return rules, crashAt
}

// FuzzFaultyRecover drives the durable workload under an arbitrary
// fuzzer-chosen fault schedule — transient and persistent errors, torn
// writes, an optional crash freeze — then recovers the directory with the
// real filesystem. The contract is the sweep's: Open never panics and never
// errors, whatever came back is a fully usable tracker, and the repaired
// directory round-trips a clean Close/reopen.
func FuzzFaultyRecover(f *testing.F) {
	f.Add([]byte{})                           // fault-free
	f.Add([]byte{0, 0, 0, 1})                 // everything ENOSPC from the start
	f.Add([]byte{1, 2, 1, 2})                 // one EIO fsync blip (retried)
	f.Add([]byte{3, 1, 0, 0})                 // persistent torn writes
	f.Add([]byte{2, 3, 2, 1, 7})              // rename/remove faults plus a crash at op 7
	f.Add([]byte{0, 8, 4, 2, 1, 2, 1, 2, 33}) // layered schedule with a crash
	f.Add([]byte{41})                         // crash only, mid-run

	cfg := sweepConfig{
		name:      "fuzz",
		spill:     track.SpillPolicy{SealEvery: 3},
		compact:   track.CompactPolicy{MaxSegments: 2},
		retain:    track.RetainPolicy{MaxBytes: 1},
		rounds:    5,
		compactAt: map[int]int{2: 1},
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		dir := t.TempDir()
		fi := vfs.NewFaulty(vfs.OS)
		rules, crashAt := rulesFromBytes(script)
		fi.Script(rules...)
		fi.CrashAt(crashAt)
		if tr, err := openAndRun(dir, cfg.store(fi), cfg); err == nil {
			_ = tr.Close() // may fail under the schedule; the damage is the point
		}

		// Recovery on the real filesystem: never a panic, never an error.
		re, err := track.Open(dir)
		if err != nil {
			t.Fatalf("Open after faulted run: %v", err)
		}
		if re.Recovery() == nil {
			t.Fatal("no RecoveryInfo from Open")
		}
		base := re.Events()
		th := re.NewThread("fuzz-t")
		ob := re.NewObject("fuzz-o")
		if s := th.Write(ob, nil); s.Event.Index != base {
			t.Fatalf("resumed commit at index %d, want %d", s.Event.Index, base)
		}
		var buf bytes.Buffer
		if err := re.SnapshotTo(&buf); err != nil {
			t.Fatalf("SnapshotTo after recovery: %v", err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("Close after recovery: %v", err)
		}
		re2, err := track.Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if !re2.Recovery().CleanClose {
			t.Fatal("Close marker lost across reopen")
		}
		if q := re2.Recovery().Quarantined; len(q) != 0 {
			t.Fatalf("repaired directory quarantined again: %v", q)
		}
		if got := re2.Events(); got != base+1 {
			t.Fatalf("second reopen at %d events, want %d", got, base+1)
		}
		if err := re2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
