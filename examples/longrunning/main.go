// Longrunning demonstrates running a tracker indefinitely in bounded
// memory: epoch compaction keeps the CLOCK small, the spill policy keeps
// the HISTORY small, and the segment lifecycle manager keeps the spill
// DIRECTORY small and shippable.
//
// Online mechanisms may only ever add clock components, so after the
// workload shifts, the clock carries components for entities that no longer
// matter; Tracker.Compact re-bases it on the offline optimum and starts a
// new epoch. Independently, the recorded history grows with every event; a
// SpillPolicy seals it into immutable delta-encoded segments — here at
// aligned SealEvery boundaries, so segment edges land at predictable
// indices — and spills them to disk, so the tracker holds only the live
// tail. Frequent seals would litter the directory with tiny files;
// Store.Compact merges adjacent small segments into larger tiers (replay
// bytes unchanged). The catalog — both Tracker.Catalog and the catalog.json
// the tracker maintains next to the spill files — is the stable view an
// external log shipper polls: index ranges, epochs, sizes and content
// hashes per segment, plus the tracker's health. Sealed history stays fully
// readable throughout — Snapshot and the lazy Stamped vectors replay spill
// files transparently, and SnapshotTo streams the whole run (disk and tail
// alike) into a portable .mvclog without ever materializing a vector table.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mixedclock"
)

func main() {
	batch := flag.Int("batch", 0, "commit handler operations in batches of up to N (0: one Do per operation)")
	flag.Parse()
	spillDir, err := os.MkdirTemp("", "mvc-spill-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(spillDir)

	tracker, err := mixedclock.Open(spillDir,
		mixedclock.WithMechanism(mixedclock.Popularity{}),
		mixedclock.WithStore(mixedclock.Store{
			// Seal at aligned 100-event boundaries and spill sealed segments
			// to disk: the in-memory suffix is bounded however long the
			// service runs, and segment edges land at predictable indices.
			Spill: mixedclock.SpillPolicy{SealEvery: 100},
			// Keep the spill directory tidy: whenever more than 4 segments
			// have accumulated, merge adjacent small ones (within one epoch)
			// into tiers of up to 64 KiB.
			Compact: mixedclock.CompactPolicy{MaxSegments: 4, TargetBytes: 64 << 10},
		}),
	)
	if err != nil {
		panic(err)
	}

	// Phase 1: twelve request handlers hammer two hot caches.
	hotA := tracker.NewObject("cache-A")
	hotB := tracker.NewObject("cache-B")
	handlers := make([]*mixedclock.Thread, 12)
	for i := range handlers {
		handlers[i] = tracker.NewThread(fmt.Sprintf("handler-%d", i))
	}
	var wg sync.WaitGroup
	for i, th := range handlers {
		wg.Add(1)
		go func(th *mixedclock.Thread, k int) {
			defer wg.Done()
			// With -batch N, each handler accumulates its operations in a
			// Batch and commits every N: same events, same stamps, but the
			// per-commit synchronization is paid once per batch — the knob
			// to turn when handlers outrun the tracker.
			b := th.NewBatch()
			for j := 0; j < 60; j++ {
				o := hotA
				if (k+j)%2 != 0 {
					o = hotB
				}
				if *batch > 0 {
					if b.Write(o).Len() >= *batch {
						b.Commit()
					}
				} else {
					th.Write(o, nil)
				}
			}
			b.Commit()
		}(th, i)
	}
	wg.Wait()
	lastPhase1 := handlers[0].Write(hotA, nil)
	fmt.Printf("after phase 1: %d events, clock has %d components\n",
		tracker.Events(), tracker.Size())
	fmt.Println("(the optimum is 2 — the two caches — but popularity's early")
	fmt.Println(" tie-breaks admitted extra threads, and components are append-only)")

	// Maintenance window: compact. The optimal cover for everything so far
	// replaces the drifted component set, and the closing epoch's tail is
	// sealed alongside the auto-sealed segments.
	epoch, size, err := tracker.Compact()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncompacted: epoch %d, clock re-based to %d components\n", epoch, size)

	// Phase 2: the workload shifts to new per-tenant stores.
	tenants := make([]*mixedclock.Object, 3)
	for i := range tenants {
		tenants[i] = tracker.NewObject(fmt.Sprintf("tenant-%d", i))
	}
	for i, th := range handlers[:6] {
		wg.Add(1)
		go func(th *mixedclock.Thread, k int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				th.Write(tenants[(k+j)%3], nil)
			}
		}(th, i)
	}
	wg.Wait()
	firstPhase2 := handlers[0].Write(tenants[0], nil)
	fmt.Printf("after phase 2: %d events, clock has %d components (epoch %d)\n",
		tracker.Events(), tracker.Size(), tracker.Epoch())

	// The history is on disk, not in the heap — and tier-compacted, so the
	// directory holds a few merged segments, not one file per seal.
	segs := tracker.Segments()
	var spilledEvents int
	var spilledBytes int64
	for _, sg := range segs {
		spilledEvents += sg.Events
		spilledBytes += sg.Bytes
	}
	fmt.Printf("\nsealed history, after tiered compaction: %d segments, %d of %d events on disk (%d bytes delta-encoded)\n",
		len(segs), spilledEvents, tracker.Events(), spilledBytes)
	fmt.Printf("first segment: epoch %d, events [%d,%d], %s\n",
		segs[0].Epoch, segs[0].FirstIndex, segs[0].FirstIndex+segs[0].Events-1,
		filepath.Base(segs[0].Path))

	// What a log shipper would poll: the catalog (also on disk as
	// catalog.json next to the spill files, rewritten atomically after
	// every seal and compaction).
	cat := tracker.Catalog()
	fmt.Printf("catalog: generation %d, %d segments, %d sealed events, healthy=%v\n",
		cat.Generation, len(cat.Segments), cat.SealedEvents, cat.Health == "" && !cat.AutoSealDisarmed)
	fmt.Printf("each segment ships with a content hash, e.g. %s: sha256 %s...\n",
		cat.Segments[0].Path, cat.Segments[0].SHA256[:12])

	// Cross-epoch ordering still works, straight off the spill files: the
	// compaction barrier orders every phase-1 operation before phase 2,
	// and lastPhase1's vector materializes by replaying its segment.
	fmt.Printf("\nphase-1 op %v (epoch %d) happened before phase-2 op %v (epoch %d): %v\n",
		lastPhase1.Event, lastPhase1.Epoch,
		firstPhase2.Event, firstPhase2.Epoch,
		lastPhase1.HappenedBefore(firstPhase2))

	// Export the entire run — spilled history and live tail — as one
	// delta-encoded log, streamed record by record.
	logPath := filepath.Join(spillDir, "run.mvclog")
	f, err := os.Create(logPath)
	if err != nil {
		panic(err)
	}
	if err := tracker.SnapshotTo(f); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	rf, err := os.Open(logPath)
	if err != nil {
		panic(err)
	}
	defer rf.Close()
	full, _, err := mixedclock.ReadLog(rf)
	if err != nil {
		panic(err)
	}
	fi, _ := os.Stat(logPath)
	fmt.Printf("\nstreamed the full run to %s: %d events, %d bytes\n",
		filepath.Base(logPath), full.Len(), fi.Size())

	if err := tracker.Err(); err != nil {
		panic(err)
	}
	fmt.Printf("epoch boundaries in the recorded trace: %v\n", tracker.EpochStarts())
}
