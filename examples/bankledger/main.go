// Bankledger is the live-monitoring showcase: a concurrent bank whose
// invariants are watched while it runs, not audited after the fact.
//
// Teller goroutines debit accounts and journal each debit; a posting
// goroutine applies the matching credits. The banking rule is causal: a
// credit must be posted having observed the debit journal (the poster
// reads "debits" before writing "credits"), so every credit write happens
// after the debit write it settles. The run seeds one violation — a credit
// posted without reading the journal — and an online Monitor registered on
// the live tracker catches it from the stream, with epoch and trace-index
// provenance, while commits continue.
//
// The run spills sealed segments to a directory and prints the matching
// `mvc detect -live` invocation, so a second terminal can attach the same
// detection to the run from outside the process.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"mixedclock"
)

const (
	tellers   = 4
	accounts  = 6
	transfers = 12 // per teller
)

// instruction is a credit order sent to the poster over a plain Go channel
// — deliberately invisible to the tracker, so the only causal link between
// debit and credit is the journal read the banking rule demands.
type instruction struct {
	to, amount int
}

func main() {
	dir := filepath.Join(os.TempDir(), "bankledger-spill")
	os.RemoveAll(dir)
	tracker, err := mixedclock.Open(dir, mixedclock.WithStore(mixedclock.Store{
		Spill: mixedclock.SpillPolicy{SealEvery: 32},
	}))
	if err != nil {
		panic(err)
	}

	balances := make([]int, accounts)
	objs := make([]*mixedclock.Object, accounts)
	for i := range objs {
		balances[i] = 100
		objs[i] = tracker.NewObject(fmt.Sprintf("acct-%d", i))
	}
	var ledgerMu sync.Mutex                 // guards balances entries across debit/credit closures
	debits := tracker.NewObject("debits")   // journal of debits awaiting settlement
	credits := tracker.NewObject("credits") // journal of posted credits

	// The monitor rides the stream: every seal wakes it, it evaluates the
	// newly sealed segments without stopping commits, and detections are
	// delivered as they are found. The order watch is the banking rule;
	// the predicate watch asks whether all tellers were ever mid-transfer
	// at once (debit written, journal entry not yet).
	monitor := tracker.NewMonitor(mixedclock.MonitorPolicy{
		OnDetection: func(d mixedclock.Detection) {
			if d.Kind == mixedclock.DetectOrder {
				fmt.Printf("LIVE DETECTION %v\n", d)
			}
		},
	})
	defer monitor.Close()
	isWriteOn := func(o *mixedclock.Object) mixedclock.Selector {
		id := o.ID()
		return func(e mixedclock.Event) bool { return e.Object == id && e.Op == mixedclock.OpWrite }
	}
	monitor.WatchOrder("credit-after-debit", isWriteOn(debits), isWriteOn(credits))
	monitor.WatchPossibly("all-tellers-mid-transfer", func(s *mixedclock.GlobalState) bool {
		for t := 0; t < tellers; t++ {
			if s.Executed(mixedclock.ThreadID(t))%2 != 1 {
				return false
			}
		}
		return true
	})

	fmt.Printf("spilling to %s\n", dir)
	fmt.Printf("attach from outside with: mvc detect -live -dir %s -follow -order debits,credits\n\n", dir)

	// Phase 1: honest banking. Tellers debit and journal; the poster reads
	// the journal (the causal handshake) before posting each credit.
	orders := make(chan instruction, tellers)
	var posterWg sync.WaitGroup
	poster := tracker.NewThread("poster")
	posterWg.Add(1)
	go func() {
		defer posterWg.Done()
		for in := range orders {
			poster.Read(debits, nil) // observe the debit: credit now happens-after it
			poster.Write(credits, nil)
			poster.Write(objs[in.to], func() {
				ledgerMu.Lock()
				balances[in.to] += in.amount
				ledgerMu.Unlock()
			})
		}
	}()

	var wg sync.WaitGroup
	tellerThreads := make([]*mixedclock.Thread, tellers)
	for tid := 0; tid < tellers; tid++ {
		th := tracker.NewThread(fmt.Sprintf("teller-%d", tid))
		tellerThreads[tid] = th
		rng := rand.New(rand.NewSource(int64(100 + tid)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < transfers; k++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					to = (to + 1) % accounts
				}
				amount := 1 + rng.Intn(20)
				th.Write(objs[from], func() {
					ledgerMu.Lock()
					balances[from] -= amount
					ledgerMu.Unlock()
				})
				th.Write(debits, nil) // journal the debit
				orders <- instruction{to: to, amount: amount}
			}
		}()
	}
	wg.Wait()
	close(orders)
	posterWg.Wait()

	// Phase 2: the seeded bug. One more transfer — but the credit is
	// posted without reading the journal. No tracked operation links the
	// debit to the credit (the channel is invisible), so the credit write
	// is concurrent with the latest debit-journal write and the order
	// watch fires as soon as the records reach the monitor.
	tellerThreads[0].Write(objs[0], func() { ledgerMu.Lock(); balances[0] -= 5; ledgerMu.Unlock() })
	tellerThreads[0].Write(debits, nil)
	poster.Write(credits, nil) // BUG: skipped poster.Read(debits, nil)
	poster.Write(objs[1], func() { ledgerMu.Lock(); balances[1] += 5; ledgerMu.Unlock() })

	// Close seals the tail and wakes the monitor one last time; Sync
	// drains everything (including anything not yet sealed) so the
	// detection below is guaranteed delivered before we report.
	if err := tracker.Close(); err != nil {
		panic(err)
	}
	if err := monitor.Sync(); err != nil {
		panic(err)
	}

	stats := monitor.Stats()
	fmt.Printf("\nmonitor consumed %d events across %d tellers + 1 poster\n", stats.Consumed, tellers)
	fmt.Printf("census: %v\n", stats.Census)
	fmt.Printf("schedule-sensitive pairs (lock-only orderings): %d\n", stats.Pairs)
	fmt.Printf("mixed clock width %d; incremental König lower bound %d\n", stats.ClockWidth, stats.CoverLowerBound)

	// Detections keeps only the most recent mixedclock.RecentDetections,
	// which a longer run's pairs alone would overflow, so the watch
	// detections are counted from the stats, which count every one.
	fmt.Printf("watch detections: %d\n", stats.Orders+stats.Possibly)
	if line, ok := monitor.RecoveryLine(); ok {
		fmt.Printf("recovery line excluding the violation's causal future: %v (%d events survive)\n", line, line.Size())
	}

	total := 0
	for _, b := range balances {
		total += b
	}
	fmt.Printf("total balance %d (expect %d)\n", total, accounts*100)
	fmt.Printf("spill directory %s left behind for mvc detect -live / mvc catalog\n", dir)
}
