// Debugging demonstrates the paper's debugging use-case on a
// producer–consumer pipeline: producers push work through a bounded queue
// object to consumers, which write results; a stats goroutine occasionally
// reads both. The recorded timestamps then reconstruct what actually
// happened — which results could have been influenced by which inputs, and
// where the schedule could have gone differently.
//
// This is the post-mortem side of the story: the run finishes, Snapshot
// materializes the trace and stamps behind one barrier, and the offline
// analyses answer questions about it in time linear in the trace. The same
// questions can be asked
// while the run is still going — see examples/bankledger for the online
// Monitor, and examples/onlinevsoffline for the trade-off between the two.
package main

import (
	"fmt"
	"sync"

	"mixedclock"
)

func main() {
	tracker, err := mixedclock.Open("")
	if err != nil {
		panic(err)
	}

	queue := tracker.NewObject("queue")
	results := tracker.NewObject("results")

	var (
		queued    []int
		resultSet []int
	)

	// Producers hand items to consumers through a real channel; the
	// tracker records the corresponding object operations so causality is
	// captured at the queue.
	ch := make(chan int, 4)
	var producers, consumers, stats sync.WaitGroup

	var produceStamps []mixedclock.Stamped
	var produceMu sync.Mutex
	for p := 0; p < 2; p++ {
		th := tracker.NewThread(fmt.Sprintf("producer-%d", p))
		producers.Add(1)
		go func(base int) {
			defer producers.Done()
			for k := 0; k < 5; k++ {
				item := base*10 + k
				s := th.Write(queue, func() { queued = append(queued, item) })
				produceMu.Lock()
				produceStamps = append(produceStamps, s)
				produceMu.Unlock()
				ch <- item
			}
		}(p + 1)
	}

	var consumeStamps []mixedclock.Stamped
	var consumeMu sync.Mutex
	for c := 0; c < 2; c++ {
		th := tracker.NewThread(fmt.Sprintf("consumer-%d", c))
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for item := range ch {
				th.Read(queue, nil) // observe the dequeue
				s := th.Write(results, func() { resultSet = append(resultSet, item*item) })
				consumeMu.Lock()
				consumeStamps = append(consumeStamps, s)
				consumeMu.Unlock()
			}
		}()
	}

	statsThread := tracker.NewThread("stats")
	stats.Add(1)
	go func() {
		defer stats.Done()
		for k := 0; k < 3; k++ {
			statsThread.Read(queue, nil)
			statsThread.Read(results, nil)
		}
	}()

	producers.Wait()
	close(ch)
	consumers.Wait()
	stats.Wait()

	fmt.Printf("pipeline done: %d items queued, %d results\n", len(queued), len(resultSet))

	tr, stamps := tracker.Snapshot()
	fmt.Printf("recorded %d events; clock has %d components %v\n\n",
		tracker.Events(), tracker.Size(), tracker.Components())

	// Question 1: could the first result have been influenced by the last
	// queued item? Timestamps answer without replaying anything.
	if len(produceStamps) > 0 && len(consumeStamps) > 0 {
		lastProduce := produceStamps[len(produceStamps)-1]
		firstConsume := consumeStamps[0]
		rel := "is concurrent with (no influence possible)"
		if lastProduce.HappenedBefore(firstConsume) {
			rel = "happened before (influence possible)"
		} else if firstConsume.HappenedBefore(lastProduce) {
			rel = "happened after (no influence possible)"
		}
		fmt.Printf("last enqueue %v %s first result %v\n\n",
			lastProduce.Event, rel, firstConsume.Event)
	}

	// Question 2: overall concurrency structure.
	fmt.Printf("census: %v\n", mixedclock.TakeCensus(tr))

	// Question 3: which pairs were ordered only by a lock (schedule
	// accidents a stress test should try to flip)?
	pairs := mixedclock.ScheduleSensitivePairs(tr)
	fmt.Printf("schedule-sensitive pairs: %d (showing up to 5)\n", len(pairs))
	for i, p := range pairs {
		if i == 5 {
			break
		}
		fmt.Printf("  %v\n", p)
	}

	// Question 4: which threads contend the most?
	matrix := mixedclock.ConflictMatrix(tr)
	fmt.Println("\ncontention matrix (rows precede columns):")
	for i, row := range matrix {
		fmt.Printf("  %v %v\n", mixedclock.ThreadID(i), row)
	}

	if err := mixedclock.Validate(tr, stamps, "debugging"); err != nil {
		panic(err)
	}
	fmt.Println("\ntimestamps validated against the happened-before oracle")
}
