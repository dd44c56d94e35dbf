package mixedclock_test

// One benchmark per figure of the paper's evaluation (§V), plus ablation
// benches for the substrate algorithms and clock schemes. The figure benches
// run the same sweeps as `go run ./cmd/figures` at reduced trial counts, so
// `go test -bench=Fig -benchmem` both times the harness and regenerates the
// series. EXPERIMENTS.md records full-scale outputs.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"mixedclock"
	"mixedclock/internal/baseline"
	"mixedclock/internal/bipartite"
	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/experiment"
	"mixedclock/internal/loadgen"
	"mixedclock/internal/matching"
	"mixedclock/internal/tlog"
	"mixedclock/internal/trace"
	"mixedclock/internal/vclock"
)

// benchOpts keeps figure benches fast while preserving the paper's scale
// (50 nodes per side, the full density axis).
func benchOpts() experiment.Options {
	return experiment.Options{Trials: 2, Seed: 42}
}

// BenchmarkFig4 regenerates "Vector Size Varies as Graph Density Increases"
// (uniform + nonuniform panels, Naive/Random/Popularity).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig4(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates "Vector Size Varies as Number of Nodes
// Increases" (node sweep at density 0.05).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig5(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates the offline-vs-online density sweep.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig6(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates the offline-vs-online node sweep.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig7(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatching compares the paper's Hopcroft–Karp against the Kuhn
// baseline across graph sizes — the ablation for the offline algorithm's
// core.
func BenchmarkMatching(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		g, err := bipartite.Generate(bipartite.GenConfig{
			NThreads: n, NObjects: n, Density: 4.0 / float64(n),
		}, rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("hopcroft-karp/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.HopcroftKarp(g)
			}
		})
		b.Run(fmt.Sprintf("kuhn/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.Kuhn(g)
			}
		})
	}
}

// BenchmarkOfflineAnalysis times the complete Algorithm 1 (matching + König
// cover + component set) on paper-scale graphs.
func BenchmarkOfflineAnalysis(b *testing.B) {
	for _, density := range []float64{0.05, 0.2} {
		g, err := bipartite.Generate(bipartite.GenConfig{
			NThreads: 50, NObjects: 50, Density: density,
		}, rand.New(rand.NewSource(11)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("d=%.2f", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Analyze(g)
			}
		})
	}
}

// BenchmarkTimestamp measures per-event timestamping cost (and allocation)
// for every clock scheme on the same workload — the runtime-overhead
// ablation: the mixed clock's smaller vectors should translate into less
// work per event.
func BenchmarkTimestamp(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	base, err := trace.Generate(trace.HotSet, trace.Config{Threads: 50, Objects: 50, Events: 1_000}, rng)
	if err != nil {
		b.Fatal(err)
	}
	// Extend the sparse structure (cover ≈29 < 50) to 10k events on the
	// same edges, so the mixed clock stays narrow while the event count is
	// benchmark-sized.
	tr := trace.FromGraph(bipartite.FromTrace(base), 9_000, rng)
	events := tr.Events()
	analysis := core.AnalyzeTrace(tr)
	b.Logf("clock widths: thread=%d object=%d mixed=%d",
		tr.Threads(), tr.Objects(), analysis.VectorSize())

	schemes := []struct {
		name string
		make func() clock.Timestamper
	}{
		{"thread-based", func() clock.Timestamper { return baseline.NewThreadClock(tr.Threads(), tr.Objects()) }},
		{"object-based", func() clock.Timestamper { return baseline.NewObjectClock(tr.Threads(), tr.Objects()) }},
		{"chain", func() clock.Timestamper { return baseline.NewChainClock() }},
		{"mixed-offline", func() clock.Timestamper { return analysis.NewClock() }},
		{"mixed-online-popularity", func() clock.Timestamper { return core.NewOnlineMixedClock(core.Popularity{}) }},
		{"mixed-online-hybrid", func() clock.Timestamper { return core.NewOnlineMixedClock(core.NewHybrid()) }},
	}
	for _, s := range schemes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts := s.make()
				for _, e := range events {
					ts.Timestamp(e)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}

// deepJoinTrace builds the deep-join shape at a given width: every thread
// touches a private object once (forcing a wide cover that then goes
// quiescent), after which two threads ping-pong through one token object —
// a causal chain thousands of joins deep where each join changes only the
// chain's own components.
func deepJoinTrace(threads, rounds int) *mixedclock.Trace {
	deep := mixedclock.NewTrace()
	for i := 0; i < threads; i++ {
		deep.Append(mixedclock.ThreadID(i), mixedclock.ObjectID(i), mixedclock.OpWrite)
	}
	token := mixedclock.ObjectID(threads)
	for r := 0; r < rounds; r++ {
		deep.Append(0, token, mixedclock.OpWrite)
		deep.Append(1, token, mixedclock.OpWrite)
	}
	return deep
}

// readHeavyTrace builds the read-heavy shape at a given width: after one
// covering pass, every thread re-reads only its own object — each join is
// already dominated.
func readHeavyTrace(threads, rounds int) *mixedclock.Trace {
	reads := mixedclock.NewTrace()
	for r := 0; r <= rounds; r++ {
		for i := 0; i < threads; i++ {
			op := mixedclock.OpRead
			if r == 0 {
				op = mixedclock.OpWrite
			}
			reads.Append(mixedclock.ThreadID(i), mixedclock.ObjectID(i), op)
		}
	}
	return reads
}

// backendTraces builds the workload shapes for the flat-vs-tree backend
// head-to-head. Each shape stresses a different join profile over a wide
// component set (hundreds of components), which is where the representations
// diverge: flat pays O(width) per event regardless, tree pays only for the
// components each join changes. The w64/w128 variants of the causally local
// shapes bracket the flat→tree crossover that core.ChooseBackend's
// AutoTreeWidth threshold encodes.
func backendTraces() []struct {
	name string
	tr   *mixedclock.Trace
} {
	// wide-fanin: producers tick private mailboxes, one collector sweeps
	// all of them every round.
	fanin := mixedclock.NewTrace()
	const producers, faninRounds = 192, 30
	for r := 0; r < faninRounds; r++ {
		for i := 1; i <= producers; i++ {
			fanin.Append(mixedclock.ThreadID(i), mixedclock.ObjectID(i), mixedclock.OpWrite)
		}
		for i := 1; i <= producers; i++ {
			fanin.Append(0, mixedclock.ObjectID(i), mixedclock.OpRead)
		}
	}

	// seeded: the hot-set generator workload the rest of the suite uses.
	rng := rand.New(rand.NewSource(13))
	base, err := trace.Generate(trace.HotSet, trace.Config{Threads: 50, Objects: 50, Events: 1_000}, rng)
	if err != nil {
		panic(err)
	}
	seeded := trace.FromGraph(bipartite.FromTrace(base), 9_000, rng)

	return []struct {
		name string
		tr   *mixedclock.Trace
	}{
		{"deep-join", deepJoinTrace(256, 6000)},
		{"deep-join-w64", deepJoinTrace(64, 6000)},
		{"deep-join-w128", deepJoinTrace(128, 6000)},
		{"wide-fanin", fanin},
		{"read-heavy", readHeavyTrace(256, 60)},
		{"read-heavy-w64", readHeavyTrace(64, 240)},
		{"read-heavy-w128", readHeavyTrace(128, 120)},
		{"seeded-hotset", seeded},
	}
}

// BenchmarkBackends runs the flat and tree clock backends head-to-head over
// the same optimal component sets. The acceptance bar: tree at least matches
// flat on the deep-join chain, and wins outright wherever joins have causal
// locality.
func BenchmarkBackends(b *testing.B) {
	for _, shape := range backendTraces() {
		analysis := core.AnalyzeTrace(shape.tr)
		events := shape.tr.Events()
		for _, backend := range []vclock.Backend{vclock.BackendFlat, vclock.BackendTree} {
			b.Run(shape.name+"/"+backend.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mc := analysis.NewClockBackend(backend)
					for _, e := range events {
						mc.Timestamp(e)
					}
					if err := mc.Err(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
				b.ReportMetric(float64(analysis.VectorSize()), "components")
			})
		}
	}
}

// BenchmarkStampBytes reports the final timestamp width (components) per
// scheme — the space half of the paper's claim. The hot-set workload keeps
// the access structure sparse so the mixed clock's optimality shows
// (measured: ≈29 components vs 50 for the thread clock).
func BenchmarkStampBytes(b *testing.B) {
	cfg := trace.Config{Threads: 50, Objects: 50, Events: 1_000}
	tr, err := trace.Generate(trace.HotSet, cfg, rand.New(rand.NewSource(13)))
	if err != nil {
		b.Fatal(err)
	}
	analysis := core.AnalyzeTrace(tr)
	schemes := []struct {
		name string
		make func() clock.Timestamper
	}{
		{"thread-based", func() clock.Timestamper { return baseline.NewThreadClock(tr.Threads(), tr.Objects()) }},
		{"mixed-offline", func() clock.Timestamper { return analysis.NewClock() }},
		{"chain", func() clock.Timestamper { return baseline.NewChainClock() }},
	}
	for _, s := range schemes {
		b.Run(s.name, func(b *testing.B) {
			var components int
			for i := 0; i < b.N; i++ {
				ts := s.make()
				clock.Run(tr, ts)
				components = ts.Components()
			}
			b.ReportMetric(float64(components), "components")
			b.ReportMetric(float64(components*8), "stamp-bytes")
		})
	}
}

// BenchmarkOnlineReveal measures the per-edge cost of the online cover
// mechanisms (no timestamping) — what SimulateCover pays in Figs. 4–7.
func BenchmarkOnlineReveal(b *testing.B) {
	g, err := bipartite.Generate(bipartite.GenConfig{
		NThreads: 100, NObjects: 100, Density: 0.1,
	}, rand.New(rand.NewSource(19)))
	if err != nil {
		b.Fatal(err)
	}
	order := g.RevealOrder(rand.New(rand.NewSource(20)))
	mechs := []core.Mechanism{
		core.NaiveThreads{},
		core.Popularity{},
		core.NewHybrid(),
	}
	for _, m := range mechs {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SimulateCover(order, m)
			}
		})
	}
	b.Run("random", func(b *testing.B) {
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < b.N; i++ {
			core.SimulateCover(order, core.Random{Rng: rng})
		}
	})
}

// BenchmarkSharedReveal measures the live tracker's component discovery
// under a reveal storm: the complete 32×256 graph (the cold-reveal
// workload's shape) revealed from an empty core.SharedCover under Hybrid,
// one Observe per edge, in a fixed shuffled order. Each op is the whole
// 8 192-edge storm; ns/reveal is the per-edge cost and allocs/op the
// generations the storm builds. CI's regression gate tracks it.
func BenchmarkSharedReveal(b *testing.B) {
	const nThreads, nObjects = 32, 256
	order := make([]bipartite.Edge, 0, nThreads*nObjects)
	for t := 0; t < nThreads; t++ {
		for o := 0; o < nObjects; o++ {
			order = append(order, bipartite.Edge{Thread: t, Object: o})
		}
	}
	rand.New(rand.NewSource(24)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.NewSharedCover(core.NewCoverTracker(core.NewHybrid()))
		for _, e := range order {
			s.Observe(mixedclock.ThreadID(e.Thread), mixedclock.ObjectID(e.Object))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(order)), "ns/reveal")
}

// BenchmarkDeltaEncoding measures the Singhal–Kshemkalyani differential
// encoding (§VI) as the tracker ships it — the delta log's per-thread change
// sets, written by tlog.WriteAllDelta — against MVCLOG01's full vectors
// (tlog.WriteAll), in bytes per event. The stamps are the thread clock's on
// a bursty workload (each thread performs runs of operations on one
// object), where a thread's consecutive stamps differ in few components.
func BenchmarkDeltaEncoding(b *testing.B) {
	const nThreads, nObjects, bursts, burstLen = 40, 40, 15, 10
	rng := rand.New(rand.NewSource(23))
	tr := mixedclock.NewTrace()
	for round := 0; round < bursts; round++ {
		for tid := 0; tid < nThreads; tid++ {
			obj := mixedclock.ObjectID(rng.Intn(nObjects))
			for k := 0; k < burstLen; k++ {
				tr.Append(mixedclock.ThreadID(tid), obj, mixedclock.OpWrite)
			}
		}
	}
	stamps := clock.Run(tr, baseline.NewThreadClock(tr.Threads(), tr.Objects()))
	for _, enc := range []struct {
		name  string
		write func(io.Writer, *mixedclock.Trace, []vclock.Vector) error
	}{
		{"delta", tlog.WriteAllDelta},
		{"full", tlog.WriteAll},
	} {
		b.Run(enc.name, func(b *testing.B) {
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := enc.write(&buf, tr, stamps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len())/float64(tr.Len()), "B/event")
		})
	}
}

// BenchmarkTracker measures the live tracker under goroutine contention.
func BenchmarkTracker(b *testing.B) {
	for _, objects := range []int{1, 16} {
		b.Run(fmt.Sprintf("objects=%d", objects), func(b *testing.B) {
			tracker := openTracker(b)
			objs := make([]*mixedclock.Object, objects)
			for i := range objs {
				objs[i] = tracker.NewObject("o")
			}
			b.RunParallel(func(pb *testing.PB) {
				th := tracker.NewThread("w")
				i := 0
				for pb.Next() {
					th.Write(objs[i%len(objs)], nil)
					i++
				}
			})
		})
	}
}

// BenchmarkTrackerParallel measures tracker throughput across a goroutine ×
// object grid — the scaling benchmark for the sharded hot path. The "flat"
// level names the tracker's clock representation. Each goroutine drives its own Thread (as the API requires) over
// a slice of shared objects; with the global tracker lock gone, the only
// cross-goroutine contention left is the object stripes, the sharded world
// barrier's per-thread reader counts (track/world.go), and the padded trace
// index — the goroutines=32 point is where the per-shard cache-line padding
// shows up on many-core runners. CI's benchmark-regression gate compares
// this (and BenchmarkBackends) against the PR base via benchstat +
// cmd/benchdiff.
func BenchmarkTrackerParallel(b *testing.B) {
	for _, goroutines := range []int{1, 2, 4, 8, 32} {
		for _, objects := range []int{8, 64} {
			name := fmt.Sprintf("flat/goroutines=%d/objects=%d", goroutines, objects)
			b.Run(name, func(b *testing.B) {
				tracker := openTracker(b)
				objs := make([]*mixedclock.Object, objects)
				for i := range objs {
					objs[i] = tracker.NewObject("o")
				}
				threads := make([]*mixedclock.Thread, goroutines)
				for i := range threads {
					threads[i] = tracker.NewThread("w")
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(th *mixedclock.Thread, g int) {
						defer wg.Done()
						// Mostly-private slice of objects with periodic
						// crossings, so causality actually flows between
						// goroutines without serializing every op. The
						// crossing index advances with i/16 (decoupled
						// from the %16 phase) so crossings sweep the
						// whole object set from every goroutine.
						n := b.N / goroutines
						for i := 0; i < n; i++ {
							var o *mixedclock.Object
							if i%16 == 0 {
								o = objs[(i/16+g)%len(objs)]
							} else {
								o = objs[(g*7+i*goroutines)%len(objs)]
							}
							th.Write(o, nil)
						}
					}(threads[g], g)
				}
				wg.Wait()
				b.StopTimer()
				if err := tracker.Err(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(tracker.Events())/b.Elapsed().Seconds(), "ops/s")
			})
		}
	}
}

// BenchmarkTrackerParallelContended is the contention-heavy shape that
// motivates batching: many goroutines hammering a FEW shared objects, so the
// object stripes and the trace-index counter are the bottleneck rather than
// the clock work. Both commit paths run the identical event sequence — each
// goroutine works one object for a run of 16 operations, then switches —
// so do vs batch16 isolates pure synchronization amortization: one stripe
// hold, one world-shard hold, one cover load and one index fetch per batch
// instead of per event. read-heavy is 90% reads (shared stripe mode for Do,
// which batching trades for a briefer exclusive hold), write-heavy 90%
// writes. CI's regression gate tracks this grid; the batch16 points are the
// ones the batched-commit work must keep ≥25% under their do twins at 8+
// goroutines.
func BenchmarkTrackerParallelContended(b *testing.B) {
	const objects, run = 2, 16
	for _, shape := range []string{"write-heavy", "read-heavy"} {
		for _, goroutines := range []int{8, 32} {
			for _, commit := range []string{"do", "batch16"} {
				name := fmt.Sprintf("%s/goroutines=%d/%s", shape, goroutines, commit)
				b.Run(name, func(b *testing.B) {
					var tracker *mixedclock.Tracker
					var objs []*mixedclock.Object
					var threads []*mixedclock.Thread
					build := func() {
						tracker = openTracker(b)
						objs = objs[:0]
						for i := 0; i < objects; i++ {
							objs = append(objs, tracker.NewObject("hot"))
						}
						threads = threads[:0]
						for i := 0; i < goroutines; i++ {
							threads = append(threads, tracker.NewThread("w"))
						}
					}
					// The shared op mix: one run's worth, 90/10 by shape.
					ops := make([]mixedclock.Op, run)
					for k := range ops {
						if (shape == "read-heavy") != (k%10 == 0) {
							ops[k] = mixedclock.OpRead
						}
					}
					build()
					events := 0
					b.ReportAllocs()
					b.ResetTimer()
					// Bounded rounds, rebuilding the tracker outside the
					// timer between them: the unmerged record buffers grow
					// with every commit (nothing seals here), and an
					// unbounded b.N-sized run measures GC pressure instead
					// of the commit paths.
					for remaining := b.N; remaining > 0; {
						perG := (1 << 17) / goroutines / run
						if left := remaining / goroutines / run; left < perG {
							perG = left
						}
						if perG == 0 {
							perG = 1
						}
						var wg sync.WaitGroup
						for g := 0; g < goroutines; g++ {
							wg.Add(1)
							go func(th *mixedclock.Thread, g int) {
								defer wg.Done()
								for i := 0; i < perG; i++ {
									o := objs[(g+i)%objects]
									if commit == "batch16" {
										th.DoBatch(o, ops)
										continue
									}
									for k := 0; k < run; k++ {
										if ops[k] == mixedclock.OpRead {
											th.Read(o, nil)
										} else {
											th.Write(o, nil)
										}
									}
								}
							}(threads[g], g)
						}
						wg.Wait()
						remaining -= perG * goroutines * run
						events += perG * goroutines * run
						if remaining > 0 {
							b.StopTimer()
							if err := tracker.Err(); err != nil {
								b.Fatal(err)
							}
							build()
							b.StartTimer()
						}
					}
					b.StopTimer()
					if err := tracker.Err(); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "ops/s")
				})
			}
		}
	}
}

// BenchmarkBatch measures the batched commit path in isolation across batch
// sizes: ns and bytes per OPERATION (b.N counts operations, not batches).
// size=1 prices the batch wrapper against plain Do; size=16 and size=256
// show the amortization curve — the per-batch synchronization and the one
// []Stamped allocation spread across the batch, with the per-op clock work
// unchanged. CI's -benchmem gate locks in that B/op shrinks, never grows,
// as the batch widens. mixed/size=16 times whole commits through a reused
// Batch, whose Commit allocates nothing.
func BenchmarkBatch(b *testing.B) {
	for _, size := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			var th *mixedclock.Thread
			var o *mixedclock.Object
			build := func() {
				tracker := openTracker(b)
				th = tracker.NewThread("w")
				o = tracker.NewObject("o")
				th.Write(o, nil) // reveal the edge outside the timer
			}
			build()
			ops := make([]mixedclock.Op, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				if i > 0 && i%(1<<18) < size {
					b.StopTimer()
					build()
					b.StartTimer()
				}
				th.DoBatch(o, ops)
			}
		})
	}
	// mixed drives Batch.Commit over 16 operations alternating between
	// two objects — two-operation same-object runs — with one Batch reused
	// throughout. b.N counts commits here, so allocs/op is allocations per
	// Commit and the gate's 0 → nonzero allocs rule guards the Batch's
	// own buffers on top of the commit path.
	b.Run("mixed/size=16", func(b *testing.B) {
		const size = 16
		var batch *mixedclock.Batch
		var objs [2]*mixedclock.Object
		build := func() {
			tracker := openTracker(b)
			th := tracker.NewThread("w")
			objs = [2]*mixedclock.Object{tracker.NewObject("o0"), tracker.NewObject("o1")}
			th.Write(objs[0], nil) // reveal both edges outside the timer
			th.Write(objs[1], nil)
			batch = th.NewBatch()
		}
		build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%(1<<14) == 0 {
				b.StopTimer()
				build()
				b.StartTimer()
			}
			for k := range size {
				batch.Write(objs[k/2%2])
			}
			batch.Commit()
		}
	})
}

// BenchmarkStamp measures the Thread.Do hot path in isolation — ns/op and,
// with -benchmem, allocs/op and B/op — across clock widths. The delta
// stamping pipeline's contract is that both memory figures stay flat as k
// grows (allocs/op ≲ 1 amortized at every width; no O(k) flatten per
// event). Two shapes bracket the commit paths:
//
//   - same-object: a thread re-acquiring one object — the version-cache
//     fast path, O(1) at any width;
//   - alternate: a thread bouncing between two objects — the full
//     update-rule path, an O(k) scan of the flat vector (but no
//     allocation).
//
// CI's benchmark-regression gate runs this with -benchmem, so the
// allocation wins are locked in alongside the time.
func BenchmarkStamp(b *testing.B) {
	shapes := []string{"same-object", "alternate"}
	for _, shape := range shapes {
		for _, k := range []int{16, 256, 1024} {
			name := fmt.Sprintf("%s/flat/k=%d", shape, k)
			b.Run(name, func(b *testing.B) {
				var th *mixedclock.Thread
				var objs []*mixedclock.Object
				// build widens the cover to ~k components (one per
				// private thread-object edge), then registers the hot
				// thread and its objects.
				build := func() {
					tracker := openTracker(b)
					for i := 0; i < k; i++ {
						tracker.NewThread("w").Write(tracker.NewObject("p"), nil)
					}
					th = tracker.NewThread("hot")
					objs = objs[:0]
					for i := 0; i < 2; i++ {
						o := tracker.NewObject("hot")
						th.Write(o, nil) // reveal the edge outside the timer
						objs = append(objs, o)
					}
				}
				build()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Rebuild periodically (outside the timer) so the
					// record buffers don't grow without bound at large
					// b.N; the measured ops always run against a warm
					// tracker.
					if i > 0 && i%(1<<18) == 0 {
						b.StopTimer()
						build()
						b.StartTimer()
					}
					o := objs[0]
					if shape == "alternate" {
						o = objs[i%2]
					}
					th.Write(o, nil)
				}
			})
		}
	}
}

// BenchmarkSnapshotStream compares the two ways of exporting a live
// tracker's history as a delta log: SnapshotTo (the streaming pipeline —
// sealed segments and the tail feed the log writer record by record) versus
// materializing Snapshot() and handing the vector table to WriteLogDelta.
// The contract CI's -benchmem gate locks in: the streaming path's B/op is
// O(1) in the event count — constant writer/reader state, no per-event
// allocation — so it stays flat across the 10× events sweep, while the
// materializing path grows with events × width. The sealed variant seals
// every 4096 events first, so the stream also exercises segment decode
// (its B/op grows only with the segment count, ~3 orders of magnitude
// below the vector table).
func BenchmarkSnapshotStream(b *testing.B) {
	build := func(events int, seal bool) *mixedclock.Tracker {
		var opts []mixedclock.TrackerOption
		if seal {
			opts = append(opts, mixedclock.WithStore(mixedclock.Store{
				Spill: mixedclock.SpillPolicy{SealEvery: 4096},
			}))
		}
		tracker := openTracker(b, opts...)
		const nThreads, nObjects = 8, 32
		threads := make([]*mixedclock.Thread, nThreads)
		for i := range threads {
			threads[i] = tracker.NewThread("w")
		}
		objs := make([]*mixedclock.Object, nObjects)
		for i := range objs {
			objs[i] = tracker.NewObject("o")
		}
		for i := 0; i < events; i++ {
			threads[i%nThreads].Write(objs[(i*7)%nObjects], nil)
		}
		if err := tracker.Err(); err != nil {
			b.Fatal(err)
		}
		return tracker
	}
	for _, events := range []int{5_000, 50_000} {
		plain := build(events, false)
		sealed := build(events, true)
		b.Run(fmt.Sprintf("stream/events=%d", events), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := plain.SnapshotTo(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("stream-sealed/events=%d", events), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sealed.SnapshotTo(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("materialize/events=%d", events), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, stamps := plain.Snapshot()
				if err := mixedclock.WriteLogDelta(io.Discard, tr, stamps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSegmentCompact measures the segment lifecycle manager's tiered
// compaction on both layers, with -benchmem feeding CI's regression gate:
//
//   - merge: tlog.MergeSegments re-encoding a run of small delta segments
//     into one — the pure rewrite cost per compaction pass (streamed, so
//     B/op is the merged container plus bounded reader/writer state);
//   - tracker: a full Tracker.CompactSegments pass over a freshly sealed
//     in-memory history (plan + merge + barrier swap), rebuilt outside the
//     timer each iteration.
func BenchmarkSegmentCompact(b *testing.B) {
	buildSealed := func(segments, perSegment int) *mixedclock.Tracker {
		tracker := openTracker(b, mixedclock.WithStore(mixedclock.Store{
			Spill: mixedclock.SpillPolicy{SealEvery: perSegment},
		}))
		const nThreads, nObjects = 4, 8
		threads := make([]*mixedclock.Thread, nThreads)
		for i := range threads {
			threads[i] = tracker.NewThread("w")
		}
		objs := make([]*mixedclock.Object, nObjects)
		for i := range objs {
			objs[i] = tracker.NewObject("o")
		}
		for i := 0; i < segments*perSegment; i++ {
			threads[i%nThreads].Write(objs[(i*3)%nObjects], nil)
		}
		if err := tracker.Err(); err != nil {
			b.Fatal(err)
		}
		return tracker
	}
	for _, segments := range []int{16, 64} {
		b.Run(fmt.Sprintf("merge/segs=%d", segments), func(b *testing.B) {
			// One recorded run, sealed as `segments` raw containers the way
			// the tracker seals its tail, re-merged every iteration from
			// fresh readers.
			tracker := buildSealed(segments, 32)
			full, stamps := tracker.Snapshot()
			var pieces [][]byte
			per := full.Len() / segments
			for s := 0; s < segments; s++ {
				var payload bytes.Buffer
				w := tlog.NewDeltaWriter(&payload)
				widths := make([]int, 0, per)
				for i := s * per; i < (s+1)*per; i++ {
					if err := w.Append(full.At(i), stamps[i]); err != nil {
						b.Fatal(err)
					}
					widths = append(widths, len(stamps[i]))
				}
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
				data, err := tlog.AppendSegment(nil,
					tlog.SegmentMeta{FirstIndex: s * per, Count: per}, widths, payload.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				pieces = append(pieces, data)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				readers := make([]io.Reader, len(pieces))
				for j, p := range pieces {
					readers[j] = bytes.NewReader(p)
				}
				if _, err := tlog.MergeSegments(io.Discard, readers...); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("tracker/segs=%d", segments), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tracker := buildSealed(segments, 8)
				b.StartTimer()
				if _, err := tracker.CompactSegments(mixedclock.CompactPolicy{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countingSink drains a stream, keeping nothing.
type countingSink struct{ n int }

func (s *countingSink) ConsumeStamp(mixedclock.Event, int, mixedclock.Vector) error {
	s.n++
	return nil
}

// BenchmarkStreamTail measures Stream over a fully unsealed history — the
// double-buffered merged tail, replayed outside the world barrier, which is
// held only for the merge+freeze. The tail keeps change sets, not stamps, so
// the replay rebuilds every stamp by applying its change set to its
// thread's running vector: ns/op is O(events × changed components), the
// work the merge no longer does under the barrier. -benchmem locks in that
// the replay allocates only the freeze snapshot — the block slice, the
// per-thread bases and one slab for the running vectors — so allocs/op is
// the same at every event count.
func BenchmarkStreamTail(b *testing.B) {
	for _, events := range []int{5_000, 50_000} {
		tracker := openTracker(b)
		const nThreads, nObjects = 8, 32
		threads := make([]*mixedclock.Thread, nThreads)
		for i := range threads {
			threads[i] = tracker.NewThread("w")
		}
		objs := make([]*mixedclock.Object, nObjects)
		for i := range objs {
			objs[i] = tracker.NewObject("o")
		}
		for i := 0; i < events; i++ {
			threads[i%nThreads].Write(objs[(i*7)%nObjects], nil)
		}
		if err := tracker.Err(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			// Warm outside the timer: the first Stream pays the one-off
			// merge/materialization; the gate watches the steady-state
			// replay.
			if err := tracker.Stream(&countingSink{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink := &countingSink{}
				if err := tracker.Stream(sink); err != nil {
					b.Fatal(err)
				}
				if sink.n != events {
					b.Fatalf("streamed %d of %d records", sink.n, events)
				}
			}
		})
	}
}

// BenchmarkLazyTailStamp measures the first Stamped.Vector of a stamp still
// in the unsealed tail, for one thread. With no seal policy the whole run
// is one thread chain in the tail. Each op materializes a different stamp,
// which replays at most 64 change sets from the thread's nearest
// full-stamp checkpoint, so ns/op stays flat from 5k to 50k events —
// without the checkpoints it would grow with the stamp's distance from the
// tail's start. The sealed cases seal the first three fifths of the run on
// the lifecycle worker (SealEvery), whose seal weaves the generation it
// cuts through: the ops cover the last two fifths, the unsealed tail, whose
// checkpoints the run vectors rebuilt starting from the stamps the seal's
// log writer ended with — and stay as flat, however much is sealed.
func BenchmarkLazyTailStamp(b *testing.B) {
	for _, sealed := range []bool{false, true} {
		for _, events := range []int{5_000, 50_000} {
			name := fmt.Sprintf("events=%d", events)
			var opts []mixedclock.TrackerOption
			sealEvery := 0
			if sealed {
				name, sealEvery = "sealed/"+name, events*3/5
				opts = append(opts, mixedclock.WithStore(mixedclock.Store{Spill: mixedclock.SpillPolicy{SealEvery: sealEvery}}))
			}
			b.Run(name, func(b *testing.B) {
				var stamps []mixedclock.Stamped
				// first is the tail's first index once the worker has
				// sealed every whole interval.
				first := 0
				if sealEvery > 0 {
					first = events / sealEvery * sealEvery
				}
				build := func() {
					tracker := openTracker(b, opts...)
					th := tracker.NewThread("w")
					objs := make([]*mixedclock.Object, 8)
					for i := range objs {
						objs[i] = tracker.NewObject("o")
					}
					stamps = stamps[:0]
					for i := 0; i < events; i++ {
						stamps = append(stamps, th.Write(objs[(i*3)%len(objs)], nil))
					}
					for deadline := time.Now().Add(time.Minute); tracker.Stats().SealedEvents < first; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							b.Fatalf("sealed %d events, want %d", tracker.Stats().SealedEvents, first)
						}
					}
					// Merge once outside the timer, as any earlier reader
					// would: the newest stamp weaves every pending
					// generation.
					stamps[events-1].Vector()
				}
				build()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := first + i%(events-first-1)
					if j == first && i > 0 {
						b.StopTimer()
						build()
						b.StartTimer()
					}
					if stamps[j].Vector() == nil {
						b.Fatal("tail stamp did not materialize")
					}
				}
			})
		}
	}
}

// BenchmarkGreedyVsOptimalCover times the greedy cover heuristic against
// the exact algorithm (quality is compared in experiment.GreedyVsOptimal).
func BenchmarkGreedyVsOptimalCover(b *testing.B) {
	g, err := bipartite.Generate(bipartite.GenConfig{
		NThreads: 200, NObjects: 200, Density: 0.05,
	}, rand.New(rand.NewSource(29)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.GreedyCover(g)
		}
	})
	b.Run("konig", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matching.MinVertexCover(g)
		}
	})
}

// BenchmarkRecover measures track.Open rebuilding a live tracker from a
// spill directory left by a crash: every listed segment verified (size,
// SHA-256, header, a scan of every record), per-thread and per-object
// clocks rebuilt from the segments holding their last records, the
// component cover reconstructed from the resume manifest, and a fresh
// catalog generation published. Every iteration is a full crash recovery
// of a run built once per configuration:
//
//   - segs=N/events=M: 4 threads on 8 objects, N small segments;
//   - nonuniform: the paper's Nonuniform 256×256 d=0.005 graph
//     (sealWorkload), 250 000 events in 50 000-event segments, all in the
//     epoch the reopen resumes;
//   - nonuniform-compact: the same 250 000 events, then an epoch Compact
//     and one more 50 000-event segment — the shape of the load
//     benchmark's durable-monitor directory, where the resumed epoch is a
//     small part of what Open verifies.
//
// ns/event is the recovery cost per listed event. -benchmem locks in the
// reconstruction allocation profile for cmd/benchdiff.
func BenchmarkRecover(b *testing.B) {
	for _, cfg := range []struct{ segments, perSegment int }{
		{8, 512},
		{32, 512},
	} {
		b.Run(fmt.Sprintf("segs=%d/events=%d", cfg.segments, cfg.segments*cfg.perSegment), func(b *testing.B) {
			dir := b.TempDir()
			tracker, err := mixedclock.Open(dir, mixedclock.WithStore(mixedclock.Store{
				Spill: mixedclock.SpillPolicy{SealEvery: cfg.perSegment},
			}))
			if err != nil {
				b.Fatal(err)
			}
			const nThreads, nObjects = 4, 8
			threads := make([]*mixedclock.Thread, nThreads)
			for i := range threads {
				threads[i] = tracker.NewThread(fmt.Sprintf("w%d", i))
			}
			objs := make([]*mixedclock.Object, nObjects)
			for i := range objs {
				objs[i] = tracker.NewObject(fmt.Sprintf("o%d", i))
			}
			for i := 0; i < cfg.segments*cfg.perSegment; i++ {
				threads[i%nThreads].Write(objs[(i*3)%nObjects], nil)
			}
			if err := tracker.Seal(); err != nil {
				b.Fatal(err)
			}
			benchRecover(b, dir, tracker, cfg.segments*cfg.perSegment)
		})
	}
	for _, compact := range []bool{false, true} {
		name := "nonuniform"
		if compact {
			name += "-compact"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			tracker, err := mixedclock.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			commit, perSegment := sealWorkload(b, tracker)
			rounds := 5
			if compact {
				rounds++
			}
			for r := range rounds {
				if compact && r == rounds-1 {
					if _, _, err := tracker.Compact(); err != nil {
						b.Fatal(err)
					}
				}
				commit()
				if err := tracker.Seal(); err != nil {
					b.Fatal(err)
				}
			}
			benchRecover(b, dir, tracker, rounds*perSegment)
		})
	}
}

// benchRecover times Open on dir, where tracker has sealed events events
// and is abandoned without Close: each iteration recovers a crashed run,
// not a cleanly closed one.
func benchRecover(b *testing.B, dir string, tracker *mixedclock.Tracker, events int) {
	if err := tracker.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := mixedclock.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		ri := re.Recovery()
		if ri == nil || ri.Events != events || re.Err() != nil {
			b.Fatalf("unhealthy recovery: %+v, err %v", ri, re.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkMonitorLive measures commit throughput with an online Monitor
// riding the seal stream against the same run bare: the cost of live
// detection is the delta between the sub-benches, and because sealed
// segments are evaluated off the commit path it should stay a small
// constant factor, not a stop-the-world one. The monitor runs a bounded
// census window, the exact pair scanner and an order watch; Sync drains
// the tail after the timer stops and the consumed count is verified.
func BenchmarkMonitorLive(b *testing.B) {
	for _, monitored := range []bool{false, true} {
		name := "bare"
		if monitored {
			name = "monitor"
		}
		b.Run(name, func(b *testing.B) {
			tracker, err := mixedclock.Open(b.TempDir(), mixedclock.WithStore(mixedclock.Store{
				Spill: mixedclock.SpillPolicy{SealEvery: 4096},
			}))
			if err != nil {
				b.Fatal(err)
			}
			const nThreads, nObjects = 4, 8
			threads := make([]*mixedclock.Thread, nThreads)
			for i := range threads {
				threads[i] = tracker.NewThread(fmt.Sprintf("w%d", i))
			}
			objs := make([]*mixedclock.Object, nObjects)
			for i := range objs {
				objs[i] = tracker.NewObject(fmt.Sprintf("o%d", i))
			}
			var m *mixedclock.Monitor
			if monitored {
				m = tracker.NewMonitor(mixedclock.MonitorPolicy{Window: 64})
				m.WatchOrder("o1-after-o0",
					func(e mixedclock.Event) bool { return e.Object == 0 && e.Op == mixedclock.OpWrite },
					func(e mixedclock.Event) bool { return e.Object == 1 && e.Op == mixedclock.OpWrite },
				)
				defer m.Close()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				threads[i%nThreads].Write(objs[(i*3)%nObjects], nil)
			}
			b.StopTimer()
			if err := tracker.Err(); err != nil {
				b.Fatal(err)
			}
			if m != nil {
				if err := m.Sync(); err != nil {
					b.Fatal(err)
				}
				if st := m.Stats(); st.Consumed != tracker.Events() || m.Err() != nil {
					b.Fatalf("monitor consumed %d of %d, err %v", st.Consumed, tracker.Events(), m.Err())
				}
			}
			if err := tracker.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMonitorConsume measures a Monitor's per-record cost on its
// own, off the commit path: each iteration attaches a fresh
// Monitor{Window: 16} to a tracker holding sealed history at clock width
// ≈150 (the paper's Nonuniform 256×256 d=0.005 graph, every edge revealed,
// then random edges at 50% reads) and Syncs it, replaying every segment
// through the census window, the pair scanner and an order watch.
// ns/event is the replay-plus-evaluation cost per record. A monitor's
// set-up allocates a constant amount, so allocs/op tracks the segment
// count, not the event count: consumption itself allocates nothing per
// record, and CI's -benchmem gate keeps it that way.
func BenchmarkMonitorConsume(b *testing.B) {
	g, err := bipartite.Generate(bipartite.GenConfig{
		NThreads: 256, NObjects: 256, Density: 0.005, Scenario: bipartite.Nonuniform,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	tracker := openTracker(b, mixedclock.WithStore(mixedclock.Store{
		Spill: mixedclock.SpillPolicy{SealEvery: 4096},
	}))
	threads := make([]*mixedclock.Thread, g.NThreads())
	for i := range threads {
		threads[i] = tracker.NewThread(fmt.Sprintf("t%d", i))
	}
	objs := make([]*mixedclock.Object, g.NObjects())
	for i := range objs {
		objs[i] = tracker.NewObject(fmt.Sprintf("o%d", i))
	}
	for _, e := range trace.FromGraph(g, 32_000, rng).Events() {
		op := mixedclock.OpWrite
		if rng.Intn(2) == 0 {
			op = mixedclock.OpRead
		}
		threads[e.Thread].Do(objs[e.Object], op, nil)
	}
	if err := tracker.Seal(); err != nil {
		b.Fatal(err)
	}
	events := tracker.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := tracker.NewMonitor(mixedclock.MonitorPolicy{Window: 16})
		m.WatchOrder("o1-after-o0",
			func(e mixedclock.Event) bool { return e.Object == 0 && e.Op == mixedclock.OpWrite },
			func(e mixedclock.Event) bool { return e.Object == 1 && e.Op == mixedclock.OpWrite },
		)
		if err := m.Sync(); err != nil {
			b.Fatal(err)
		}
		m.Close()
		if st := m.Stats(); st.Consumed != events || m.Err() != nil {
			b.Fatalf("monitor consumed %d of %d, err %v", st.Consumed, events, m.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	b.ReportMetric(float64(tracker.Size()), "components")
}

// sealWorkload registers the threads and objects of the paper's
// Nonuniform 256×256 d=0.005 graph on tracker and returns a function that
// commits 50 000 events over it from two goroutines, each driving its own
// threads, half of them reads — the load benchmark's steady state — plus
// the event count.
func sealWorkload(b *testing.B, tracker *mixedclock.Tracker) (commit func(), events int) {
	g, err := bipartite.Generate(bipartite.GenConfig{
		NThreads: 256, NObjects: 256, Density: 0.005, Scenario: bipartite.Nonuniform,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	threads := make([]*mixedclock.Thread, g.NThreads())
	for i := range threads {
		threads[i] = tracker.NewThread(fmt.Sprintf("t%d", i))
	}
	objs := make([]*mixedclock.Object, g.NObjects())
	for i := range objs {
		objs[i] = tracker.NewObject(fmt.Sprintf("o%d", i))
	}
	type op struct {
		th *mixedclock.Thread
		o  *mixedclock.Object
		op mixedclock.Op
	}
	var workers [2][]op
	evs := trace.FromGraph(g, 50_000, rng).Events()
	for _, e := range evs {
		kind := mixedclock.OpWrite
		if rng.Intn(2) == 0 {
			kind = mixedclock.OpRead
		}
		d := int(e.Thread) % len(workers)
		workers[d] = append(workers[d], op{threads[e.Thread], objs[e.Object], kind})
	}
	commit = func() {
		var wg sync.WaitGroup
		for _, ops := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, p := range ops {
					p.th.Do(p.o, p.op, nil)
				}
			}()
		}
		wg.Wait()
	}
	return commit, len(evs)
}

// BenchmarkSeal measures one Seal of 50 000 freshly committed events on the
// paper's Nonuniform 256×256 d=0.005 graph at the clock width the load
// benchmark's steady state runs at — its auto-seal, without the trigger.
// Each iteration has two goroutines commit the events (each driving its own
// threads, outside the timer), then times the Seal: the swap barrier, the
// weave, the encode, the SHA-256 and the publish barrier. ns/sealed-event
// is that whole cost per record; barrier-ns/seal is the world-lock hold
// Stats reports — the part of it every committer pays, which does not grow
// with the record count; bytes/event is the sealed segments' size per
// record.
func BenchmarkSeal(b *testing.B) {
	tracker := openTracker(b)
	commit, events := sealWorkload(b, tracker)
	// One untimed round reveals the graph, so every timed seal runs at the
	// settled width.
	commit()
	if err := tracker.Seal(); err != nil {
		b.Fatal(err)
	}
	before := tracker.Stats()
	settled := len(tracker.Segments())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		commit()
		b.StartTimer()
		if err := tracker.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := tracker.Stats()
	if err := tracker.Err(); err != nil {
		b.Fatal(err)
	}
	if sealed := after.SealedEvents - before.SealedEvents; sealed != b.N*events {
		b.Fatalf("sealed %d events, want %d", sealed, b.N*events)
	}
	var sealedBytes int64
	for _, sg := range tracker.Segments()[settled:] {
		sealedBytes += sg.Bytes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/sealed-event")
	b.ReportMetric(float64(after.SealBarrierNanos-before.SealBarrierNanos)/float64(b.N), "barrier-ns/seal")
	b.ReportMetric(float64(sealedBytes)/float64(b.N*events), "bytes/event")
	b.ReportMetric(float64(tracker.Size()), "components")
}

// BenchmarkSegmentDecode decodes one sealed 50 000-event segment of
// BenchmarkSeal's workload, sealed at the settled width, through
// tlog.SegmentReader — the one decoder behind Stream, recovery, compaction,
// the Monitor and mvc. full rebuilds every stamp, including the join a
// derived record is rebuilt with; scan (SkipStamps) runs the same checks
// and rebuilds none, as verification and recovery's pass over every
// segment do. ns/event is the per-record cost; steady-state decoding
// should allocate nothing per record.
func BenchmarkSegmentDecode(b *testing.B) {
	tracker, err := mixedclock.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	commit, events := sealWorkload(b, tracker)
	for range 2 {
		commit()
		if err := tracker.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	segs := tracker.Segments()
	last := segs[len(segs)-1]
	if last.Events != events {
		b.Fatalf("last segment holds %d events, want %d", last.Events, events)
	}
	data, err := os.ReadFile(last.Path)
	if err != nil {
		b.Fatal(err)
	}
	if err := tracker.Close(); err != nil {
		b.Fatal(err)
	}
	for _, scan := range []bool{false, true} {
		name := "full"
		if scan {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sr, err := tlog.NewSegmentReaderBytes(data)
				if err != nil {
					b.Fatal(err)
				}
				if scan {
					sr.SkipStamps()
				}
				for {
					if _, _, err := sr.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
			b.ReportMetric(float64(len(data))/float64(events), "bytes/event")
		})
	}
}

// BenchmarkLoadgenMixed is the CI gate's end-to-end harness benchmark: one
// complete loadgen run per iteration — warmup then a fixed-op mixed phase
// across 4 workers — per commit style (per-op Do vs batch-16). It locks in
// what `mvc spam` reports: whole-pipeline throughput, with the latency
// histogram and stats collection riding along.
func BenchmarkLoadgenMixed(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("flat/batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			var ops int64
			for i := 0; i < b.N; i++ {
				rep, err := loadgen.Run(loadgen.Config{
					Threads:  4,
					Objects:  64,
					ReadFrac: 0.5,
					Ops:      5_000,
					Warmup:   500,
					Batch:    batch,
					Dist:     "uniform",
					Seed:     int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				ops += rep.Ops
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds()/1e6, "mops/s")
		})
	}
}
