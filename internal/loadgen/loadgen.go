// Package loadgen is the end-to-end load generator behind cmd/loadgen and
// `mvc spam`: it drives a live track.Tracker with a configurable mixed
// read/write workload — warmup phase first, then a timed (or fixed-op-count)
// measured phase, in the warmup-then-mixed style of the classic index
// benchmarking harnesses — and reports throughput (mops/sec), per-operation
// latency percentiles from a dependency-free HDR-style histogram, allocation
// rates, and the tracker's final lifecycle stats.
//
// The workload models the paper's setting directly: Threads goroutines
// operate on Objects lock-protected shared objects, each operation a read
// or write chosen by ReadFrac, the object chosen uniformly or by a Zipf
// skew. Batch > 1 commits runs of operations through Thread.NewBatch
// instead of per-op Do. With Store set the run is durable — spilling,
// tiered compaction and retention all armed — and with Monitor set an
// online detector rides the seal stream while the load runs.
package loadgen

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mixedclock/internal/event"
	"mixedclock/internal/track"
	"mixedclock/internal/vclock"
)

// Config parameterizes one load-generation run. The zero value is usable:
// defaults are filled by Run (4 threads, 64 objects, uniform object choice,
// 2s measured phase, per-op commits, in-memory tracker). ReadFrac 0 means
// write-only; the CLI front ends default their -readfrac flag to 0.5.
type Config struct {
	// Threads is the number of worker goroutines, each a registered
	// tracker Thread; Objects the number of shared objects they operate
	// on.
	Threads int `json:"threads"`
	Objects int `json:"objects"`
	// ReadFrac is the fraction of measured operations that are reads
	// (0 = write-only, 1 = read-only).
	ReadFrac float64 `json:"readfrac"`
	// Duration bounds the measured phase by wall time. Ignored when Ops
	// is set.
	Duration time.Duration `json:"duration"`
	// Warmup is how many operations each worker commits before the
	// measured phase starts (writes, to populate the cover and object
	// popularity); default 1000.
	Warmup int `json:"warmup"`
	// Ops, when positive, runs exactly this many measured operations per
	// worker instead of a timed phase — the deterministic mode: a fixed
	// Seed then fixes every op count and read/write split exactly.
	Ops int `json:"ops,omitempty"`
	// Batch commits runs of this many operations per Thread.NewBatch
	// commit; 0 or 1 commits per operation via Thread.Do.
	Batch int `json:"batch"`
	// Dist selects the object-choice distribution: "uniform" or "zipf"
	// (s=1.1, the usual hot-key skew).
	Dist string `json:"dist"`
	// Store, when non-empty, makes the run durable: the tracker is opened
	// on this directory with spilling, tiered compaction and retention
	// armed (track.Open + WithStore).
	Store string `json:"store,omitempty"`
	// Monitor attaches an online track.Monitor for the whole run; without
	// a Store the tracker still seals in memory so the monitor has a
	// stream to ride.
	Monitor bool `json:"monitor,omitempty"`
	// Backend selects the clock representation: "flat", "tree", "auto",
	// or "" for the tracker default.
	Backend string `json:"backend,omitempty"`
	// Seed is the base RNG seed; worker i derives its private RNG from
	// Seed+i, so runs are reproducible (exactly so in Ops mode).
	Seed int64 `json:"seed"`
}

// sealEvery is the seal cadence Run arms for durable (and monitored)
// trackers: frequent enough that a short run exercises the whole seal →
// compact → retain pipeline, long enough to stay off the hot path.
const sealEvery = 50_000

// withDefaults fills unset knobs with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Objects == 0 {
		c.Objects = 64
	}
	if c.Duration == 0 && c.Ops == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 1000
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Dist == "" {
		c.Dist = "uniform"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// validate rejects configurations Run cannot honour.
func (c Config) validate() error {
	if c.Threads < 1 || c.Objects < 1 {
		return fmt.Errorf("loadgen: need at least 1 thread and 1 object (have %d, %d)", c.Threads, c.Objects)
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 {
		return fmt.Errorf("loadgen: readfrac %v outside [0, 1]", c.ReadFrac)
	}
	if c.Dist != "uniform" && c.Dist != "zipf" {
		return fmt.Errorf("loadgen: unknown distribution %q (want uniform or zipf)", c.Dist)
	}
	if c.Batch < 1 {
		return fmt.Errorf("loadgen: batch %d < 1", c.Batch)
	}
	if c.Backend != "" {
		if _, err := vclock.ParseBackend(c.Backend); err != nil {
			return fmt.Errorf("loadgen: %w", err)
		}
	}
	return nil
}

// worker is one load goroutine: a registered thread, a private RNG (and
// Zipf source), and private op counters + latency histogram, merged by the
// reporter after the run so the measured loop shares nothing.
type worker struct {
	th     *track.Thread
	rng    *rand.Rand
	zipf   *rand.Zipf
	hist   hist
	ops    int64
	reads  int64
	writes int64
}

// pick chooses the next object index under the configured distribution.
func (w *worker) pick(nObjects int) int {
	if w.zipf != nil {
		return int(w.zipf.Uint64())
	}
	return w.rng.Intn(nObjects)
}

// Run executes one load-generation run and returns its report. The tracker
// is constructed per the config (durable when Store is set), warmed up,
// driven for the measured phase, then — after an optional monitor sync —
// closed (durable runs) and summarized. Worker errors surface through the
// tracker's own Err.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	var opts []track.Option
	if cfg.Backend != "" {
		b, err := vclock.ParseBackend(cfg.Backend)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		opts = append(opts, track.WithBackend(b))
	}
	// Without a store, a monitored run still seals (in memory) so the
	// monitor has a stream.
	if cfg.Store != "" || cfg.Monitor {
		st := track.Store{Spill: track.SpillPolicy{SealEvery: sealEvery}}
		if cfg.Store != "" {
			st.Compact = track.CompactPolicy{MaxSegments: 12}
			st.Retain = track.RetainPolicy{MaxBytes: 512 << 20}
		}
		opts = append(opts, track.WithStore(st))
	}
	tr, err := track.Open(cfg.Store, opts...)
	if err != nil {
		return nil, fmt.Errorf("loadgen: opening store: %w", err)
	}

	// The monitor window is deliberately small: the windowed census costs
	// O(window) vector comparisons per record, and the harness's job is to
	// measure commit throughput with detection riding along, not to census
	// a million-event run exactly.
	var mon *track.Monitor
	if cfg.Monitor {
		mon = tr.NewMonitor(track.MonitorPolicy{Window: 128})
	}

	objects := make([]*track.Object, cfg.Objects)
	for i := range objects {
		objects[i] = tr.NewObject(fmt.Sprintf("obj%d", i))
	}
	workers := make([]*worker, cfg.Threads)
	for i := range workers {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		w := &worker{th: tr.NewThread(fmt.Sprintf("w%d", i)), rng: rng}
		if cfg.Dist == "zipf" {
			w.zipf = rand.NewZipf(rng, 1.1, 1, uint64(cfg.Objects-1))
		}
		workers[i] = w
	}

	// Warmup: every worker commits cfg.Warmup writes (distribution-chosen
	// objects), populating the cover and the popularity counts before
	// anything is measured.
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for j := 0; j < cfg.Warmup; j++ {
				w.th.Do(objects[w.pick(cfg.Objects)], event.OpWrite, nil)
			}
		}(w)
	}
	wg.Wait()

	// Measured mixed phase: timed (stop flag flipped by a timer) or a
	// fixed per-worker op count.
	var stop atomic.Bool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if cfg.Ops == 0 {
		time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
	}
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.mixed(cfg, objects, &stop)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	rep := &Report{
		Config:         cfg,
		WarmupOps:      int64(cfg.Warmup) * int64(cfg.Threads),
		ElapsedSeconds: elapsed.Seconds(),
	}
	var h hist
	for _, w := range workers {
		rep.Ops += w.ops
		rep.Reads += w.reads
		rep.Writes += w.writes
		h.merge(&w.hist)
	}
	rep.Mops = float64(rep.Ops) / elapsed.Seconds() / 1e6
	rep.Latency = Latency{
		P50:  h.quantile(0.50),
		P90:  h.quantile(0.90),
		P99:  h.quantile(0.99),
		P999: h.quantile(0.999),
		Max:  h.max,
	}
	if rep.Ops > 0 {
		rep.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(rep.Ops)
		rep.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(rep.Ops)
	}

	if mon != nil {
		if err := mon.Sync(); err != nil {
			return nil, fmt.Errorf("loadgen: monitor sync: %w", err)
		}
		ms := mon.Stats()
		rep.Monitor = &MonitorSummary{
			Consumed:        ms.Consumed,
			Detections:      ms.Detections,
			Pairs:           ms.Pairs,
			CoverLowerBound: ms.CoverLowerBound,
		}
		mon.Close()
	}
	if cfg.Store != "" {
		if err := tr.Close(); err != nil {
			return nil, fmt.Errorf("loadgen: closing store: %w", err)
		}
	}
	rep.Tracker = tr.Stats()
	rep.Backend = rep.Tracker.Backend.String()
	if err := tr.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: tracker error: %w", err)
	}
	return rep, nil
}

// mixed is one worker's measured loop. In batch mode the commit latency is
// spread evenly over the batch's operations, so the histogram is per
// operation in every mode.
func (w *worker) mixed(cfg Config, objects []*track.Object, stop *atomic.Bool) {
	perWorker := cfg.Ops // 0 = timed
	done := 0
	for {
		if perWorker > 0 {
			if done >= perWorker {
				return
			}
		} else if stop.Load() {
			return
		}
		n := cfg.Batch
		if perWorker > 0 && perWorker-done < n {
			n = perWorker - done
		}
		if n == 1 {
			obj := objects[w.pick(len(objects))]
			op := event.OpWrite
			if w.rng.Float64() < cfg.ReadFrac {
				op = event.OpRead
				w.reads++
			} else {
				w.writes++
			}
			t0 := time.Now()
			w.th.Do(obj, op, nil)
			w.hist.recordN(time.Since(t0).Nanoseconds(), 1)
		} else {
			b := w.th.NewBatch()
			for j := 0; j < n; j++ {
				obj := objects[w.pick(len(objects))]
				if w.rng.Float64() < cfg.ReadFrac {
					b.Read(obj)
					w.reads++
				} else {
					b.Write(obj)
					w.writes++
				}
			}
			t0 := time.Now()
			b.Commit()
			w.hist.recordN(time.Since(t0).Nanoseconds()/int64(n), int64(n))
		}
		done += n
		w.ops += int64(n)
	}
}
