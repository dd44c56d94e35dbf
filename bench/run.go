package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mixedclock/internal/core"
	"mixedclock/internal/track"
	"mixedclock/internal/vfs"
)

// stallNs is the op duration from which an op counts as a stall: its time
// goes into stall_frac and, when traced, it is kept as a span.
const stallNs = int64(time.Millisecond)

// config is one pass over one workload.
type config struct {
	w     workload
	in    *input
	scale int
	// traced selects the per-layer pass: the driver seals, spans are kept
	// and the store runs on a timing vfs.FS over fs.
	traced bool
	// dir is durable-monitor's run directory.
	dir string
	// fs is the filesystem of the measured tracker, from set-up to drain
	// (under the timing probe when traced); nil means vfs.OS. The prep and
	// the gate always use vfs.OS.
	fs vfs.FS
}

// options returns the tracker options of a pass on fsys. Untraced passes
// seal automatically at every multiple of sealEvents; traced passes leave
// sealing to the driver.
func (c *config) options(fsys vfs.FS, autoSeal bool) []track.Option {
	st := track.Store{FS: fsys}
	if autoSeal {
		st.Spill.SealEvery = sealEvents / c.scale
	}
	if c.w.durable {
		st.Compact = track.CompactPolicy{MaxSegments: compactSegments}
		st.Retain = track.RetainPolicy{MaxBytes: retainBytes / int64(c.scale)}
	}
	return []track.Option{track.WithStore(st)}
}

// driverStats is one driver's private tally; drivers share nothing while
// they run.
type driverStats struct {
	commit, reveal         hist // per-op latency, ns
	ops, stalls, stalledNs int64
	loopNs                 int64
}

func (s *driverStats) merge(o *driverStats) {
	s.commit.merge(&o.commit)
	s.reveal.merge(&o.reveal)
	s.ops += o.ops
	s.stalls += o.stalls
	s.stalledNs += o.stalledNs
	s.loopNs += o.loopNs
}

// session is one tracker being driven, with the benchmark's own view of it.
type session struct {
	c       *config
	tr      *track.Tracker
	threads []*track.Thread
	objects []*track.Object
	rec     *recorder // nil in untraced passes
	g       *gate

	// seen[t*objects+o] is epochGen+1 once edge (t,o) was touched in the
	// current epoch; each driver writes only its own threads' rows.
	seen     []int32
	epochGen atomic.Int32

	sealBase    atomic.Int64 // sealed events as of the driver's last seal
	sealGate    atomic.Bool
	compactMark atomic.Int64 // compactEvery multiples already compacted
	compactGate atomic.Bool

	committed int // events the benchmark committed to this run
}

func newSession(c *config, rec *recorder, g *gate) *session {
	return &session{c: c, rec: rec, g: g, seen: make([]int32, c.in.threads*c.in.objects)}
}

// attach points the session at tr, registering the input's threads and
// objects on a fresh tracker or reattaching to those a recovered one
// already has.
func (s *session) attach(tr *track.Tracker) error {
	s.tr = tr
	s.threads, s.objects = tr.Threads(), tr.Objects()
	if len(s.threads) == 0 && len(s.objects) == 0 {
		for i := range s.c.in.threads {
			s.threads = append(s.threads, tr.NewThread(fmt.Sprintf("t%d", i)))
		}
		for i := range s.c.in.objects {
			s.objects = append(s.objects, tr.NewObject(fmt.Sprintf("o%d", i)))
		}
	}
	if len(s.threads) != s.c.in.threads || len(s.objects) != s.c.in.objects {
		return fmt.Errorf("tracker has %d threads and %d objects, the input %d and %d",
			len(s.threads), len(s.objects), s.c.in.threads, s.c.in.objects)
	}
	s.sealBase.Store(int64(tr.Stats().SealedEvents))
	s.compactMark.Store(int64(tr.Events() / (compactEvery / s.c.scale)))
	return nil
}

// drive replays ops with one goroutine per driver and waits for both.
func (s *session) drive(ops [drivers][]op) (st [drivers]driverStats) {
	var wg sync.WaitGroup
	for d := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.loop(d, ops[d], &st[d])
		}()
	}
	wg.Wait()
	s.committed += count(ops)
	return st
}

// loop is one closed-loop driver: it commits its operations in order, one
// Thread.Do each, or one Batch per logical thread committed every batch
// operations.
func (s *session) loop(d int, ops []op, st *driverStats) {
	var own *owner
	if s.rec != nil {
		own = s.rec.bind(d)
	}
	batch := s.c.w.batch
	var batches []*track.Batch
	var pending []int64 // first touches waiting in each thread's batch
	if batch > 1 {
		batches = make([]*track.Batch, len(s.threads))
		pending = make([]int64, len(s.threads))
	}
	start := time.Now()
	for _, p := range ops {
		reveals := s.touch(p)
		th, obj := s.threads[p.thread], s.objects[p.object]
		if batch == 1 {
			t0 := time.Now()
			th.Do(obj, p.kind(), nil)
			s.record(own, st, t0, 1, reveals)
		} else {
			b := batches[p.thread]
			if b == nil {
				b = th.NewBatch()
				batches[p.thread] = b
			}
			b.Add(obj, p.kind())
			pending[p.thread] += reveals
			if b.Len() < batch {
				continue
			}
			t0 := time.Now()
			b.Commit()
			s.record(own, st, t0, int64(batch), pending[p.thread])
			pending[p.thread] = 0
		}
		s.afterCommit(own)
	}
	for t, b := range batches {
		if b == nil || b.Len() == 0 {
			continue
		}
		n := int64(b.Len())
		t0 := time.Now()
		b.Commit()
		s.record(own, st, t0, n, pending[t])
		s.afterCommit(own)
	}
	st.loopNs += int64(time.Since(start))
}

// touch reports 1 when p is its edge's first touch in the current epoch —
// a reveal, known from the input alone.
func (s *session) touch(p op) int64 {
	i := int(p.thread)*s.c.in.objects + int(p.object)
	g := s.epochGen.Load() + 1
	if s.seen[i] == g {
		return 0
	}
	s.seen[i] = g
	return 1
}

// record accounts one commit call of n ops that started at t0.
func (s *session) record(own *owner, st *driverStats, t0 time.Time, n, reveals int64) {
	t1 := time.Now()
	dt := int64(t1.Sub(t0))
	st.ops += n
	st.commit.recordN(dt/n, n)
	if reveals > 0 {
		st.reveal.recordN(dt/n, reveals)
	}
	if dt >= stallNs {
		st.stalls++
		st.stalledNs += dt
	}
	if s.rec == nil || (dt < stallNs && reveals == 0) {
		return
	}
	sp := span{Driver: own.driver, Start: int64(t0.Sub(s.rec.base)), End: int64(t1.Sub(s.rec.base))}
	if dt >= stallNs {
		sp.Name, sp.ID = spanCommit, spanIDs.Add(1)
		s.rec.add(sp)
		sp.Parent = sp.ID
	}
	if reveals > 0 {
		sp.Name, sp.ID = spanReveal, spanIDs.Add(1)
		s.rec.add(sp)
	}
}

// afterCommit runs the lifecycle calls a driver makes between commits: the
// traced pass's seal at the automatic threshold (the untraced pass seals
// inside the commit, where maybeAutoSeal runs), and durable-monitor's epoch
// Compact every compactEvery events.
func (s *session) afterCommit(own *owner) {
	if s.rec != nil && s.sealDue() {
		s.seal(own)
	}
	if s.c.w.durable && int64(s.tr.Events()/(compactEvery/s.c.scale)) > s.compactMark.Load() {
		s.compact(own)
	}
}

// sealDue reports whether the events have crossed a multiple of sealEvents
// since the driver last sealed.
func (s *session) sealDue() bool {
	n := int64(sealEvents / s.c.scale)
	return int64(s.tr.Events())/n > s.sealBase.Load()/n
}

func (s *session) seal(own *owner) {
	if !s.sealGate.CompareAndSwap(false, true) {
		return
	}
	defer s.sealGate.Store(false)
	if !s.sealDue() {
		return
	}
	var err error
	s.rec.lifecycle(own, spanSeal, func() { err = s.tr.Seal() })
	s.g.failErr("seal", err)
	s.sealBase.Store(int64(s.tr.Stats().SealedEvents))
}

func (s *session) compact(own *owner) {
	if !s.compactGate.CompareAndSwap(false, true) {
		return
	}
	defer s.compactGate.Store(false)
	due := int64(s.tr.Events() / (compactEvery / s.c.scale))
	if due <= s.compactMark.Load() {
		return
	}
	// Later ops belong to the new epoch; bump first so a first touch racing
	// the barrier is not missed.
	s.epochGen.Add(1)
	var err error
	s.timed(own, spanCompact, func() { _, _, err = s.tr.Compact() })
	s.g.failErr("compact", err)
	s.compactMark.Store(due)
	s.sealBase.Store(int64(s.tr.Stats().SealedEvents))
}

// timed runs fn, as a lifecycle span when the pass is traced.
func (s *session) timed(own *owner, name string, fn func()) {
	if s.rec == nil {
		fn()
		return
	}
	s.rec.lifecycle(own, name, fn)
}

// passResult is everything one pass measured.
type passResult struct {
	drivers   driverStats
	wall      time.Duration
	setups    []float64 // seconds, one per set-up
	drain     time.Duration
	width     int
	segBytes  int64
	segEvents int64
	stats     track.TrackerStats
	heapMax   uint64
	lagMax    int64
	consumed  int
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	gate      gate
	// Traced passes only.
	spans                       []span
	phaseStart, drainEnd        int64
	tlog                        tlogProbe
	analyzeNs                   int64
	optimalWidth, distinctEdges int
}

// runPass runs one pass: (durable-monitor's untimed prep), the timed
// set-ups, the measured phase, the drain, and the correctness gate.
func runPass(c *config) (*passResult, error) {
	res := &passResult{}
	var rec *recorder
	fsys := c.fs
	if fsys == nil {
		fsys = vfs.OS
	}
	host := &owner{driver: driverMain}
	if c.traced {
		rec = newRecorder(time.Now())
		host = rec.bind(driverMain)
		fsys = &timedFS{inner: fsys, rec: rec}
	}
	var s *session
	if c.w.durable {
		// The prep is untimed and untraced, on the real filesystem.
		s = newSession(c, nil, &res.gate)
		tr, err := track.Open(c.dir, c.options(vfs.OS, true)...)
		if err != nil {
			return nil, fmt.Errorf("opening prep run: %w", err)
		}
		if err := s.attach(tr); err != nil {
			return nil, err
		}
		s.drive(c.in.reveal)
		s.drive(c.in.prep)
		if err := tr.Close(); err != nil {
			return nil, fmt.Errorf("closing prep run: %w", err)
		}
		s.rec = rec
	}

	// Set-up, repeated; the last one is kept. A set-up on the graph commits
	// or recovers a whole tracker, so each starts from a collected heap and
	// none pays for the garbage of the one before. cold-reveal's only
	// registers threads and objects (about 50 µs); it is repeated many
	// times back to back instead, which holds its median still.
	for k := range c.w.setups {
		var tr *track.Tracker
		var err error
		if c.w.graph {
			runtime.GC()
		}
		t0 := time.Now()
		if c.w.durable {
			s.timed(host, spanOpen, func() { tr, err = track.Open(c.dir, c.options(fsys, !c.traced)...) })
			if err == nil {
				err = s.attach(tr)
			}
		} else {
			s = newSession(c, rec, &res.gate)
			s.timed(host, spanOpen, func() { tr, err = track.Open("", c.options(fsys, !c.traced)...) })
			if err == nil {
				err = s.attach(tr)
			}
			if err == nil {
				s.drive(c.in.reveal)
				s.drive(c.in.warmup)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if c.w.durable && k < c.w.setups-1 {
			if err := tr.Close(); err != nil {
				return nil, fmt.Errorf("set-up: closing: %w", err)
			}
		}
	}

	// Measured phase and drain. Allocations are counted over both, so the
	// monitor's whole replay is in the count however far it lags.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var mon *track.Monitor
	if c.w.durable {
		mon = s.tr.NewMonitor(track.MonitorPolicy{Window: monitorWindow})
	}
	lagOf := mon
	if !c.traced {
		// Monitor.Stats waits out a replay in progress, which would hold
		// up the heap samples of the untraced pass.
		lagOf = nil
	}
	smp := startSampler(s.tr, lagOf)
	if rec != nil {
		res.phaseStart = rec.now()
	}
	t0 := time.Now()
	st := s.drive(c.in.measured)
	res.wall = time.Since(t0)
	for d := range st {
		res.drivers.merge(&st[d])
	}

	t0 = time.Now()
	var err error
	s.timed(host, spanSeal, func() { err = s.tr.Seal() })
	s.g.failErr("drain seal", err)
	if mon != nil {
		s.timed(host, spanSync, func() { err = mon.Sync() })
		s.g.failErr("monitor sync", err)
		s.timed(host, spanClose, func() { err = s.tr.Close() })
		s.g.failErr("close", err)
	}
	res.drain = time.Since(t0)
	if rec != nil {
		res.drainEnd = rec.now()
	}
	res.heapMax, res.lagMax = smp.stop()
	runtime.ReadMemStats(&after)

	res.mallocs = after.Mallocs - before.Mallocs
	res.gcCycles = after.NumGC - before.NumGC
	res.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	res.width = s.tr.Size()
	for _, sg := range s.tr.Segments() {
		res.segBytes += sg.Bytes
		res.segEvents += int64(sg.Events)
	}
	res.stats = s.tr.Stats()
	if mon != nil {
		res.consumed = mon.Stats().Consumed
		res.gate.failErr("monitor", mon.Err())
		mon.Close()
	}

	// Correctness gate, outside every timed interval.
	if n := s.tr.Events(); n != s.committed {
		res.gate.fail("tracker recorded %d events, %d were committed", n, s.committed)
	}
	var probe track.StampSink
	if c.traced {
		s.timed(host, spanStream, func() { err = s.tr.Stream(countSink{}) })
		res.gate.failErr("streaming history", err)
		probe = &res.tlog
	}
	checkTracker(&res.gate, s.tr, c.in.threads, c.in.objects, probe)
	if c.traced {
		res.gate.failErr("tlog probe", res.tlog.flush())
	}
	if c.w.durable {
		checkReopen(&res.gate, c.dir, c.options(vfs.OS, true), s.committed)
	}

	if c.traced {
		t := time.Now()
		a := core.Analyze(c.in.graph)
		res.analyzeNs = int64(time.Since(t))
		res.optimalWidth, res.distinctEdges = a.VectorSize(), c.in.graph.Edges()
		rec.mu.Lock()
		res.spans = slices.Clone(rec.spans)
		rec.mu.Unlock()
	}
	return res, nil
}

// sampler reads the live heap, and in durable-monitor the monitor's lag
// behind the sealed frontier, at 10 Hz.
type sampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	heapMax uint64
	lagMax  int64
}

func startSampler(tr *track.Tracker, mon *track.Monitor) *sampler {
	smp := &sampler{done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	smp.wg.Add(1)
	go func() {
		defer smp.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			smp.heapMax = max(smp.heapMax, sample[0].Value.Uint64())
			if mon != nil {
				// Stats waits out a replay in progress; the frontier read
				// after it counts what was sealed meanwhile.
				consumed := mon.Stats().Consumed
				smp.lagMax = max(smp.lagMax, int64(tr.Stats().SealedEvents-consumed))
			}
			select {
			case <-smp.done:
				return
			case <-tick.C:
			}
		}
	}()
	return smp
}

// stop ends sampling and returns the maxima.
func (smp *sampler) stop() (heapMax uint64, lagMax int64) {
	close(smp.done)
	smp.wg.Wait()
	return smp.heapMax, smp.lagMax
}
