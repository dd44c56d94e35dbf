package track

import (
	"fmt"
	"sync"

	"mixedclock/internal/cut"
	"mixedclock/internal/detect"
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/matching"
	"mixedclock/internal/predicate"
	"mixedclock/internal/vclock"
)

// MonitorPolicy bounds a Monitor's state on unbounded runs.
type MonitorPolicy struct {
	// Window is how many recent events the monitor retains stamps and
	// lattice state for: the census compares new events against the last
	// Window stamps, happened-before queries answer within it, and
	// predicate watches explore the lattice of the window's suffix cuts.
	// The stamps live in one slab of Window rows × clock width, reused
	// row by row. 0 retains everything — exact offline equivalence,
	// unbounded memory. The schedule-sensitive pair scanner needs no
	// window; it is exact in O(objects + threads) state regardless.
	Window int
	// MaxCuts budgets each predicate-watch evaluation, as maxStates does
	// for the offline Possibly; 0 means predicate.DefaultMaxStates.
	MaxCuts int
	// OnDetection, when set, is called for every detection, from the
	// monitor's own goroutine, after the evaluation batch has released
	// the monitor's lock (so the callback may call Monitor methods).
	OnDetection func(Detection)
}

// Detection kinds.
const (
	// DetectPair flags a schedule-sensitive pair: conflicting adjacent
	// operations on one object whose only ordering is the object's lock.
	DetectPair = "pair"
	// DetectOrder flags an order-watch violation: a second-selector event
	// concurrent with the latest first-selector event.
	DetectOrder = "order"
	// DetectPossibly flags a predicate watch: some consistent global
	// state reachable from the retained window satisfies the predicate.
	DetectPossibly = "possibly"
)

// Detection is one finding, with full provenance into the run: the epoch
// and global trace index of the event that completed it.
type Detection struct {
	// Watch names the watch that fired; the built-in pair scanner reports
	// as "schedule-sensitive".
	Watch string
	// Kind is DetectPair, DetectOrder or DetectPossibly.
	Kind string
	// Epoch and Index locate the triggering event in the run; for
	// DetectPossibly they locate the last event consumed before the
	// evaluation that found the witness.
	Epoch int
	Index int
	// Event is the triggering event (zero for DetectPossibly).
	Event event.Event
	// Other is the earlier event of a pair or order detection: the pair's
	// first operation, or the order watch's latest first-match. OtherEpoch
	// is its epoch.
	Other      event.Event
	OtherEpoch int
	// Witness is the satisfying cut of a DetectPossibly finding.
	Witness cut.Cut
}

// String renders a one-line report with provenance.
func (d Detection) String() string {
	switch d.Kind {
	case DetectPossibly:
		return fmt.Sprintf("[%s] possibly: witness %v (epoch %d, after index %d)", d.Watch, d.Witness, d.Epoch, d.Index)
	case DetectOrder:
		return fmt.Sprintf("[%s] order violated: %v (epoch %d, index %d) concurrent with %v (epoch %d, index %d)",
			d.Watch, d.Event, d.Epoch, d.Index, d.Other, d.OtherEpoch, d.Other.Index)
	default:
		return fmt.Sprintf("[%s] %v <lock-only> %v (epoch %d, index %d)", d.Watch, d.Other, d.Event, d.Epoch, d.Index)
	}
}

// Selector picks events a watch applies to.
type Selector func(e event.Event) bool

// orderWatch keeps the latest first-selector match.
type orderWatch struct {
	name          string
	first, second Selector
	has           bool
	e             event.Event
	epoch         int
	stamp         vclock.Vector // reused buffer, overwritten at each first-match
}

// possiblyWatch fires once, at the first evaluation that finds a witness,
// and keeps that witness.
type possiblyWatch struct {
	name    string
	pred    predicate.Predicate
	fired   bool
	witness cut.Cut
}

// finding is a Detection as the monitor keeps it: without the watch's
// name, its kind or a witness, which kind and watch give, and with one
// epoch, since a pair's or an order violation's two events share theirs —
// 80 bytes to a Detection's 144. The monitor keeps every detection for its
// whole life, and nearly every record of a contended run completes a
// schedule-sensitive pair, so these are most of a long-running monitor's
// memory.
type finding struct {
	e, other event.Event
	epoch    int
	kind     findingKind
	watch    int32 // the order or possibly watch's index
}

// findingKind is a finding's kind: a pair, an order violation or a
// possibly witness.
type findingKind uint8

const (
	findingPair findingKind = iota
	findingOrder
	findingPossibly
)

// detection expands f. A possibly finding's index is in f.e.Index, its
// event zero.
func (m *Monitor) detection(f *finding) Detection {
	d := Detection{Epoch: f.epoch, Index: f.e.Index}
	switch f.kind {
	case findingPair:
		d.Watch, d.Kind = "schedule-sensitive", DetectPair
		d.Event, d.Other, d.OtherEpoch = f.e, f.other, f.epoch
	case findingOrder:
		d.Watch, d.Kind = m.orders[f.watch].name, DetectOrder
		d.Event, d.Other, d.OtherEpoch = f.e, f.other, f.epoch
	default:
		w := m.possiblys[f.watch]
		d.Watch, d.Kind, d.Witness = w.name, DetectPossibly, w.witness
	}
	return d
}

// Monitor evaluates detections online, over the live stream of a tracker
// it is registered on with NewMonitor. Consumption is incremental and
// barrier-free: every seal (explicit, automatic, from Compact, or the
// final one in Close) wakes the monitor's goroutine, which replays the
// newly sealed records through the same lock-free path Stream uses for
// sealed history — commits proceed while the monitor evaluates. The
// still-unsealed tail is consumed only on demand: Sync freezes it (the
// same short barrier a Snapshot takes) and catches the monitor up to the
// exact present.
//
// Per record the monitor compares the stamp against its one window of the
// last Window stamps (an hb.Recent ring, which the census and the
// happened-before queries both read) before pushing it there, and feeds
// the exact streaming schedule-sensitive pair scanner, the registered
// order watches, and an incremental maximum matching (a live König lower
// bound on clock width); per batch it evaluates the registered predicate
// watches over the window's suffix-cut lattice. In steady state — window
// full, no new thread, object or clock width — consuming a record
// allocates nothing. Detections carry epoch and trace-index provenance and
// are delivered through OnDetection and Detections.
//
// The monitor starts at the retention floor, and if a retention pass
// overtakes it, it skips to the new floor: the skipped records are counted
// in MonitorStats.Skipped, and the gap is treated like an epoch barrier —
// the window, the pair scanner, the order watches' first-matches and the
// predicate window restart after it.
type Monitor struct {
	t      *Tracker
	policy MonitorPolicy

	// mu serializes consumption (goroutine wake vs Sync) and guards all
	// evaluation state below. Never held while calling OnDetection.
	mu        sync.Mutex
	next      int // next trace index to consume
	epoch     int // epoch of the last consumed record
	skipped   int // records retired by retention before consumption
	census    detect.CensusAccumulator
	pairs     *detect.PairScanner
	recent    *hb.Recent
	pred      *predicate.Streamer
	line      *cut.LineTracker
	inc       *matching.Incremental
	orders    []*orderWatch
	possiblys []*possiblyWatch
	// findings holds every detection so far; those from delivered on
	// belong to the batch in progress, which finishBatchLocked hands out.
	findings  []finding
	delivered int
	err       error

	wake chan struct{}
	done chan struct{}
	stop sync.Once
	wg   sync.WaitGroup
}

// NewMonitor registers a new online detector on the tracker and starts its
// consumption goroutine. The monitor starts at the retention floor, so any
// already-sealed history is evaluated first. Register watches immediately
// after — before the first seal — to be sure no record is evaluated
// without them. Call Monitor.Close to stop and deregister it.
func (t *Tracker) NewMonitor(p MonitorPolicy) *Monitor {
	m := &Monitor{
		t:      t,
		policy: p,
		pairs:  detect.NewPairScanner(),
		recent: hb.NewRecent(p.Window),
		pred:   predicate.NewStreamer(p.Window),
		line:   cut.NewLineTracker(),
		inc:    matching.NewIncremental(),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	t.monMu.Lock()
	t.monitors = append(t.monitors, m)
	t.monMu.Unlock()
	m.wg.Add(1)
	go m.run()
	return m
}

// notifyMonitors wakes every registered monitor without blocking; called
// after seal/compact/close barriers have lifted.
func (t *Tracker) notifyMonitors() {
	t.monMu.Lock()
	ms := append([]*Monitor(nil), t.monitors...)
	t.monMu.Unlock()
	for _, m := range ms {
		select {
		case m.wake <- struct{}{}:
		default: // already signalled; it will see the new segments anyway
		}
	}
}

// run is the monitor goroutine: consume whatever is already sealed, then
// follow seal notifications.
func (m *Monitor) run() {
	defer m.wg.Done()
	m.consumeSealed()
	for {
		select {
		case <-m.done:
			return
		case <-m.wake:
			m.consumeSealed()
		}
	}
}

// WatchOrder registers an ordering invariant: every event matching second
// must be causally after the latest preceding event matching first. A
// second-match concurrent with that first-match raises a DetectOrder
// detection (cross-epoch matches are ordered by the Compact barrier and
// never fire). The first such detection arms the monitor's recovery line.
func (m *Monitor) WatchOrder(name string, first, second Selector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.orders = append(m.orders, &orderWatch{name: name, first: first, second: second})
}

// WatchPossibly registers a predicate watch evaluated after every consumed
// batch (each seal, and each Sync) over the lattice of consistent global
// states reachable from the retained window, within the MaxCuts budget.
// It fires at most once, with the witness cut.
func (m *Monitor) WatchPossibly(name string, pred predicate.Predicate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.possiblys = append(m.possiblys, &possiblyWatch{name: name, pred: pred})
}

// monitorSink adapts the monitor to the StampSink replay paths; vectors
// are borrowed per the sink contract and copied into reused buffers by the
// state that retains them.
type monitorSink struct{ m *Monitor }

func (s monitorSink) ConsumeStamp(e event.Event, epoch int, v vclock.Vector) error {
	s.m.consumeLocked(e, epoch, v)
	return nil
}

// consumeLocked evaluates one record; caller holds m.mu.
func (m *Monitor) consumeLocked(e event.Event, epoch int, v vclock.Vector) {
	if e.Index != m.next {
		// Retention retired [m.next, e.Index) before the monitor read it.
		// Nothing before the gap may be compared with anything after it,
		// so restart every windowed state, as an epoch barrier would, and
		// more: the pair scanner and the order watches lost the records
		// that would have been their latest.
		m.skipped += e.Index - m.next
		m.recent.Reset()
		m.pairs.Reset()
		for _, w := range m.orders {
			w.has = false
		}
		m.pred.Barrier()
	} else if epoch != m.epoch {
		// A Compact barrier sits between epochs: nothing after it can be
		// concurrent with anything before, and no consistent state may
		// unexecute pre-barrier events. Fold the predicate window away;
		// the other accumulators are epoch-aware record by record.
		m.pred.Barrier()
	}
	m.epoch = epoch
	m.census.Add(m.recent, e.Index, epoch, v)
	m.inc.AddEdge(int(e.Thread), int(e.Object))
	m.pred.Add(e)
	if p, ok := m.pairs.Add(e, epoch, v); ok {
		m.findings = append(m.findings, finding{e: e, other: p.First, epoch: epoch, kind: findingPair})
	}
	for k, w := range m.orders {
		// Check the second selector against the previous first-match
		// before updating it, so an event matching both selectors is
		// compared against its predecessor, not itself.
		if w.second(e) && w.has && w.epoch == epoch && w.stamp.Concurrent(v) {
			m.findings = append(m.findings, finding{e: e, other: w.e, epoch: epoch, kind: findingOrder, watch: int32(k)})
			if !m.line.Armed() {
				m.line.Arm(e.Index, epoch, v)
			}
		}
		if w.first(e) {
			w.has, w.e, w.epoch = true, e, epoch
			w.stamp = append(w.stamp[:0], v...)
		}
	}
	m.line.Add(e, epoch, v)
	m.next = e.Index + 1
}

// finishBatchLocked runs the per-batch evaluations (predicate watches) and
// hands back the batch's detections for delivery outside the lock.
func (m *Monitor) finishBatchLocked() []Detection {
	for k, w := range m.possiblys {
		if w.fired {
			continue
		}
		witness, found, err := m.pred.Possibly(w.pred, m.policy.MaxCuts)
		if err != nil {
			if m.err == nil {
				m.err = fmt.Errorf("track: monitor watch %q: %w", w.name, err)
			}
			continue
		}
		if found {
			w.fired, w.witness = true, witness
			m.findings = append(m.findings, finding{
				e: event.Event{Index: m.next - 1}, epoch: m.epoch, kind: findingPossibly, watch: int32(k),
			})
		}
	}
	start := m.delivered
	m.delivered = len(m.findings)
	if m.policy.OnDetection == nil || start == m.delivered {
		return nil
	}
	batch := make([]Detection, 0, m.delivered-start)
	for i := range m.findings[start:] {
		batch = append(batch, m.detection(&m.findings[start+i]))
	}
	return batch
}

// deliver invokes the detection callback outside the monitor lock.
func (m *Monitor) deliver(batch []Detection) {
	if m.policy.OnDetection == nil {
		return
	}
	for _, d := range batch {
		m.policy.OnDetection(d)
	}
}

// catchUpLocked runs replay from the monitor's next index, clamped to the
// retention floor. A replay that fails after a retention pass moved the
// floor past both the point it started from and the records it consumed
// resumes from the new floor; any other failure — a lost or corrupt spill
// file, an undecodable record — is returned, since retrying would fail the
// same way.
func (m *Monitor) catchUpLocked(replay func(from int) error) error {
	for {
		from := max(m.next, m.t.RetainedEvents())
		err := replay(from)
		if err == nil || m.t.RetainedEvents() <= max(m.next, from) {
			return err
		}
	}
}

// consumeSealed catches the monitor up with sealed history — the
// barrier-free path: commits proceed while it evaluates.
func (m *Monitor) consumeSealed() {
	m.mu.Lock()
	upTo := int(m.t.sealed.Load())
	err := m.catchUpLocked(func(from int) error {
		if from >= upTo {
			return nil
		}
		_, err := m.t.replaySealed(monitorSink{m}, from, upTo)
		return err
	})
	if err != nil && m.err == nil {
		m.err = err
	}
	batch := m.finishBatchLocked()
	m.mu.Unlock()
	m.deliver(batch)
}

// Sync consumes everything up to the exact present: sealed history
// barrier-free, then the unsealed tail under the same short freeze a
// Snapshot takes. On return every committed record has been evaluated and
// the detections this call found delivered; a delivery already in flight
// on the monitor's own goroutine completes by Close, which joins it.
func (m *Monitor) Sync() error {
	m.mu.Lock()
	err := m.catchUpLocked(func(from int) error {
		return m.t.StreamFrom(from, monitorSink{m})
	})
	if err != nil && m.err == nil {
		m.err = err
	}
	batch := m.finishBatchLocked()
	m.mu.Unlock()
	m.deliver(batch)
	return err
}

// Close stops the monitor's goroutine and deregisters it from the tracker.
// Already-collected detections and stats remain readable.
func (m *Monitor) Close() {
	m.stop.Do(func() {
		close(m.done)
		m.wg.Wait()
		m.t.monMu.Lock()
		for i, o := range m.t.monitors {
			if o == m {
				m.t.monitors = append(m.t.monitors[:i], m.t.monitors[i+1:]...)
				break
			}
		}
		m.t.monMu.Unlock()
	})
}

// Detections returns a snapshot of every detection so far, in consumption
// order.
func (m *Monitor) Detections() []Detection {
	m.mu.Lock()
	defer m.mu.Unlock()
	ds := make([]Detection, len(m.findings))
	for i := range m.findings {
		ds[i] = m.detection(&m.findings[i])
	}
	return ds
}

// Err returns the first error the monitor hit (replay I/O or a predicate
// budget exhaustion), if any.
func (m *Monitor) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// HappenedBefore answers an ordering query over the retained window by
// stamp comparison (Theorem 2); ok is false when either event has slid
// out of the window or has not been consumed yet.
func (m *Monitor) HappenedBefore(i, j int) (hbefore, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recent.HappenedBefore(i, j)
}

// Concurrent answers a concurrency query over the retained window, with
// the same ok convention as HappenedBefore.
func (m *Monitor) Concurrent(i, j int) (conc, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recent.Concurrent(i, j)
}

// RecoveryLine returns the maximal consistent cut excluding the first
// order violation's causal future — the paper's recovery-line application
// run online. ok is false until a DetectOrder detection has armed it.
func (m *Monitor) RecoveryLine() (c cut.Cut, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.line.Armed() {
		return cut.Cut{}, false
	}
	return m.line.Line(), true
}

// MonitorStats is a live summary of a monitor's evaluation state.
type MonitorStats struct {
	// Consumed is one past the trace index of the latest evaluated
	// record; Epoch is its epoch.
	Consumed int
	Epoch    int
	// Skipped counts records a retention pass retired before the monitor
	// read them: the prefix below the floor it attached at, and any gap
	// where a later pass overtook it.
	Skipped int
	// Census is the streaming concurrency census over compared pairs;
	// CensusSkipped counts pairs whose earlier event left the window
	// before comparison.
	Census        detect.Census
	CensusSkipped int
	// Pairs counts schedule-sensitive pairs flagged so far.
	Pairs int
	// Detections counts all detections (pairs, order and predicate).
	Detections int
	// ClockWidth is the tracker's current mixed-clock width;
	// CoverLowerBound is the incremental-matching (König) lower bound on
	// the optimal width for the edges revealed to the monitor — how far
	// the online mechanism has drifted from optimal, live.
	ClockWidth      int
	CoverLowerBound int
	// WindowLo is the oldest trace index still answerable by
	// HappenedBefore/Concurrent: Consumed−Window, or the first record
	// consumed after a retention gap if that is later.
	WindowLo int
}

// Stats returns a snapshot of the monitor's counters.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MonitorStats{
		Consumed:        m.next,
		Epoch:           m.epoch,
		Skipped:         m.skipped,
		Census:          m.census.Census(),
		CensusSkipped:   m.census.Skipped(),
		Pairs:           m.pairs.Count(),
		Detections:      len(m.findings),
		ClockWidth:      m.t.Size(),
		CoverLowerBound: m.inc.Size(),
		WindowLo:        m.recent.Lo(),
	}
}
