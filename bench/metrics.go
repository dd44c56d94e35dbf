package main

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"time"

	"mixedclock/internal/event"
	"mixedclock/internal/tlog"
	"mixedclock/internal/vclock"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd returns the untraced pass's metrics: what a user of the tracker
// sees.
//
// Only metrics that hold still across runs are here. On a shared 2-core
// machine, throughput and latency moved by 15-35% between runs of the same
// code (a fixed memory-bound loop moved by up to 2x), so they are reported
// beside the per-layer metrics instead (rates), where they carry no bound.
func endToEnd(r *passResult) []metric {
	d := &r.drivers
	return []metric{
		{"stall_frac", ratio(d.stalledNs, d.loopNs), "fraction"},
		{"setup_s", median(r.setups), "s"},
		{"clock_width", float64(r.width), "components"},
		{"bytes_per_event", ratio(r.segBytes, r.segEvents), "B"},
		{"heap_live_mb", float64(r.heapMax) / 1e6, "MB"},
		{"allocs_per_op", ratio(int64(r.mallocs), d.ops), "allocs/op"},
	}
}

// rates returns the untraced pass's throughput, commit latency and drain
// time.
func rates(u *passResult) []metric {
	d := &u.drivers
	return []metric{
		{"mops", mops(u), "Mops/s"},
		{"commit_p50_ns", d.commit.quantile(0.50), "ns"},
		{"commit_p99_ns", d.commit.quantile(0.99), "ns"},
		{"drain_s", u.drain.Seconds(), "s"},
	}
}

func mops(r *passResult) float64 {
	return float64(r.drivers.ops) / r.wall.Seconds() / 1e6
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spanTotals sums the spans of each name.
type spanTotals struct {
	calls, bytes, ns, maxNs int64
}

// perLayer returns the traced pass's per-layer metrics; u is the untraced
// pass of the same workload, for the tracing overhead.
func perLayer(r, u *passResult, minMN int) []metric {
	inWindow := func(s span) bool { return s.Start >= r.phaseStart && s.End <= r.drainEnd }
	totals := map[string]spanTotals{}
	children := map[int64]int64{} // parent id → child time
	add := func(s span) {
		t := totals[s.Name]
		t.calls++
		t.bytes += s.Bytes
		t.ns += s.dur()
		t.maxNs = max(t.maxNs, s.dur())
		totals[s.Name] = t
	}
	var seals, commits []span
	for _, s := range r.spans {
		switch {
		case s.Name == spanOpen || s.Name == spanStream:
			// Set-up and the gate, outside the measured window.
			add(s)
		case strings.HasPrefix(s.Name, "vfs."):
			// Set-up (recovery reads) through the drain.
			if s.End <= r.drainEnd {
				add(s)
				children[s.Parent] += s.dur()
			}
		case inWindow(s):
			add(s)
			switch s.Name {
			case spanSeal:
				seals = append(seals, s)
			case spanCommit:
				commits = append(commits, s)
			}
		}
	}
	var selfNs, waitNs int64
	for _, s := range seals {
		selfNs += s.dur() - children[s.ID]
		for _, c := range commits {
			if c.Driver != s.Driver {
				waitNs += max(0, min(s.End, c.End)-max(s.Start, c.Start))
			}
		}
	}
	d := &r.drivers
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	seal, vw, vr, vs, vn := totals[spanSeal], totals[spanWrite], totals[spanRead], totals[spanFsync], totals[spanRename]
	return []metric{
		{"track.commit.ops", float64(d.ops), "count"},
		{"track.commit.busy_s", secs(d.commit.sum), "s"},
		{"track.commit.stalls", float64(d.stalls), "count"},
		{"track.commit.stalled_s", secs(d.stalledNs), "s"},
		{"track.commit.p999_ns", d.commit.quantile(0.999), "ns"},
		{"track.commit.max_ms", float64(d.commit.max) / 1e6, "ms"},
		{"core.reveal.ops", float64(d.reveal.n), "count"},
		{"core.reveal.busy_s", secs(d.reveal.sum), "s"},
		{"core.reveal.p50_ns", d.reveal.quantile(0.50), "ns"},
		{"core.optimal_width", float64(r.optimalWidth), "components"},
		{"core.min_mn", float64(minMN), "components"},
		{"core.distinct_edges", float64(r.distinctEdges), "count"},
		{"core.analyze_ms", float64(r.analyzeNs) / 1e6, "ms"},
		{"track.seal.count", float64(seal.calls), "count"},
		{"track.seal.busy_s", secs(seal.ns), "s"},
		{"track.seal.self_s", secs(selfNs), "s"},
		{"track.seal.max_ms", float64(seal.maxNs) / 1e6, "ms"},
		{"track.seal.wait_s", secs(waitNs), "s"},
		{"track.compact.busy_s", secs(totals[spanCompact].ns), "s"},
		{"track.compact_segments.passes", float64(r.stats.CompactionPasses), "count"},
		{"track.compact_segments.eliminated", float64(r.stats.CompactedSegments), "count"},
		{"track.retain.passes", float64(r.stats.RetentionPasses), "count"},
		{"track.retain.retired", float64(r.stats.RetiredSegments), "count"},
		{"track.open.busy_s", secs(totals[spanOpen].ns), "s"},
		{"track.close.busy_s", secs(totals[spanClose].ns), "s"},
		{"track.stream.busy_s", secs(totals[spanStream].ns), "s"},
		{"track.monitor.consumed", float64(r.consumed), "count"},
		{"track.monitor.lag_max_events", float64(r.lagMax), "count"},
		{"track.monitor.sync_s", secs(totals[spanSync].ns), "s"},
		{"vfs.write.calls", float64(vw.calls), "count"},
		{"vfs.write.bytes", float64(vw.bytes), "B"},
		{"vfs.write.busy_s", secs(vw.ns), "s"},
		{"vfs.fsync.calls", float64(vs.calls), "count"},
		{"vfs.fsync.busy_s", secs(vs.ns), "s"},
		{"vfs.rename.calls", float64(vn.calls), "count"},
		{"vfs.rename.busy_s", secs(vn.ns), "s"},
		{"vfs.read.calls", float64(vr.calls), "count"},
		{"vfs.read.bytes", float64(vr.bytes), "B"},
		{"vfs.read.busy_s", secs(vr.ns), "s"},
		{"vfs.remove.calls", float64(totals[spanRemove].calls), "count"},
		{"vfs.write_amp", ratio(vw.bytes, r.segBytes), "ratio"},
		{"tlog.decode_ns_per_event", ratio(r.tlog.decodeNs, r.tlog.events), "ns"},
		{"tlog.encode_ns_per_event", ratio(r.tlog.encodeNs, r.tlog.events), "ns"},
		{"go.gc.cycles", float64(r.gcCycles), "count"},
		{"go.gc.pause_s", secs(int64(r.gcPauseNs)), "s"},
		{"trace.overhead_frac", 1 - mops(r)/mops(u), "fraction"},
	}
}

// countSink counts a stream; timing a Stream into it measures replay
// alone.
type countSink struct{}

func (countSink) ConsumeStamp(event.Event, int, vclock.Vector) error { return nil }

// tlog probe sizing: segments of tlogChunk events, and at most tlogEvents
// events per run, so the probe's cost stays bounded on long runs.
const (
	tlogChunk  = 8192
	tlogEvents = 1 << 20
)

// tlogProbe times internal/tlog over the run's own history: it cuts the
// streamed records into single-epoch segments, encodes each
// (NewDeltaWriter + AppendSegment) and decodes it back (NewSegmentReader).
type tlogProbe struct {
	ev     []event.Event
	stamps []vclock.Vector
	epoch  int
	events int64
	// encodeNs and decodeNs are the time spent in the two directions.
	encodeNs, decodeNs int64
	seg                []byte
	err                error
}

// ConsumeStamp implements track.StampSink.
func (p *tlogProbe) ConsumeStamp(e event.Event, epoch int, v vclock.Vector) error {
	if p.events+int64(len(p.ev)) >= tlogEvents {
		return nil
	}
	if len(p.ev) > 0 && epoch != p.epoch {
		p.encodeDecode()
	}
	p.epoch = epoch
	p.ev = append(p.ev, e)
	if n := len(p.ev); n <= len(p.stamps) {
		p.stamps[n-1] = append(p.stamps[n-1][:0], v...)
	} else {
		p.stamps = append(p.stamps, v.Clone())
	}
	if len(p.ev) == tlogChunk {
		p.encodeDecode()
	}
	return nil
}

// flush encodes whatever is buffered and reports the first error.
func (p *tlogProbe) flush() error {
	if len(p.ev) > 0 {
		p.encodeDecode()
	}
	return p.err
}

func (p *tlogProbe) encodeDecode() {
	n := len(p.ev)
	defer func() { p.ev = p.ev[:0] }()
	if p.err != nil {
		return
	}
	t0 := time.Now()
	var payload bytes.Buffer
	w := tlog.NewDeltaWriter(&payload)
	widths := make([]int, n)
	for i, e := range p.ev {
		if err := w.Append(e, p.stamps[i]); err != nil {
			p.err = err
			return
		}
		widths[i] = len(p.stamps[i])
	}
	if err := w.Flush(); err != nil {
		p.err = err
		return
	}
	meta := tlog.SegmentMeta{Epoch: p.epoch, FirstIndex: p.ev[0].Index, Count: n}
	seg, err := tlog.AppendSegment(p.seg[:0], meta, widths, payload.Bytes())
	if err != nil {
		p.err = err
		return
	}
	p.seg = seg
	t1 := time.Now()
	sr, err := tlog.NewSegmentReader(bytes.NewReader(seg))
	for err == nil {
		_, _, err = sr.Next()
	}
	t2 := time.Now()
	if !errors.Is(err, io.EOF) {
		p.err = err
		return
	}
	p.encodeNs += int64(t1.Sub(t0))
	p.decodeNs += int64(t2.Sub(t1))
	p.events += int64(n)
}
