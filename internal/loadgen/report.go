package loadgen

import (
	"encoding/json"
	"fmt"
	"io"

	"mixedclock/internal/track"
)

// Latency summarizes the per-operation latency histogram, in nanoseconds.
// Percentiles come from the log-linear histogram (≈3% resolution); Max is
// the exact observed maximum. Batch commits are amortized: a batch of N
// contributes its commit latency divided by N, N times.
type Latency struct {
	P50  int64 `json:"p50_ns"`
	P90  int64 `json:"p90_ns"`
	P99  int64 `json:"p99_ns"`
	P999 int64 `json:"p999_ns"`
	Max  int64 `json:"max_ns"`
}

// MonitorSummary reports what the attached online monitor saw during the
// run: records consumed, detections raised, schedule-sensitive pairs, and
// the incremental König lower bound on the optimal clock width.
type MonitorSummary struct {
	Consumed        int `json:"consumed"`
	Detections      int `json:"detections"`
	Pairs           int `json:"pairs"`
	CoverLowerBound int `json:"cover_lower_bound"`
}

// Report is the result of one load-generation run: the effective config,
// op counts, throughput, latency percentiles, allocation rates, and the
// tracker's final lifecycle stats (clock width, seals, compaction and
// retention totals). Marshals to stable JSON for scripting; WriteTable and
// WriteCSV render the same data for humans and spreadsheets.
type Report struct {
	Config         Config             `json:"config"`
	WarmupOps      int64              `json:"warmup_ops"`
	Ops            int64              `json:"ops"`
	Reads          int64              `json:"reads"`
	Writes         int64              `json:"writes"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Mops           float64            `json:"mops"`
	Latency        Latency            `json:"latency"`
	AllocsPerOp    float64            `json:"allocs_per_op"`
	BytesPerOp     float64            `json:"bytes_per_op"`
	Tracker        track.TrackerStats `json:"tracker"`
	Monitor        *MonitorSummary    `json:"monitor,omitempty"`
}

// WriteJSON emits the report as one indented JSON object.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as an aligned key/value table.
func (r *Report) WriteTable(w io.Writer) error {
	c := r.Config
	rows := []struct {
		k string
		v string
	}{
		{"threads", fmt.Sprintf("%d", c.Threads)},
		{"objects", fmt.Sprintf("%d (%s)", c.Objects, c.Dist)},
		{"readfrac", fmt.Sprintf("%.2f", c.ReadFrac)},
		{"batch", fmt.Sprintf("%d", c.Batch)},
		{"warmup ops", fmt.Sprintf("%d", r.WarmupOps)},
		{"measured ops", fmt.Sprintf("%d (%d reads, %d writes)", r.Ops, r.Reads, r.Writes)},
		{"elapsed", fmt.Sprintf("%.3fs", r.ElapsedSeconds)},
		{"throughput", fmt.Sprintf("%.3f mops/sec", r.Mops)},
		{"latency p50/p90/p99", fmt.Sprintf("%d / %d / %d ns", r.Latency.P50, r.Latency.P90, r.Latency.P99)},
		{"latency p99.9/max", fmt.Sprintf("%d / %d ns", r.Latency.P999, r.Latency.Max)},
		{"allocs", fmt.Sprintf("%.2f allocs/op, %.1f B/op", r.AllocsPerOp, r.BytesPerOp)},
		{"clock width", fmt.Sprintf("%d (epoch %d)", r.Tracker.Width, r.Tracker.Epoch)},
		{"events", fmt.Sprintf("%d committed, %d sealed, floor %d", r.Tracker.Events, r.Tracker.SealedEvents, r.Tracker.RetainedEvents)},
		{"segments", fmt.Sprintf("%d live, %d B spilled, catalog gen %d", r.Tracker.Segments, r.Tracker.SpilledBytes, r.Tracker.CatalogGen)},
		{"lifecycle", fmt.Sprintf("%d seals, %d compaction passes (-%d segs), %d retention passes (-%d segs)",
			r.Tracker.Seals, r.Tracker.CompactionPasses, r.Tracker.CompactedSegments,
			r.Tracker.RetentionPasses, r.Tracker.RetiredSegments)},
		{"seal barrier", fmt.Sprintf("%d ns total, %d ns max", r.Tracker.SealBarrierNanos, r.Tracker.SealBarrierMaxNanos)},
		{"backpressure", fmt.Sprintf("%d waits, %d ns total; unsealed max %d",
			r.Tracker.BackpressureWaits, r.Tracker.BackpressureNanos, r.Tracker.UnsealedMax)},
	}
	if r.Monitor != nil {
		rows = append(rows, struct {
			k string
			v string
		}{"monitor", fmt.Sprintf("%d consumed, %d detections, %d pairs, cover ≥ %d",
			r.Monitor.Consumed, r.Monitor.Detections, r.Monitor.Pairs, r.Monitor.CoverLowerBound)})
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "%-22s %s\n", row.k, row.v); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits a header row and one value row, for collecting sweeps
// across invocations into a single sheet.
func (r *Report) WriteCSV(w io.Writer) error {
	c := r.Config
	if _, err := fmt.Fprintln(w, "threads,objects,readfrac,batch,dist,ops,reads,writes,elapsed_sec,mops,p50_ns,p90_ns,p99_ns,p999_ns,max_ns,allocs_per_op,bytes_per_op,width,epoch,segments,spilled_bytes,seals"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%d,%d,%g,%d,%s,%d,%d,%d,%.3f,%.4f,%d,%d,%d,%d,%d,%.2f,%.1f,%d,%d,%d,%d,%d\n",
		c.Threads, c.Objects, c.ReadFrac, c.Batch, c.Dist,
		r.Ops, r.Reads, r.Writes, r.ElapsedSeconds, r.Mops,
		r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.P999, r.Latency.Max,
		r.AllocsPerOp, r.BytesPerOp,
		r.Tracker.Width, r.Tracker.Epoch, r.Tracker.Segments, r.Tracker.SpilledBytes, r.Tracker.Seals)
	return err
}

// Write renders the report in the named format: "table", "csv" or "json".
func (r *Report) Write(w io.Writer, format string) error {
	switch format {
	case "table":
		return r.WriteTable(w)
	case "csv":
		return r.WriteCSV(w)
	case "json":
		return r.WriteJSON(w)
	default:
		return fmt.Errorf("loadgen: unknown format %q (want table, csv or json)", format)
	}
}
