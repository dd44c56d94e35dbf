package tlog

import (
	"bytes"
	"fmt"
	"io"
)

// Segment merge: rewriting a run of adjacent small segments into one larger
// segment with a merged width table and a contiguous index range. This is
// the storage half of the tracker's tiered compaction — frequent seals
// produce swarms of tiny MVCSEG01 containers, and merging them keeps the
// sealed history cheap to re-read (one header, one delta stream, one first
// appearance per thread and per object instead of N) without changing a
// single record: replaying the merged segment yields exactly the records
// that replaying the sources in order would have yielded, event for event,
// stamp for stamp, width for width.
//
// The merged payload is NOT the source payloads concatenated: each source
// segment opens every thread with a full vector and every object with a
// record that is not derived (segments must decode without outside state),
// and re-encoding through one DeltaWriter — whose Append checks each
// record against the update rule — turns all but the first of those first
// appearances into derived records of a few bytes. That is where the byte
// savings beyond the headers come from.

// MergeSegments reads one segment from each src, in order, verifies they
// form a gapless single-epoch run, and writes one merged segment holding
// exactly their records to w. It returns the merged segment's meta. Sources
// are read one at a time into one reused buffer and streamed record by
// record, so memory is bounded by the merged container and the largest
// source, not by the source count.
func MergeSegments(w io.Writer, srcs ...io.Reader) (SegmentMeta, error) {
	if len(srcs) == 0 {
		return SegmentMeta{}, fmt.Errorf("tlog: merging zero segments")
	}
	var (
		meta    SegmentMeta
		widths  []int
		payload bytes.Buffer
	)
	dw := NewDeltaWriter(&payload)
	sr := new(SegmentReader)
	for i, src := range srcs {
		if err := sr.Reset(src); err != nil {
			return SegmentMeta{}, fmt.Errorf("tlog: merge source %d: %w", i, err)
		}
		m := sr.Meta()
		if i == 0 {
			meta = m
		} else {
			if m.Epoch != meta.Epoch {
				return SegmentMeta{}, fmt.Errorf("tlog: merge source %d is epoch %d, run is epoch %d",
					i, m.Epoch, meta.Epoch)
			}
			if want := meta.FirstIndex + meta.Count; m.FirstIndex != want {
				return SegmentMeta{}, fmt.Errorf("tlog: merge source %d starts at %d, want %d (gapless run)",
					i, m.FirstIndex, want)
			}
			meta.Count += m.Count
		}
		for {
			e, v, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return SegmentMeta{}, fmt.Errorf("tlog: merge source %d: %w", i, err)
			}
			// v is already padded to the record's clock width, so its length
			// IS the width to carry into the merged table.
			widths = append(widths, len(v))
			if err := dw.Append(e, v); err != nil {
				return SegmentMeta{}, err
			}
		}
	}
	if err := dw.Flush(); err != nil {
		return SegmentMeta{}, err
	}
	data, err := AppendSegment(nil, meta, widths, payload.Bytes())
	if err != nil {
		return SegmentMeta{}, err
	}
	if _, err := w.Write(data); err != nil {
		return SegmentMeta{}, fmt.Errorf("tlog: writing merged segment: %w", err)
	}
	return meta, nil
}

// SegmentStat is what the compaction planner needs to know about one sealed
// segment: its meta and its encoded container size.
type SegmentStat struct {
	Meta  SegmentMeta
	Bytes int64
}

// PlanSegmentCompaction chooses which adjacent segments a tiered-compaction
// pass should merge. segs must be ordered by FirstIndex (as a tracker's
// sealed history and a sorted spill directory both are). The returned plan
// is a list of half-open [start, end) ranges into segs, each a gapless
// single-epoch run of at least two segments to rewrite as one.
//
// The policy has two knobs:
//
//   - maxSegments: when positive, compaction is wanted only while the
//     segment count exceeds it — below that the pass plans nothing. Zero or
//     negative plans unconditionally.
//   - targetBytes: when positive, the size ceiling of the tier — a segment
//     already at or above it is left alone (it has graduated), and a group
//     stops growing before its combined size would cross it. Zero or
//     negative merges without a size cap, i.e. one segment per epoch run.
//
// The plan is best-effort: a small targetBytes can leave more than
// maxSegments segments standing, and a later pass (after more seals) picks
// up where this one left off.
func PlanSegmentCompaction(segs []SegmentStat, maxSegments int, targetBytes int64) [][2]int {
	if maxSegments > 0 && len(segs) <= maxSegments {
		return nil
	}
	var plan [][2]int
	for i := 0; i < len(segs); {
		if targetBytes > 0 && segs[i].Bytes >= targetBytes {
			i++
			continue
		}
		j := i
		size := segs[i].Bytes
		next := segs[i].Meta.FirstIndex + segs[i].Meta.Count
		for j+1 < len(segs) &&
			segs[j+1].Meta.Epoch == segs[i].Meta.Epoch &&
			segs[j+1].Meta.FirstIndex == next &&
			(targetBytes <= 0 || size+segs[j+1].Bytes <= targetBytes) {
			j++
			size += segs[j].Bytes
			next += segs[j].Meta.Count
		}
		if j > i {
			plan = append(plan, [2]int{i, j + 1})
		}
		i = j + 1
	}
	return plan
}
