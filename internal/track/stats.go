// Tracker statistics: the one-call summary load generators and operational
// dashboards poll. Everything here is readable lock-free or under the short
// shard read lock the individual accessors already take — Stats never stalls
// commits (but, like Epoch, it is not for use inside a Do callback).
package track

// TrackerStats is a point-in-time summary of a tracker's clock and storage
// lifecycle. The first block is current state (what the individual accessors
// Events, Size, Epoch, Segments report, gathered in one call); the counters
// in the second block are cumulative over the tracker's lifetime — they only
// grow, across epochs and compaction passes, so two snapshots subtract into
// rates. `mvc spam` prints one of these after every run.
type TrackerStats struct {
	// Events is the number of committed operations; SealedEvents of them
	// live in immutable segments, and events below RetainedEvents were
	// retired by retention (replay starts at the floor).
	Events         int `json:"events"`
	SealedEvents   int `json:"sealed_events"`
	RetainedEvents int `json:"retained_events"`
	// Width is the current mixed-clock width (the live cover size); Epoch
	// counts Compact barriers.
	Width int `json:"width"`
	Epoch int `json:"epoch"`
	// Segments is the sealed-history length, SpilledBytes the on-disk
	// total across spilled segments, CatalogGen the published catalog
	// generation (bumped by every sealed-history change).
	Segments     int   `json:"segments"`
	SpilledBytes int64 `json:"spilled_bytes"`
	CatalogGen   int64 `json:"catalog_gen"`
	// Seals counts successful seal passes; CompactionPasses ran tiered
	// segment compaction, eliminating CompactedSegments source segments
	// (beyond their merged replacements); RetentionPasses retired
	// RetiredSegments graduated segments.
	Seals             int64 `json:"seals"`
	CompactionPasses  int64 `json:"compaction_passes"`
	CompactedSegments int64 `json:"compacted_segments"`
	RetentionPasses   int64 `json:"retention_passes"`
	RetiredSegments   int64 `json:"retired_segments"`
	// SealBarrierNanos is the total time seals held the world write lock —
	// the stop-the-world pause every committer pays — and
	// SealBarrierMaxNanos the longest single hold. Each automatic or
	// explicit seal holds it twice: to swap the per-thread buffers out, and
	// to publish the segment. Both are O(threads): the publish reuses the
	// previous resume manifest unless a reveal, a registration or an epoch
	// changed it, and only then rebuilds it, O(revealed edges). Neither
	// depends on how many records the seal holds. Compact and Close, which
	// seal under their own barrier, are not counted.
	SealBarrierNanos    int64 `json:"seal_barrier_ns"`
	SealBarrierMaxNanos int64 `json:"seal_barrier_max_ns"`
	// BackpressureWaits counts the commits that waited for the lifecycle
	// worker because the unsealed backlog had reached its bound (four
	// SealEvery intervals), and BackpressureNanos their total wait.
	// UnsealedMax is the largest unsealed backlog, in events, a commit saw
	// when a seal was due: how far the worker lagged at worst.
	BackpressureWaits int64 `json:"backpressure_waits"`
	BackpressureNanos int64 `json:"backpressure_ns"`
	UnsealedMax       int64 `json:"unsealed_max"`
}

// Stats gathers the tracker's current lifecycle summary. The snapshot is
// internally consistent for the sealed-history fields (they come from one
// immutable hist value); Events and Width are independent atomic loads, so
// under concurrent commits they may run slightly ahead. Stats never blocks
// commits, but it takes the same short shard read lock Epoch does, so don't
// call it from inside a Do callback.
func (t *Tracker) Stats() TrackerStats {
	st := t.hist.Load()
	var spilled int64
	for _, sg := range st.segs {
		if sg.file != "" {
			spilled += sg.size
		}
	}
	return TrackerStats{
		Events:              t.Events(),
		SealedEvents:        int(t.sealed.Load()),
		RetainedEvents:      st.retained,
		Width:               t.Size(),
		Epoch:               t.Epoch(),
		Segments:            len(st.segs),
		SpilledBytes:        spilled,
		CatalogGen:          st.gen,
		Seals:               t.sealPasses.Load(),
		CompactionPasses:    t.compactPasses.Load(),
		CompactedSegments:   t.compactedSegs.Load(),
		RetentionPasses:     t.retainPasses.Load(),
		RetiredSegments:     t.retiredSegs.Load(),
		SealBarrierNanos:    t.sealBarrierNanos.Load(),
		SealBarrierMaxNanos: t.sealBarrierMax.Load(),
		BackpressureWaits:   t.bpWaits.Load(),
		BackpressureNanos:   t.bpNanos.Load(),
		UnsealedMax:         t.unsealedMax.Load(),
	}
}
