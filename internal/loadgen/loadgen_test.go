package loadgen

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// TestDeterministicOps pins the deterministic mode: with -ops set, the same
// seed yields the identical op counts and read/write split, run to run.
func TestDeterministicOps(t *testing.T) {
	cfg := Config{Threads: 3, Objects: 16, ReadFrac: 0.3, Ops: 400, Warmup: 20, Seed: 9}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * 400); a.Ops != want {
		t.Fatalf("ops = %d, want %d", a.Ops, want)
	}
	if a.Ops != b.Ops || a.Reads != b.Reads || a.Writes != b.Writes {
		t.Errorf("same seed, different counts: %d/%d/%d vs %d/%d/%d",
			a.Ops, a.Reads, a.Writes, b.Ops, b.Reads, b.Writes)
	}
	if a.Reads+a.Writes != a.Ops {
		t.Errorf("reads %d + writes %d != ops %d", a.Reads, a.Writes, a.Ops)
	}
	if a.Tracker.Events != int(a.Ops)+int(a.WarmupOps) {
		t.Errorf("tracker saw %d events, want %d", a.Tracker.Events, a.Ops+a.WarmupOps)
	}
}

// TestBatchMode checks batched commits count every operation and keep the
// amortized latency histogram populated.
func TestBatchMode(t *testing.T) {
	rep, err := Run(Config{Threads: 2, Objects: 8, ReadFrac: 0.5, Ops: 333, Warmup: 10, Batch: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * 333); rep.Ops != want {
		t.Fatalf("ops = %d, want %d (batch must not round the fixed count)", rep.Ops, want)
	}
	if rep.Latency.Max <= 0 {
		t.Error("no latencies recorded in batch mode")
	}
}

// TestZipf smokes the zipf object distribution.
func TestZipf(t *testing.T) {
	rep, err := Run(Config{Threads: 2, Objects: 32, ReadFrac: 0.5, Ops: 200, Warmup: 10, Dist: "zipf", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tracker.Width < 1 {
		t.Errorf("implausible report %+v", rep)
	}
}

// TestDurableStore runs against a spill directory and checks the lifecycle
// counters actually moved: the run sealed, and the stats reflect a durable
// catalog.
func TestDurableStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	rep, err := Run(Config{Threads: 4, Objects: 16, ReadFrac: 0.5, Ops: 30_000, Warmup: 100, Store: dir, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tracker.Seals == 0 {
		t.Error("durable run never sealed")
	}
	if rep.Tracker.SpilledBytes == 0 || rep.Tracker.Segments == 0 {
		t.Errorf("durable run spilled nothing: %+v", rep.Tracker)
	}
	if rep.Tracker.SealedEvents != rep.Tracker.Events {
		t.Errorf("Close left %d of %d events unsealed", rep.Tracker.Events-rep.Tracker.SealedEvents, rep.Tracker.Events)
	}
}

// TestSpamUnderMonitor is the race-stressed harness test (CI runs it under
// -race -count=3): a timed multi-worker mixed load with an online monitor
// riding the seal stream, plus batching, on a real spill directory.
func TestSpamUnderMonitor(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	rep, err := Run(Config{
		Threads:  4,
		Objects:  24,
		ReadFrac: 0.4,
		Ops:      5_000,
		Warmup:   200,
		Batch:    8,
		Dist:     "zipf",
		Store:    dir,
		Monitor:  true,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Monitor == nil {
		t.Fatal("monitor summary missing")
	}
	if rep.Monitor.Consumed == 0 {
		t.Error("monitor consumed nothing despite Sync")
	}
	if rep.Monitor.CoverLowerBound < 1 || rep.Monitor.CoverLowerBound > rep.Tracker.Width {
		t.Errorf("König lower bound %d outside [1, width=%d]", rep.Monitor.CoverLowerBound, rep.Tracker.Width)
	}
}

// TestValidate rejects the configs Run cannot honour.
func TestValidate(t *testing.T) {
	bad := []Config{
		{Threads: 1, Objects: 1, ReadFrac: 1.5, Ops: 1},
		{Threads: 1, Objects: 1, Dist: "pareto", Ops: 1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestHistQuantiles pins the histogram's log-linear resolution: quantiles
// of a known distribution come back within sub-bucket error, and merge is
// count-preserving.
func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := int64(1); i <= 10_000; i++ {
		h.recordN(i, 1)
	}
	checks := []struct {
		q    float64
		want int64
	}{{0.5, 5000}, {0.9, 9000}, {0.99, 9900}}
	for _, c := range checks {
		got := h.quantile(c.q)
		err := float64(got-c.want) / float64(c.want)
		if err < -0.05 || err > 0.05 {
			t.Errorf("q%.2f = %d, want %d ±5%%", c.q, got, c.want)
		}
	}
	if h.quantile(1.0) != 10_000 {
		t.Errorf("max quantile = %d, want exact max 10000", h.quantile(1.0))
	}

	var a, b hist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a.recordN(rng.Int63n(1_000_000), 1)
		b.recordN(rng.Int63n(1_000_000), 1)
	}
	n := a.n + b.n
	a.merge(&b)
	if a.n != n {
		t.Errorf("merge lost counts: %d, want %d", a.n, n)
	}
}

// TestBucketRoundTrip checks bucketOf/valueOf stay within sub-bucket error
// across the whole range, including the exact low range and boundaries.
func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 1023, 1 << 20, (1 << 40) + 12345} {
		idx := bucketOf(v)
		rep := valueOf(idx)
		if v < 1<<subBits {
			if rep != v {
				t.Errorf("low range: valueOf(bucketOf(%d)) = %d, want exact", v, rep)
			}
			continue
		}
		ratio := float64(rep) / float64(v)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("valueOf(bucketOf(%d)) = %d, off by %.1f%%", v, rep, (ratio-1)*100)
		}
	}
}
