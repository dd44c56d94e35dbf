package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mixedclock/internal/event"
	"mixedclock/internal/track"
	"mixedclock/internal/vfs"
)

func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	vals := make([]int64, 200_000)
	for i := range vals {
		// Log-normal around 1 µs with a long tail, like commit latencies.
		vals[i] = int64(1000 * math.Exp(rng.NormFloat64()))
		h.recordN(vals[i], 1)
	}
	slices.Sort(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := float64(vals[int(q*float64(len(vals)-1))])
		if got := h.quantile(q); math.Abs(got-want) > 0.03*want {
			t.Errorf("p%v = %.1f, sorted reference %.1f", q*100, got, want)
		}
	}
	if h.quantile(1) != float64(vals[len(vals)-1]) {
		t.Errorf("p100 = %v, want the maximum %d", h.quantile(1), vals[len(vals)-1])
	}
}

// stampStream records a small computation on one object, so every pair of
// its events is ordered.
func stampStream(t *testing.T, n int) (*event.Trace, [][]uint64) {
	t.Helper()
	tr, err := track.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ths := []*track.Thread{tr.NewThread("a"), tr.NewThread("b")}
	o := tr.NewObject("o")
	for i := range n {
		ths[i%2].Write(o, nil)
	}
	trace, vs := tr.Snapshot()
	stamps := make([][]uint64, len(vs))
	for i, v := range vs {
		stamps[i] = v
	}
	return trace, stamps
}

func checkStream(trace *event.Trace, stamps [][]uint64) *gate {
	g := &gate{}
	c := newChecker(g, 0, 2, 1)
	for i, e := range trace.Events() {
		c.ConsumeStamp(e, 0, stamps[i])
	}
	c.finish(trace.Len())
	return g
}

func TestCheckerFlagsFlippedComponent(t *testing.T) {
	trace, stamps := stampStream(t, 3*checkWindow)
	if g := checkStream(trace, stamps); g.failures != 0 {
		t.Fatalf("intact stream: %d failures: %v", g.failures, g.notes)
	}
	stamps[checkWindow+40][0] ^= 1 << 40
	if g := checkStream(trace, stamps); g.failures == 0 {
		t.Fatal("a stamp with one flipped component passed the check")
	}
}

func TestCheckerFlagsGap(t *testing.T) {
	trace, stamps := stampStream(t, 10)
	g := &gate{}
	c := newChecker(g, 0, 2, 1)
	for i, e := range trace.Events() {
		if i != 4 {
			c.ConsumeStamp(e, 0, stamps[i])
		}
	}
	c.finish(trace.Len())
	if g.failures == 0 {
		t.Fatal("a stream missing an index passed the check")
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (e2e, layers []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	slices.Sort(out)
	return out
}

// TestSmoke runs both passes of every workload at 1/100 size and checks
// that each reports exactly the metrics BENCHMARK.json declares and passes
// the correctness gate.
func TestSmoke(t *testing.T) {
	t.Parallel()
	e2e, layers := benchmarkMetrics(t)
	slices.Sort(e2e)
	slices.Sort(layers)
	for _, w := range workloads {
		in, err := makeInput(w, 1, 10, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				t.Parallel()
				res, err := runPass(&config{w: w, in: in, scale: 100, traced: traced, dir: t.TempDir() + "/run"})
				if err != nil {
					t.Fatal(err)
				}
				if res.gate.failures != 0 {
					t.Errorf("check_failures = %d: %v", res.gate.failures, res.gate.notes)
				}
				if traced {
					if got := names(append(rates(res), perLayer(res, res, 0)...)); !slices.Equal(got, layers) {
						t.Errorf("per-layer metrics %v, BENCHMARK.json has %v", got, layers)
					}
					return
				}
				ms := endToEnd(res)
				if got := names(ms); !slices.Equal(got, e2e) {
					t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", got, e2e)
				}
				for _, m := range ms {
					if !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestCommandOutput runs the command with the flags BENCHMARK.json's
// command is given and checks its last line.
func TestCommandOutput(t *testing.T) {
	e2e, _ := benchmarkMetrics(t)
	t.Chdir(t.TempDir())
	var out, errs bytes.Buffer
	args := []string{"--workload", "steady-mem", "--seed", "2", "--seconds", "10", "--trace", "0", "-smoke"}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(e2e) {
		t.Fatalf("result %+v", res)
	}
	for _, name := range e2e {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("result lacks %s", name)
		}
	}
	if code := run([]string{"-workload", "nope"}, &out, &errs); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// slowSync injects a fixed delay into every File.Sync.
type slowSync struct {
	vfs.FS
	delay time.Duration
	syncs atomic.Int64
}

func (s *slowSync) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return slowFile{f, s}, nil
}

func (s *slowSync) Create(name string) (vfs.File, error) { return s.wrap(s.FS.Create(name)) }
func (s *slowSync) CreateTemp(dir, pattern string) (vfs.File, error) {
	return s.wrap(s.FS.CreateTemp(dir, pattern))
}
func (s *slowSync) Open(name string) (vfs.File, error) { return s.wrap(s.FS.Open(name)) }

type slowFile struct {
	vfs.File
	s *slowSync
}

func (f slowFile) Sync() error {
	f.s.syncs.Add(1)
	time.Sleep(f.s.delay)
	return f.File.Sync()
}

// TestInjectedSlowdownShowsInItsLayer runs durable-monitor's traced pass at
// 1/100 size twice, the second time with 5 ms added to every File.Sync,
// and checks that the delay shows up in the vfs fsync layer and in the
// seals that issue those fsyncs, and not in the cover's reveals.
func TestInjectedSlowdownShowsInItsLayer(t *testing.T) {
	t.Parallel()
	w, err := lookupWorkload("durable-monitor")
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInput(w, 1, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 5 * time.Millisecond
	slow := &slowSync{FS: vfs.OS, delay: delay}
	layer := func(fs vfs.FS) (map[string]float64, *passResult) {
		res, err := runPass(&config{w: w, in: in, scale: 100, traced: true, dir: t.TempDir() + "/run", fs: fs})
		if err != nil {
			t.Fatal(err)
		}
		if res.gate.failures != 0 {
			t.Fatalf("check failures: %v", res.gate.notes)
		}
		m := map[string]float64{}
		for _, x := range perLayer(res, res, 0) {
			m[x.Name] = x.Value
		}
		return m, res
	}
	plain, _ := layer(vfs.OS)
	slowed, res := layer(slow)

	injected := float64(slow.syncs.Load()) * delay.Seconds()
	seals := map[int64]bool{}
	for _, s := range res.spans {
		if s.Name == spanSeal && s.Start >= res.phaseStart && s.End <= res.drainEnd {
			seals[s.ID] = true
		}
	}
	var inSeals float64
	for _, s := range res.spans {
		if s.Name == spanFsync && seals[s.Parent] {
			inSeals += delay.Seconds()
		}
	}
	if injected == 0 || inSeals == 0 {
		t.Fatalf("no fsync to slow down: %v injected, %v in seals", injected, inSeals)
	}
	// The layers' own time varies between the two runs by a few ms; allow
	// a tenth of the injected delay for it. A seal's own CPU time varies by
	// more than the delay between runs, so the seal is held to the time it
	// spent in its vfs children: busy_s minus self_s.
	rise := func(name string) float64 { return slowed[name] - plain[name] }
	if r := rise("vfs.fsync.busy_s"); r < 0.9*injected {
		t.Errorf("vfs.fsync.busy_s rose %.3fs, %.3fs was injected", r, injected)
	}
	if r := rise("track.seal.busy_s") - rise("track.seal.self_s"); r < 0.9*inSeals {
		t.Errorf("track.seal.busy_s rose %.3fs in vfs calls, %.3fs was injected inside seals", r, inSeals)
	}
	if r := rise("core.reveal.busy_s"); r >= 0.5*injected {
		t.Errorf("core.reveal.busy_s rose %.3fs of the %.3fs injected into fsync", r, injected)
	}
}
