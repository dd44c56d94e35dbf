package main

import (
	"fmt"
	"math/rand"

	"mixedclock/internal/bipartite"
	"mixedclock/internal/event"
	"mixedclock/internal/trace"
)

// Tracker lifecycle constants shared by every workload.
const (
	// sealEvents is the seal cadence: untraced passes arm
	// SpillPolicy.SealEvery with it, traced passes seal from the driver
	// whenever the event count crosses a multiple of it.
	sealEvents = 50_000
	// compactEvery is how many events separate two epoch Compacts in
	// durable-monitor.
	compactEvery = 500_000
	// batchOps is the Batch size of read-batch.
	batchOps = 16
	// monitorWindow is durable-monitor's Monitor window. 16 keeps the drain
	// near 10 s; a window of 128 needed 82 s to drain after a 2M-op run.
	monitorWindow = 16
	// retainBytes is durable-monitor's retention budget.
	retainBytes = 64 << 20
	// compactSegments is durable-monitor's tiered-compaction trigger.
	compactSegments = 12
)

// workload is one benchmark input family and the way it is driven. Every
// count is fixed in code: a run's operation count is opsPerSecond times the
// -seconds flag, so seal, compaction and epoch counts are exact functions
// of the input.
type workload struct {
	name string
	// graph selects the paper's Nonuniform 256×256 d=0.005 graph; false
	// selects a uniform 32×256 stream whose every thread–object pair is an
	// edge.
	graph    bool
	readFrac float64
	// batch is the Batch size per logical thread; 1 commits with Thread.Do.
	batch int
	// warmup ops follow the one-commit-per-edge reveal during setup.
	warmup int
	// prep ops populate durable-monitor's directory, untimed, before setup.
	prep         int
	opsPerSecond int
	durable      bool
	// setups is how many times a run repeats its set-up; setup_s is the
	// median.
	setups int
}

var workloads = []workload{
	{name: "steady-mem", graph: true, readFrac: 0.5, batch: 1, warmup: 200_000, opsPerSecond: 400_000, setups: 5},
	{name: "read-batch", graph: true, readFrac: 0.95, batch: batchOps, warmup: 200_000, opsPerSecond: 800_000, setups: 5},
	{name: "cold-reveal", readFrac: 0.5, batch: 1, opsPerSecond: 200_000, setups: 2001},
	{name: "durable-monitor", graph: true, readFrac: 0.5, batch: 1, prep: 1_000_000, opsPerSecond: 100_000, durable: true, setups: 5},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// op is one operation of an input stream in compact form.
type op struct {
	thread, object uint16
	read           bool
}

func (p op) kind() event.Op {
	if p.read {
		return event.OpRead
	}
	return event.OpWrite
}

// input is everything a run commits, generated from the seed before any
// timer starts. Each stream is split by driver: thread t belongs to driver
// t%drivers, and each driver keeps its threads' operations in stream order.
type input struct {
	threads, objects int
	// graph is the bipartite projection of everything the run commits.
	graph    *bipartite.Graph
	reveal   [drivers][]op
	warmup   [drivers][]op
	prep     [drivers][]op
	measured [drivers][]op
}

// drivers is the number of closed-loop driver goroutines, one per CPU of
// the 2-core reference machine.
const drivers = 2

func split(ops []op) [drivers][]op {
	var out [drivers][]op
	for _, p := range ops {
		d := int(p.thread) % drivers
		out[d] = append(out[d], p)
	}
	return out
}

func count(ops [drivers][]op) int {
	n := 0
	for _, s := range ops {
		n += len(s)
	}
	return n
}

// graphSeed draws the one Nonuniform graph every graph workload runs on.
// The graph is fixed so that its optimum (100 components for seed 1) and
// the widths and costs that follow from it do not change with -seed, which
// draws the operation streams over it.
const graphSeed = 1

// genChunk bounds the transient event.Trace of the uniform generator.
const genChunk = 1 << 16

// makeInput generates a workload's streams from seed. scale divides every
// operation count (1 for the benchmark, 100 for -smoke).
func makeInput(w workload, seed int64, seconds, scale int) (*input, error) {
	rng := rand.New(rand.NewSource(seed))
	// The measured phase ends half a seal interval past a multiple of
	// sealEvents, so the drain seals a tail of fixed size.
	measured := (w.opsPerSecond*seconds + sealEvents/2) / scale
	if !w.graph {
		// trace.Uniform over 32×256, generated in bounded chunks.
		in := &input{threads: 32, objects: 256, graph: bipartite.New(32, 256)}
		cfg := trace.Config{Threads: in.threads, Objects: in.objects, ReadFraction: w.readFrac}
		var ops []op
		for len(ops) < measured {
			cfg.Events = min(genChunk, measured-len(ops))
			tr, err := trace.Generate(trace.Uniform, cfg, rng)
			if err != nil {
				return nil, err
			}
			for _, e := range tr.Events() {
				ops = append(ops, op{thread: uint16(e.Thread), object: uint16(e.Object), read: e.Op == event.OpRead})
				in.graph.AddEdge(int(e.Thread), int(e.Object))
			}
		}
		in.measured = split(ops)
		return in, nil
	}
	g, err := bipartite.Generate(bipartite.GenConfig{
		NThreads: 256, NObjects: 256, Density: 0.005, Scenario: bipartite.Nonuniform,
	}, rand.New(rand.NewSource(graphSeed)))
	if err != nil {
		return nil, err
	}
	in := &input{threads: g.NThreads(), objects: g.NObjects(), graph: g}
	var reveal []op
	for _, e := range trace.FromGraph(g, 0, rng).Events() {
		reveal = append(reveal, op{thread: uint16(e.Thread), object: uint16(e.Object)})
	}
	in.reveal = split(reveal)
	// The rest follows trace.FromGraph's extra events — a uniformly chosen
	// existing edge each — with reads mixed in at readFrac.
	edges := g.EdgeList()
	stream := func(n int) [drivers][]op {
		ops := make([]op, n)
		for i := range ops {
			e := edges[rng.Intn(len(edges))]
			ops[i] = op{thread: uint16(e.Thread), object: uint16(e.Object), read: rng.Float64() < w.readFrac}
		}
		return split(ops)
	}
	in.warmup = stream(w.warmup / scale)
	in.prep = stream(w.prep / scale)
	in.measured = stream(measured)
	return in, nil
}
