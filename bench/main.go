// Command bench is the repository's benchmark. It drives the live tracker
// (internal/track) from outside, with two closed-loop driver goroutines,
// over four workloads built on the paper's sparse graphs, and prints every
// metric by name with its unit.
//
// Each workload runs an untraced pass, which gives the end-to-end metrics,
// and then, unless -trace 0, a traced pass of the same input, which times
// each layer at its public functions and gives the per-layer metrics. Every
// input comes from -seed and is generated before any timer starts. A run
// commits a fixed number of operations per nominal second of -seconds.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics with -trace 0, and with -trace 1 the
// per-layer metrics plus the untraced pass's throughput, commit latency and
// drain time. failed counts correctness-gate failures (check.go); the
// command exits 1 when there are any.
//
// Usage (bench/run.sh builds the command from this checkout and runs it
// from the repository root):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-smoke]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workDir holds durable-monitor's run directories while it runs.
const workDir = ".bench_build"

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "nominal run length; fixes each workload's operation count")
	traced := fs.Int("trace", 1, "1: untraced pass, then traced pass (per-layer metrics); 0: untraced pass only")
	spansPath := fs.String("spans", "", "append the traced passes' spans to this file as JSON lines")
	smoke := fs.Bool("smoke", false, "run every count at 1/100 size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -trace 0 or 1, and no arguments follow the flags")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []workload{w}
	}
	scale := 1
	if *smoke {
		scale = 100
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	out := output{Correct: true, Metrics: map[string]metric{}}
	for i, w := range ws {
		rep, err := runWorkload(w, options{
			seed: *seed, seconds: *seconds, scale: scale, traced: *traced == 1,
			dir: filepath.Join(dir, fmt.Sprint(i)),
		})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(stdout)
		if *spansPath != "" && rep.traced != nil {
			if err := writeSpans(*spansPath, rep.traced.spans); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		out.Attempted += rep.attempted
		out.Failed += rep.failed
		ms := rep.e2e
		if rep.traced != nil {
			ms = append(rates(rep.untraced), rep.layers...)
		}
		for _, m := range ms {
			key := m.Name
			if len(ws) > 1 {
				key = w.name + "/" + m.Name
			}
			out.Metrics[key] = m
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// options are the command-line settings of one workload's run.
type options struct {
	seed    int64
	seconds int
	scale   int
	traced  bool
	dir     string
}

// report is one workload's run: its passes and their metrics.
type report struct {
	w                 workload
	seed              int64
	untraced, traced  *passResult
	e2e, layers       []metric
	attempted, failed int64
	notes             []string
}

// runWorkload generates the input and runs the untraced pass, then the
// traced pass when asked.
func runWorkload(w workload, o options) (*report, error) {
	in, err := makeInput(w, o.seed, o.seconds, o.scale)
	if err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	rep := &report{w: w, seed: o.seed}
	c := &config{w: w, in: in, scale: o.scale, dir: o.dir + "-untraced"}
	if rep.untraced, err = runPass(c); err != nil {
		return nil, err
	}
	rep.e2e = endToEnd(rep.untraced)
	rep.add(rep.untraced)
	if o.traced {
		c = &config{w: w, in: in, scale: o.scale, traced: true, dir: o.dir + "-traced"}
		if rep.traced, err = runPass(c); err != nil {
			return nil, err
		}
		rep.layers = perLayer(rep.traced, rep.untraced, min(in.threads, in.objects))
		rep.add(rep.traced)
	}
	return rep, nil
}

func (r *report) add(p *passResult) {
	r.attempted += p.drivers.ops
	r.failed += p.gate.failures
	r.notes = append(r.notes, p.gate.notes...)
}

// print writes the human-readable table.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed %d  %d ops measured per pass\n", r.w.name, r.seed, r.untraced.drivers.ops)
	for _, m := range append(r.e2e, rates(r.untraced)...) {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-36s %16d %s\n", "check_failures", r.failed, "count")
	for _, n := range r.notes {
		fmt.Fprintf(w, "  check: %s\n", n)
	}
	if r.traced == nil {
		return
	}
	fmt.Fprintf(w, "-- %s traced\n", r.w.name)
	for _, m := range r.layers {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
}
