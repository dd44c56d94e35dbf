// Command mvc analyzes thread–object computations with mixed vector clocks.
//
// Usage:
//
//	mvc analyze   [-trace FILE]            graph, optimal cover, clock-size comparison
//	mvc timestamp [-trace FILE] [-n N]     per-event mixed-clock timestamps
//	mvc order     [-trace FILE] -i A -j B  causal relation between two events
//	mvc detect    [-trace FILE]            concurrency census + schedule-sensitive pairs
//	mvc detect    -live -dir DIR [-follow] [-window N] [-order FIRST,SECOND]
//	                                       online detection over a live run's
//	                                       spill directory: follow the
//	                                       published catalog and evaluate the
//	                                       streaming analyses as segments land
//	mvc recover   [-trace FILE] -fail K    recovery line excluding event K's causal future
//	mvc recover   -dir DIR                 reopen a spill directory through
//	                                       crash recovery and report the
//	                                       resumed epoch, index and health
//	mvc validate  [-trace FILE]            prove every clock scheme valid on this trace
//	mvc graph     [-trace FILE]            Graphviz DOT with the minimum cover filled
//	mvc export    [-trace FILE] -out LOG [-format full|delta]
//	              [-live [-spill DIR] [-seal N]]
//	                                       timestamp and write a binary .mvclog
//	mvc inspect   -log LOG [-n N]          read a binary log, either format
//	                                       (tolerates truncation)
//	mvc segments  [-out LOG] [-n N] FILE|DIR...
//	                                       inspect .mvcseg spill files, or
//	                                       merge them into one log
//	mvc catalog   [-verify] DIR|FILE       print a spill directory's segment
//	                                       catalog (catalog.json); -verify
//	                                       also runs recovery's segment
//	                                       check (size, hash, header, full
//	                                       decode) and checks the shipper
//	                                       cursor and the retention floor
//	mvc compact   [-max N] [-target BYTES] DIR
//	                                       tier-compact a spill directory
//	                                       with a catalog through the
//	                                       tracker's crash-safe pass (Open,
//	                                       CompactSegments, Close)
//	mvc spam      [-threads N] [-duration D | -ops N] [-readfrac F]
//	              [-batch N] [-dist uniform|zipf] [-store DIR] [-monitor]
//	              [-seed S] [-format table|csv|json]
//	                                       load-generate against a live
//	                                       tracker and report mops/sec,
//	                                       latency percentiles and final
//	                                       lifecycle stats (with -store the
//	                                       run is durable and mvc detect
//	                                       -live can watch it from outside)
//	mvc gen       [-workload W] [-threads N] [-objects M] [-events E]
//	              [-reads F] [-seed S] [-out FILE]
//	                                       generate a synthetic trace (W is
//	                                       uniform, hotset, zipf,
//	                                       producer-consumer, readers-writers,
//	                                       phased or lock-striped)
//
// Traces are JSON Lines as produced by mvc gen (one {"i","t","o","op"}
// object per line); -trace defaults to stdin, so generation pipes straight
// into analysis:
//
//	mvc gen -workload hotset -events 2000 | mvc analyze
//
// Every clock is a flat vector. -backend flat is still accepted, so older
// scripts keep working; -backend tree and auto exit with status 2, because
// the tree clock was removed. detect needs no mixed-clock stamps, and it
// runs in time linear in the trace, so million-event traces take seconds.
//
// export's -format=delta writes the delta-encoded log: per-thread changed
// components instead of full vectors, streamed straight from the clock's
// change capture. inspect auto-detects the format from the header.
//
// export -live replays the trace through the live tracker's epoch-segment
// pipeline instead of the offline clock: events stream through a Tracker
// (whose online mechanism discovers the components), optionally sealing
// every -seal events and spilling sealed segments to -spill DIR, and the
// log is produced by Tracker.SnapshotTo/Stream — no vector table is ever
// materialized, whatever the trace length. -seal N seals at every multiple
// of N events. The spill directory it leaves behind is a closed durable run
// that mvc segments inspects and merges; export refuses a -spill DIR that
// already holds one.
//
// detect -live attaches the online analyses to a spill directory from the
// outside: it follows the published catalog.json with a durable cursor and
// evaluates the streaming census, the exact schedule-sensitive pair scanner
// and an optional -order watch over sealed records as segments land —
// without ever touching the tracker that owns the directory (sealed
// segments are immutable; commits continue). -follow keeps polling until
// the run closes; -order FIRST,SECOND (object names from the catalog's
// resume manifest) flags every write to SECOND concurrent with the latest
// write to FIRST, with epoch and trace-index provenance. In-process
// monitoring with tail visibility is the library's Tracker.NewMonitor.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mixedclock/internal/baseline"
	"mixedclock/internal/clock"
	"mixedclock/internal/core"
	"mixedclock/internal/cut"
	"mixedclock/internal/detect"
	"mixedclock/internal/event"
	"mixedclock/internal/hb"
	"mixedclock/internal/loadgen"
	"mixedclock/internal/tlog"
	"mixedclock/internal/trace"
	"mixedclock/internal/track"
	"mixedclock/internal/vclock"
	"mixedclock/internal/vfs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	// spam and gen produce load and traces rather than analyze them, so
	// each parses its own FlagSet instead of the trace-analysis flags below.
	if cmd == "spam" || cmd == "gen" {
		run := spam
		if cmd == "gen" {
			run = gen
		}
		if err := run(os.Args[2:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
			fatal(err)
		}
		return
	}
	fs := flag.NewFlagSet("mvc "+cmd, flag.ExitOnError)
	tracePath := fs.String("trace", "-", "trace file (JSONL); - for stdin")
	n := fs.Int("n", 20, "timestamp/inspect: number of events to print (0 = all)")
	i := fs.Int("i", -1, "order: first event index")
	j := fs.Int("j", -1, "order: second event index")
	fail := fs.Int("fail", -1, "recover: failed event index")
	dir := fs.String("dir", "", "recover/detect -live: operate on this spill directory instead of a trace")
	out := fs.String("out", "", "export: output .mvclog path")
	logPath := fs.String("log", "", "inspect: input .mvclog path")
	backendName := fs.String("backend", "flat", "clock representation: only flat remains (accepted for existing scripts)")
	format := fs.String("format", "full", "export: log encoding, full or delta")
	live := fs.Bool("live", false, "export: replay through the live segment pipeline; detect: attach to a spill directory")
	follow := fs.Bool("follow", false, "detect -live: keep polling the catalog until the run closes")
	window := fs.Int("window", 0, "detect -live: census window in events (0: unbounded, exact)")
	orderSpec := fs.String("order", "", "detect -live: FIRST,SECOND object names; flag writes to SECOND concurrent with the latest write to FIRST")
	spillDir := fs.String("spill", "", "export -live: spill sealed segments to this directory (must not hold a run already)")
	seal := fs.Int("seal", 0, "export -live: seal at every multiple of N events (0: only at the end)")
	batch := fs.Int("batch", 0, "export -live: commit runs of up to N same-thread events as one batch (0: per-event)")
	verify := fs.Bool("verify", false, "catalog: check every listed segment as recovery does (size, hash, header, full decode)")
	maxSegs := fs.Int("max", 0, "compact: CompactPolicy.MaxSegments, the tolerated segment count (0: compact unconditionally)")
	target := fs.Int64("target", 0, "compact: CompactPolicy.TargetBytes, the merged-tier size ceiling in bytes (0: one segment per epoch)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if err := checkBackend(*backendName); err != nil {
		fmt.Fprintf(os.Stderr, "mvc: %v\n", err)
		os.Exit(2)
	}

	// inspect and segments read binary artifacts, not a JSONL trace.
	if cmd == "inspect" {
		if err := inspect(os.Stdout, *logPath, *n); err != nil {
			fatal(err)
		}
		return
	}
	if cmd == "segments" {
		if err := segmentsCmd(os.Stdout, fs.Args(), *out, *n); err != nil {
			fatal(err)
		}
		return
	}
	if cmd == "catalog" {
		if err := catalogCmd(os.Stdout, fs.Args(), *verify); err != nil {
			fatal(err)
		}
		return
	}
	if cmd == "compact" {
		if err := compactCmd(os.Stdout, fs.Args(), *maxSegs, *target); err != nil {
			fatal(err)
		}
		return
	}
	// detect -live follows a spill directory's published catalog; the
	// trace-based detect below analyzes a recorded JSONL trace.
	if cmd == "detect" && *live {
		if *dir == "" {
			fatal(fmt.Errorf("detect -live needs -dir DIR (a spill directory)"))
		}
		if err := detectLive(os.Stdout, *dir, *follow, *window, *orderSpec); err != nil {
			fatal(err)
		}
		return
	}
	// recover -dir is durable-run recovery (reopen a spill directory); the
	// trace-based form below cuts a recovery line instead. Recovery that had
	// to quarantine damaged files still succeeds — the run is usable — but
	// exits with a distinct code so scripts can tell "clean" from "repaired
	// with losses set aside".
	if cmd == "recover" && *dir != "" {
		quarantined, err := recoverDir(os.Stdout, *dir)
		if err != nil {
			fatal(err)
		}
		if quarantined > 0 {
			os.Exit(exitQuarantined)
		}
		return
	}

	tr, err := loadTrace(*tracePath)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "analyze":
		err = analyze(os.Stdout, tr)
	case "timestamp":
		err = timestamp(os.Stdout, tr, *n)
	case "order":
		err = order(os.Stdout, tr, *i, *j)
	case "detect":
		err = detectCmd(os.Stdout, tr)
	case "recover":
		err = recover_(os.Stdout, tr, *fail)
	case "validate":
		err = validate(os.Stdout, tr)
	case "graph":
		err = graph(os.Stdout, tr)
	case "export":
		if *live {
			err = exportLive(os.Stdout, tr, *out, *format, *spillDir, *seal, *batch)
		} else {
			err = export(os.Stdout, tr, *out, *format)
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mvc {analyze|timestamp|order|detect|recover|validate|graph|export|inspect|segments|catalog|compact|spam|gen} [flags]")
	fmt.Fprintln(os.Stderr, "run 'mvc <command> -h' for command flags")
}

// spam is `mvc spam`, the load generator. Its flags bind straight into a
// loadgen.Config; -format means table, csv or json here, not a log encoding.
func spam(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvc spam", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg loadgen.Config
	fs.IntVar(&cfg.Threads, "threads", 4, "worker goroutines (tracker threads)")
	fs.IntVar(&cfg.Objects, "objects", 64, "shared objects")
	fs.Float64Var(&cfg.ReadFrac, "readfrac", 0.5, "fraction of measured ops that are reads")
	fs.DurationVar(&cfg.Duration, "duration", 2*time.Second, "measured-phase length (ignored with -ops)")
	fs.IntVar(&cfg.Warmup, "warmup", 1000, "warmup writes per worker before measuring")
	fs.IntVar(&cfg.Ops, "ops", 0, "measured ops per worker (deterministic mode; 0 = timed)")
	fs.IntVar(&cfg.Batch, "batch", 1, "ops per batched commit (1 = per-op Do)")
	fs.StringVar(&cfg.Dist, "dist", "uniform", "object distribution: uniform or zipf")
	fs.StringVar(&cfg.Store, "store", "", "spill directory: arms spilling, compaction and retention")
	fs.BoolVar(&cfg.Monitor, "monitor", false, "attach a live online monitor for the run")
	fs.Int64Var(&cfg.Seed, "seed", 1, "base RNG seed")
	format := fs.String("format", "table", "report format: table, csv or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := loadgen.Run(cfg)
	if err != nil {
		return err
	}
	return rep.Write(stdout, *format)
}

// gen is `mvc gen`: it generates a synthetic thread–object computation and
// writes it as a JSONL trace to -out (stdout by default), with a one-line
// summary on stderr.
func gen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mvc gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "uniform", "trace family")
	var cfg trace.Config
	fs.IntVar(&cfg.Threads, "threads", 50, "number of threads")
	fs.IntVar(&cfg.Objects, "objects", 50, "number of objects")
	fs.IntVar(&cfg.Events, "events", 1000, "number of operations")
	fs.Float64Var(&cfg.ReadFraction, "reads", 0, "fraction of read operations")
	seed := fs.Int64("seed", 1, "RNG seed")
	out := fs.String("out", "-", "output file (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*workload)
	if err != nil {
		return err
	}
	tr, err := trace.Generate(w, cfg, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	dst := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *out, err)
		}
		defer f.Close()
		dst = f
	}
	if err := tr.WriteJSONL(dst); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "mvc gen: %v\n", tr.Summarize())
	return nil
}

// lookupWorkload resolves a -workload name against the generator families.
func lookupWorkload(name string) (trace.Workload, error) {
	for _, w := range trace.Workloads() {
		if w.String() == name {
			return w, nil
		}
	}
	return 0, fmt.Errorf("unknown workload %q", name)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mvc: %v\n", err)
	os.Exit(1)
}

func loadTrace(path string) (*event.Trace, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	tr, err := event.ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	return tr, nil
}

func analyze(w io.Writer, tr *event.Trace) error {
	stats := tr.Summarize()
	fmt.Fprintf(w, "trace: %v\n", stats)

	a := core.AnalyzeTrace(tr)
	if err := a.Verify(); err != nil {
		return err
	}
	fmt.Fprintf(w, "bipartite graph: %v\n", a.Graph)
	fmt.Fprintf(w, "maximum matching: %d edges\n", a.Matching.Size())
	fmt.Fprintf(w, "minimum vertex cover: %v\n", a.Cover)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "clock sizes:\n")
	fmt.Fprintf(w, "  thread-based:   %d\n", stats.Threads)
	fmt.Fprintf(w, "  object-based:   %d\n", stats.Objects)
	cc := baseline.NewChainClock()
	clock.Run(tr, cc)
	fmt.Fprintf(w, "  chain:          %d\n", cc.Components())
	oc := core.NewOnlineMixedClock(core.Popularity{})
	clock.Run(tr, oc)
	fmt.Fprintf(w, "  online (pop.):  %d\n", oc.Components())
	fmt.Fprintf(w, "  mixed (optimal): %d\n", a.VectorSize())
	fmt.Fprintf(w, "savings vs best classical clock: %d components\n", a.Savings())
	return nil
}

func timestamp(w io.Writer, tr *event.Trace, n int) error {
	a := core.AnalyzeTrace(tr)
	mc := a.NewClock()
	stamps := clock.Run(tr, mc)
	if err := mc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "components: %v\n", a.Components)
	limit := tr.Len()
	if n > 0 && n < limit {
		limit = n
	}
	for i := 0; i < limit; i++ {
		fmt.Fprintf(w, "%4d %v %v\n", i, tr.At(i), stamps[i])
	}
	if limit < tr.Len() {
		fmt.Fprintf(w, "... (%d more; use -n 0 for all)\n", tr.Len()-limit)
	}
	return nil
}

func order(w io.Writer, tr *event.Trace, i, j int) error {
	if i < 0 || j < 0 || i >= tr.Len() || j >= tr.Len() {
		return fmt.Errorf("order needs -i and -j in [0, %d)", tr.Len())
	}
	stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
	rel := "concurrent with"
	switch {
	case stamps[i].Less(stamps[j]):
		rel = "happened before"
	case stamps[j].Less(stamps[i]):
		rel = "happened after"
	}
	fmt.Fprintf(w, "event %d %v %s event %d %v\n", i, tr.At(i), rel, j, tr.At(j))
	fmt.Fprintf(w, "  %v vs %v\n", stamps[i], stamps[j])
	return nil
}

func detectCmd(w io.Writer, tr *event.Trace) error {
	fmt.Fprintf(w, "census: %v\n", detect.TakeCensus(tr))
	pairs := detect.ScheduleSensitivePairs(tr)
	fmt.Fprintf(w, "schedule-sensitive pairs: %d\n", len(pairs))
	for k, p := range pairs {
		if k >= 20 {
			fmt.Fprintf(w, "  ... (%d more)\n", len(pairs)-20)
			break
		}
		fmt.Fprintf(w, "  %v\n", p)
	}
	return nil
}

// detectLive attaches the online analyses to a spill directory: a
// tlog.DirCursor follows the published catalog and replays newly sealed
// records through the streaming census over an hb.Recent window of the last
// -window stamps, the exact schedule-sensitive pair scanner, and the
// optional -order watch — the Monitor's types, driven the same way. The
// owning tracker is never touched — sealed segments are immutable and the
// catalog is rewritten by atomic rename — so commits continue while this
// runs. With -follow it polls until the catalog is marked Closed;
// otherwise one pass over what is currently published.
//
// The -order names resolve against the catalog's resume manifest before
// each poll, so a watch on objects registered before the first seal (the
// normal case) is armed for every record; an object first named in a later
// generation is watched from the poll that sees that generation.
func detectLive(w io.Writer, dir string, follow bool, window int, orderSpec string) error {
	var firstName, secondName string
	if orderSpec != "" {
		parts := strings.SplitN(orderSpec, ",", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return fmt.Errorf("-order wants FIRST,SECOND object names, got %q", orderSpec)
		}
		firstName, secondName = parts[0], parts[1]
	}
	cur := tlog.NewDirCursor(dir)
	var census detect.CensusAccumulator
	recent := hb.NewRecent(window)
	scanner := detect.NewPairScanner()
	firstObj, secondObj := event.ObjectID(-1), event.ObjectID(-1)
	var (
		haveFirst  bool
		firstEv    event.Event
		firstEpoch int
		firstStamp vclock.Vector // reused buffer
		detections int
	)
	sink := func(e event.Event, epoch int, v vclock.Vector) error {
		if e.Index != recent.Hi() {
			// The first record, or a gap the cursor skipped below a new
			// retention floor: restart the window and the latest-record
			// state, as the Monitor does.
			recent.Reset()
			scanner.Reset()
			haveFirst = false
		}
		census.Add(recent, e.Index, epoch, v)
		if p, ok := scanner.Add(e, epoch, v); ok {
			detections++
			fmt.Fprintf(w, "pair: %v <lock-only> %v (epoch %d, index %d)\n", p.First, p.Second, epoch, e.Index)
		}
		if e.Op != event.OpWrite || firstObj < 0 {
			return nil
		}
		// Compare against the previous first-match before updating it, so
		// FIRST==SECOND degenerates sanely. Cross-epoch matches are ordered
		// by the compaction barrier and never flag.
		if e.Object == secondObj && haveFirst && firstEpoch == epoch && firstStamp.Concurrent(v) {
			detections++
			fmt.Fprintf(w, "order: [%s,%s] %v (epoch %d, index %d) concurrent with %v (epoch %d, index %d)\n",
				firstName, secondName, e, epoch, e.Index, firstEv, firstEpoch, firstEv.Index)
		}
		if e.Object == firstObj {
			haveFirst, firstEv, firstEpoch = true, e, epoch
			firstStamp = append(firstStamp[:0], v...)
		}
		return nil
	}
	total := 0
	for {
		if orderSpec != "" && firstObj < 0 {
			if cat, err := readDirCatalog(w, dir); err == nil && cat.Resume != nil {
				fo := objectByName(cat.Resume.Objects, firstName)
				so := objectByName(cat.Resume.Objects, secondName)
				if fo >= 0 && so >= 0 {
					firstObj, secondObj = fo, so
				} else if cat.Closed {
					return fmt.Errorf("-order: objects %q,%q not both in the catalog's name table %v", firstName, secondName, cat.Resume.Objects)
				}
			}
		}
		cat, n, err := cur.Poll(sink)
		if err != nil {
			return err
		}
		total += n
		if cat != nil && cat.Closed {
			fmt.Fprintln(w, "run closed")
			break
		}
		if !follow {
			break
		}
		time.Sleep(cur.NextDelay())
	}
	if orderSpec != "" && firstObj < 0 {
		return fmt.Errorf("-order: objects %q,%q never appeared in the catalog's name table", firstName, secondName)
	}
	fmt.Fprintf(w, "consumed %d sealed events (cursor at %d", total, cur.Next())
	if cur.Skipped() > 0 {
		fmt.Fprintf(w, "; %d below the retention floor skipped", cur.Skipped())
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "census: %v", census.Census())
	if census.Skipped() > 0 {
		fmt.Fprintf(w, " (+%d pairs beyond the %d-event window)", census.Skipped(), window)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "schedule-sensitive pairs: %d\n", scanner.Count())
	fmt.Fprintf(w, "detections: %d\n", detections)
	return nil
}

// readDirCatalog reads a spill directory's catalog through the reader
// recovery uses, noting on w when catalog.json was torn and the previous
// generation was read from catalog.json.prev instead.
func readDirCatalog(w io.Writer, dir string) (*tlog.Catalog, error) {
	c, usedPrev, err := tlog.ReadCatalog(vfs.OS, dir)
	if usedPrev {
		fmt.Fprintf(w, "%s is torn; read the previous generation from %s\n", tlog.CatalogFileName, tlog.CatalogPrevFileName)
	}
	return c, err
}

// objectByName resolves an object name through the resume manifest's dense
// name table; -1 if absent.
func objectByName(names []string, name string) event.ObjectID {
	for i, n := range names {
		if n == name {
			return event.ObjectID(i)
		}
	}
	return -1
}

func recover_(w io.Writer, tr *event.Trace, fail int) error {
	if fail < 0 {
		return fmt.Errorf("recover needs -fail in [0, %d)", tr.Len())
	}
	stamps := clock.Run(tr, core.AnalyzeTrace(tr).NewClock())
	line, err := cut.RecoveryLine(tr, stamps, fail)
	if err != nil {
		return err
	}
	contaminated, err := cut.Contaminated(stamps, fail)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "failure at event %d %v\n", fail, tr.At(fail))
	fmt.Fprintf(w, "contaminated events: %d of %d\n", len(contaminated), tr.Len())
	fmt.Fprintf(w, "recovery line: %v (%d events survive)\n", line, line.Size())
	return nil
}

// exitQuarantined is `mvc recover -dir`'s exit code when recovery succeeded
// but set damaged files aside: distinct from 0 (clean) and 1 (failure) so
// operators can script on "repaired, inspect the quarantine".
const exitQuarantined = 3

// recoverDir reopens a spill directory through the durable-run recovery path
// (track.Open) and reports what came back: the resumed epoch and trace index,
// the retention floor, quarantined files, and overall health. The reopened
// run is then closed cleanly, so the directory is left with a repaired,
// Closed catalog generation. It returns how many files recovery quarantined;
// main turns a non-zero count into exitQuarantined.
func recoverDir(w io.Writer, dir string) (quarantined int, err error) {
	t, err := track.Open(dir)
	if err != nil {
		return 0, err
	}
	ri := t.Recovery()
	if ri == nil {
		t.Close()
		return 0, fmt.Errorf("%s: no recovery performed (in-memory tracker?)", dir)
	}
	fmt.Fprintf(w, "recovered %s\n", dir)
	fmt.Fprintf(w, "  events:    %d sealed; committing resumes at index %d\n", ri.Events, ri.Events)
	fmt.Fprintf(w, "  epoch:     %d\n", ri.Epoch)
	fmt.Fprintf(w, "  segments:  %d adopted, catalog generation %d\n", ri.Segments, ri.Generation)
	if ri.RetainedFloor > 0 {
		fmt.Fprintf(w, "  retention: events below %d retired\n", ri.RetainedFloor)
	}
	shutdown := "crash (no Close marker; unsealed suffix lost)"
	if ri.CleanClose {
		shutdown = "clean Close"
	}
	fmt.Fprintf(w, "  shutdown:  %s\n", shutdown)
	if ri.UsedPrevCatalog {
		fmt.Fprintln(w, "  catalog:   torn; fell back to the previous generation")
	}
	for _, q := range ri.Quarantined {
		fmt.Fprintf(w, "  quarantined: %s\n", q)
	}
	fmt.Fprintf(w, "  registry:  %d threads, %d objects\n", len(t.Threads()), len(t.Objects()))
	if herr := t.Err(); herr != nil {
		fmt.Fprintf(w, "health: DEGRADED: %v\n", herr)
	} else {
		fmt.Fprintln(w, "health: ok")
	}
	if err := t.Close(); err != nil {
		return len(ri.Quarantined), err
	}
	fmt.Fprintln(w, "closed cleanly; catalog republished")
	return len(ri.Quarantined), nil
}

// validate proves every clock scheme correct on the given trace — handy
// when hand-editing traces or porting logs between versions.
func validate(w io.Writer, tr *event.Trace) error {
	analysis := core.AnalyzeTrace(tr)
	if err := analysis.Verify(); err != nil {
		return err
	}
	schemes := []clock.Timestamper{
		analysis.NewClock(),
		core.NewOnlineMixedClock(core.Popularity{}),
		core.NewOnlineMixedClock(core.NewHybrid()),
		baseline.NewThreadClock(tr.Threads(), tr.Objects()),
		baseline.NewObjectClock(tr.Threads(), tr.Objects()),
		baseline.NewChainClock(),
	}
	for _, ts := range schemes {
		if _, err := clock.RunAndValidate(tr, ts); err != nil {
			return err
		}
		fmt.Fprintf(w, "ok  %-28s %d components\n", ts.Name(), ts.Components())
	}
	fmt.Fprintf(w, "all schemes valid on %d events (%d pair checks each)\n",
		tr.Len(), tr.Len()*(tr.Len()-1)/2)
	return nil
}

// graph emits Graphviz DOT with the minimum vertex cover filled, like the
// paper's Fig. 2.
func graph(w io.Writer, tr *event.Trace) error {
	a := core.AnalyzeTrace(tr)
	return a.Graph.WriteDOT(w, a.Cover.Threads, a.Cover.Objects)
}

// export timestamps the trace with the optimal mixed clock and writes the
// binary log. The delta format streams the clock's change capture straight
// into the writer — no full vector is materialized per event on the way to
// disk.
func export(w io.Writer, tr *event.Trace, out, format string) error {
	if out == "" {
		return fmt.Errorf("export needs -out")
	}
	if format != "full" && format != "delta" {
		return fmt.Errorf("export: unknown -format %q (want full or delta)", format)
	}
	a := core.AnalyzeTrace(tr)
	mc := a.NewClock()
	var stamps []vclock.Vector
	if format == "full" {
		// Timestamp before touching the filesystem, so a clock error
		// leaves no file behind (and clobbers nothing).
		stamps = clock.Run(tr, mc)
		if err := mc.Err(); err != nil {
			return err
		}
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	write := func() error {
		if format == "full" {
			return tlog.WriteAll(f, tr, stamps)
		}
		lw := tlog.NewDeltaWriter(f)
		var scratch []vclock.Delta
		for i := 0; i < tr.Len(); i++ {
			e := tr.At(i)
			var ticks int
			scratch, ticks = mc.TimestampDelta(e, scratch[:0])
			if err := lw.AppendDelta(e, scratch, ticks); err != nil {
				return err
			}
		}
		if err := mc.Err(); err != nil {
			return err
		}
		return lw.Flush()
	}
	if err := write(); err != nil {
		// The delta path streams as it timestamps, so an error can leave a
		// partial log; don't leave it lying around to be mistaken for a
		// good one.
		f.Close()
		os.Remove(out)
		return err
	}
	fmt.Fprintf(w, "wrote %d timestamped events (%d components, %s format) to %s\n",
		tr.Len(), a.VectorSize(), format, out)
	return nil
}

// checkBackend is the -backend gate of every command. Every clock is a flat
// vector, so only flat (the default) passes; it stays accepted so existing
// scripts keep working.
func checkBackend(name string) error {
	if name == "flat" {
		return nil
	}
	return fmt.Errorf("-backend %s is not supported: the tree clock was removed and every clock is a flat vector; "+
		"-backend accepts only flat", name)
}

// exportLive replays the trace through the live tracker's epoch-segment
// pipeline and streams the log out of it: the tracker's online mechanism
// discovers the components, sealed segments (and the tail) feed the log
// writer record by record, and no vector table is ever built. With -spill
// the run's sealed history also lands as .mvcseg files for mvc segments.
// With -batch N, runs of consecutive same-thread events commit as one
// batch of up to N operations (identical stamps, amortized synchronization).
func exportLive(w io.Writer, tr *event.Trace, out string, format, spillDir string, seal, batch int) error {
	if out == "" {
		return fmt.Errorf("export needs -out")
	}
	if format != "full" && format != "delta" {
		return fmt.Errorf("export: unknown -format %q (want full or delta)", format)
	}
	if spillDir != "" {
		// Open would recover a previous run's directory and splice its
		// history into this export; refuse instead.
		if _, err := os.Stat(filepath.Join(spillDir, track.CatalogFileName)); err == nil {
			return fmt.Errorf("export: -spill %s already holds a run (%s); choose an empty directory",
				spillDir, track.CatalogFileName)
		}
	}
	tracker, err := track.Open(spillDir, track.WithStore(track.Store{Spill: track.SpillPolicy{SealEvery: seal}}))
	if err != nil {
		return err
	}
	threads := make([]*track.Thread, tr.Threads())
	for i := range threads {
		threads[i] = tracker.NewThread(fmt.Sprintf("T%d", i+1))
	}
	objects := make([]*track.Object, tr.Objects())
	for i := range objects {
		objects[i] = tracker.NewObject(fmt.Sprintf("O%d", i+1))
	}
	if batch > 0 {
		// A Batch belongs to one thread, so flush at every thread change
		// (and at the size cap). Trace order is preserved exactly: the
		// replay is sequential and a flush commits everything accumulated
		// before the next event commits anything.
		var cur *track.Batch
		curThread := event.ThreadID(-1)
		for i := 0; i < tr.Len(); i++ {
			e := tr.At(i)
			if cur == nil || e.Thread != curThread || cur.Len() >= batch {
				if cur != nil {
					cur.Commit()
				}
				cur = threads[e.Thread].NewBatch()
				curThread = e.Thread
			}
			cur.Add(objects[e.Object], e.Op)
		}
		if cur != nil {
			cur.Commit()
		}
	} else {
		for i := 0; i < tr.Len(); i++ {
			e := tr.At(i)
			threads[e.Thread].Do(objects[e.Object], e.Op, nil)
		}
	}
	// Close seals the remaining tail — this is what "-seal 0: only at the
	// end" promises, and it is what puts the final events into -spill DIR,
	// under a catalog marked closed. Reads keep working after Close.
	if err := tracker.Close(); err != nil {
		return err
	}
	if err := tracker.Err(); err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	write := func() error {
		if format == "delta" {
			return tracker.SnapshotTo(f)
		}
		lw := tlog.NewWriter(f)
		if err := tracker.Stream(fullVectorSink{lw}); err != nil {
			return err
		}
		return lw.Flush()
	}
	if err := write(); err != nil {
		// The stream writes as it decodes, so an error can leave a partial
		// log; don't leave it lying around to be mistaken for a good one.
		f.Close()
		os.Remove(out)
		return err
	}
	segs := tracker.Segments()
	spilled := 0
	for _, sg := range segs {
		if sg.Path != "" {
			spilled++
		}
	}
	fmt.Fprintf(w, "wrote %d timestamped events (%d components, %s format, live pipeline) to %s\n",
		tracker.Events(), tracker.Size(), format, out)
	fmt.Fprintf(w, "sealed %d segments (%d spilled to %s)\n", len(segs), spilled, spillDisplay(spillDir))
	return nil
}

func spillDisplay(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}

// fullVectorSink adapts the full-format log writer to the tracker's stream.
type fullVectorSink struct{ w *tlog.Writer }

func (s fullVectorSink) ConsumeStamp(e event.Event, _ int, v vclock.Vector) error {
	return s.w.Append(e, v)
}

// expandSegmentArgs resolves segments arguments: a directory stands
// for its *.mvcseg files (sorted by name, i.e. by first index under the
// spill naming scheme), anything else is taken as a segment file. The
// catalog and other non-segment files a spill directory carries are skipped
// by the suffix filter.
func expandSegmentArgs(args []string) ([]string, error) {
	var files []string
	for _, arg := range args {
		fi, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			files = append(files, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.mvcseg"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	return files, nil
}

// segRef addresses one segment inside a (possibly multi-segment) spill
// file without holding its records: the byte offset recorded by the scan
// pass lets later passes seek straight to it instead of re-decoding the
// segments before it. size is the container's byte count and kinds its
// records by payload kind, both from the scan pass.
type segRef struct {
	path   string
	offset int64
	size   int64
	meta   tlog.SegmentMeta
	kinds  tlog.RecordKinds
}

// countReader counts bytes handed to the bufio layer, so the scan pass can
// compute each segment's file offset as consumed-minus-buffered.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// withSegment reopens ref's file at the segment's offset and hands the
// record iterator to fn.
func withSegment(ref segRef, fn func(*tlog.SegmentReader) error) error {
	f, err := os.Open(ref.path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(ref.offset, io.SeekStart); err != nil {
		return fmt.Errorf("%s: %w", ref.path, err)
	}
	sr, err := tlog.NewSegmentReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", ref.path, err)
	}
	return fn(sr)
}

// segmentsCmd inspects .mvcseg spill files (as left behind by a
// track.SpillPolicy or export -live -spill) and, with -out, merges them
// back into a single delta log readable by mvc inspect. Files are read one
// length-framed segment at a time into one reused buffer, and records
// stream through one at a time in both modes — the whole point of the
// spill files is that history needn't fit in memory, and inspecting them
// must not undo that: memory stays bounded by the largest segment.
func segmentsCmd(w io.Writer, args []string, out string, n int) error {
	files, err := expandSegmentArgs(args)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("segments needs at least one .mvcseg file or a spill directory (spill files are seg-*.mvcseg)")
	}
	// Scan pass: collect segment metas and offsets, checking every record
	// as a full decode would (without rebuilding stamps) so corruption
	// surfaces before any output is produced.
	var refs []segRef
	sr := new(tlog.SegmentReader)
	sr.SkipStamps()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		cr := &countReader{r: f}
		br := bufio.NewReader(cr)
		for {
			offset := cr.n - int64(br.Buffered())
			err := sr.Reset(br)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("%s: %w", path, err)
			}
			for i := 0; ; i++ {
				if _, _, err := sr.Next(); err == io.EOF {
					break
				} else if err != nil {
					f.Close()
					return fmt.Errorf("%s: record %d: %w", path, i, err)
				}
			}
			refs = append(refs, segRef{path: path, offset: offset, size: cr.n - int64(br.Buffered()) - offset,
				meta: sr.Meta(), kinds: sr.RecordKinds()})
		}
		f.Close()
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].meta.FirstIndex < refs[j].meta.FirstIndex })
	// Continuity check: interior gaps AND a missing prefix warn — without
	// the warning a merge of a partial spill set would silently renumber
	// events (the log format does not carry indices).
	next, total := 0, 0
	for _, ref := range refs {
		if ref.meta.FirstIndex < next {
			return fmt.Errorf("segments overlap: %v begins inside the previous one", ref.meta)
		}
		if ref.meta.FirstIndex > next {
			fmt.Fprintf(w, "warning: gap before %v (events %d-%d missing)\n",
				ref.meta, next, ref.meta.FirstIndex-1)
		}
		next = ref.meta.FirstIndex + ref.meta.Count
		total += ref.meta.Count
	}

	if out == "" {
		for _, ref := range refs {
			k := ref.kinds
			fmt.Fprintf(w, "%s: %v, %d events, %.1f B/event (%d full, %d delta, %d derived-explicit, %d derived-implied)\n",
				ref.path, ref.meta, ref.meta.Count, float64(ref.size)/float64(max(ref.meta.Count, 1)),
				k.Full, k.Delta, k.Derived-k.Implied, k.Implied)
			limit := ref.meta.Count
			if n > 0 && n < limit {
				limit = n
			}
			err := withSegment(ref, func(sr *tlog.SegmentReader) error {
				for i := 0; i < limit; i++ {
					e, v, err := sr.Next()
					if err != nil {
						return err
					}
					fmt.Fprintf(w, "  %4d %v %v\n", e.Index, e, v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if limit < ref.meta.Count {
				fmt.Fprintf(w, "  ... (%d more; use -n 0 for all)\n", ref.meta.Count-limit)
			}
		}
		fmt.Fprintf(w, "%d segments, %d events total\n", len(refs), total)
		return nil
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	lw := tlog.NewDeltaWriter(f)
	for _, ref := range refs {
		err := withSegment(ref, func(sr *tlog.SegmentReader) error {
			for {
				e, v, err := sr.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if err := lw.Append(e, v); err != nil {
					return err
				}
			}
		})
		if err != nil {
			f.Close()
			os.Remove(out)
			return err
		}
	}
	if err := lw.Flush(); err != nil {
		f.Close()
		os.Remove(out)
		return err
	}
	fmt.Fprintf(w, "merged %d segments (%d events) into %s\n", len(refs), total, out)
	return nil
}

// catalogCmd prints a spill directory's segment catalog — the document
// external log shippers poll — and, with -verify, runs recovery's check on
// every listed segment file (size, SHA-256, header against the entry, full
// decode), so -verify passes exactly when Open would adopt every listed
// segment. The argument is the spill directory or its catalog.json; a torn
// catalog.json is read from its .prev copy, as recovery reads it.
func catalogCmd(w io.Writer, args []string, verify bool) error {
	if len(args) != 1 {
		return fmt.Errorf("catalog needs one spill directory or catalog.json path")
	}
	dir := args[0]
	if filepath.Base(dir) == tlog.CatalogFileName {
		dir = filepath.Dir(dir)
	}
	c, err := readDirCatalog(w, dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "catalog generation %d: %d segments, %d sealed events\n",
		c.Generation, len(c.Segments), c.SealedEvents)
	if c.Closed {
		fmt.Fprintln(w, "run closed cleanly")
	}
	if c.RetainedEvents > 0 {
		fmt.Fprintf(w, "retention floor: events below %d retired\n", c.RetainedEvents)
	}
	if c.Resume != nil {
		fmt.Fprintf(w, "resume manifest: epoch %d, %d threads, %d objects, %d components\n",
			c.Resume.Epoch, len(c.Resume.Threads), len(c.Resume.Objects), len(c.Resume.Components))
	}
	if c.Health != "" {
		fmt.Fprintf(w, "health: %s\n", c.Health)
	}
	if c.AutoSealDisarmed {
		fmt.Fprintln(w, "auto-sealing: DISARMED by a spill failure (explicit Seal or Compact re-arms)")
	}
	bad, checked := 0, 0
	for i, sg := range c.Segments {
		where := sg.Path
		if where == "" {
			where = "(in memory)"
		}
		fmt.Fprintf(w, "%4d epoch %d, events [%d,%d], %d bytes  %s\n",
			i, sg.Epoch, sg.FirstIndex, sg.FirstIndex+sg.Events-1, sg.Bytes, where)
		if !verify || sg.Path == "" {
			continue
		}
		checked++
		if _, err := tlog.VerifySegment(vfs.OS, dir, sg, nil); err != nil {
			fmt.Fprintf(w, "     BAD: %v\n", err)
			bad++
		}
	}
	if verify {
		// Retention invariant: coverage is gapless starting exactly at the
		// floor (Decode already validated ordering; restate the floor check
		// here so a hand-edited catalog is reported, not just rejected).
		if len(c.Segments) > 0 && c.Segments[0].FirstIndex != c.RetainedEvents {
			fmt.Fprintf(w, "RETENTION MISMATCH: floor is %d but coverage starts at %d\n",
				c.RetainedEvents, c.Segments[0].FirstIndex)
			bad++
		}
		// Shipper cursor invariants, when a shipper has run against this
		// directory: the cursor can never be ahead of the catalog, and a
		// retention floor above it means events were retired unshipped.
		if cf, err := os.Open(filepath.Join(dir, tlog.ShipCursorFileName)); err == nil {
			cur, cerr := tlog.DecodeShipCursor(cf)
			cf.Close()
			switch {
			case cerr != nil:
				fmt.Fprintf(w, "shipper cursor: INVALID: %v\n", cerr)
				bad++
			case cur.Generation > c.Generation:
				fmt.Fprintf(w, "shipper cursor: AHEAD of catalog: generation %d > %d (catalog restored from backup?)\n",
					cur.Generation, c.Generation)
				bad++
			case cur.ShippedEvents > c.SealedEvents:
				fmt.Fprintf(w, "shipper cursor: AHEAD of catalog: %d events shipped, only %d sealed\n",
					cur.ShippedEvents, c.SealedEvents)
				bad++
			case cur.ShippedEvents < c.RetainedEvents:
				fmt.Fprintf(w, "shipper cursor: RETENTION OUTRAN SHIPPING: events [%d,%d) were retired unshipped\n",
					cur.ShippedEvents, c.RetainedEvents)
				bad++
			default:
				fmt.Fprintf(w, "shipper cursor: generation %d, %d events shipped\n",
					cur.Generation, cur.ShippedEvents)
			}
		} else if !os.IsNotExist(err) {
			return err
		}
		if bad > 0 {
			return fmt.Errorf("%d verification checks failed", bad)
		}
		fmt.Fprintf(w, "verified %d segment files against the catalog", checked)
		if skipped := len(c.Segments) - checked; skipped > 0 {
			fmt.Fprintf(w, " (%d in-memory segments not verifiable)", skipped)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// compactCmd tier-compacts a spill directory offline by running the
// tracker's own pass over it: Open recovers the run, CompactSegments merges
// runs of adjacent small single-epoch segments under the given policy (the
// planner and merge a live tracker uses, so the merged files are
// byte-identical to its own), and Close publishes the final catalog
// generation. Every write is the store's crash-safe one: a merged file is
// synced and renamed before the catalog that lists it is published, and its
// sources are removed only after. Only for directories no live tracker is
// spilling into. A directory without a readable catalog is refused: Open
// would quarantine every segment file in it.
func compactCmd(w io.Writer, args []string, maxSegs int, target int64) error {
	if len(args) != 1 {
		return fmt.Errorf("compact needs one spill directory")
	}
	dir := args[0]
	if _, err := readDirCatalog(w, dir); err != nil {
		return fmt.Errorf("compact needs a spill directory with a catalog: %w (merge bare segment files with mvc segments -out)", err)
	}
	t, err := track.Open(dir)
	if err != nil {
		return err
	}
	for _, q := range t.Recovery().Quarantined {
		fmt.Fprintf(w, "quarantined: %s\n", q)
	}
	before := len(t.Catalog().Segments)
	eliminated, err := t.CompactSegments(track.CompactPolicy{MaxSegments: maxSegs, TargetBytes: target})
	if cerr := t.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if eliminated == 0 {
		fmt.Fprintf(w, "nothing to compact: %d segments already within policy\n", before)
		return nil
	}
	fmt.Fprintf(w, "compacted %d segments into %d\n", before, before-eliminated)
	return nil
}

// inspect reads a binary log, printing records and tolerating truncation.
func inspect(w io.Writer, path string, n int) error {
	if path == "" {
		return fmt.Errorf("inspect needs -log")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, stamps, err := tlog.ReadAll(f)
	truncated := false
	if err != nil {
		if !errors.Is(err, tlog.ErrTruncated) {
			return err
		}
		truncated = true
	}
	limit := tr.Len()
	if n > 0 && n < limit {
		limit = n
	}
	for i := 0; i < limit; i++ {
		fmt.Fprintf(w, "%4d %v %v\n", i, tr.At(i), stamps[i])
	}
	if limit < tr.Len() {
		fmt.Fprintf(w, "... (%d more; use -n 0 for all)\n", tr.Len()-limit)
	}
	if truncated {
		fmt.Fprintf(w, "log truncated: %d complete records recovered\n", tr.Len())
	}
	if err := clock.Validate(tr, stamps, "log"); err != nil {
		return fmt.Errorf("recovered log failed validation: %w", err)
	}
	fmt.Fprintf(w, "validated %d events\n", tr.Len())
	return nil
}
