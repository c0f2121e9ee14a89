// Command experiments regenerates the tables and figures of the CNI
// paper's evaluation.
//
// Usage:
//
//	experiments [-quick] [-only T2,F14] [-procs 1,2,4,8] [-j N] [-shards N] [-progress=false] [-check FILE]
//
// Without flags it runs the full paper-scale suite (minutes); -quick
// shrinks the inputs to run in seconds. Output is plain text, one
// artifact after another, in paper order.
//
// The suite runs on the parallel harness: every artifact's independent
// simulation points fan across -j workers (default GOMAXPROCS) on one
// shared pool, points common to several artifacts execute once, and
// the rendered output is bit-identical to a sequential (-j 1) run.
// Progress (points done / planned, current artifact) streams to stderr
// while the run is live; Ctrl-C cancels the suite promptly.
//
// -shards N additionally splits each simulation point across N
// conservative-parallel kernel shards — a second, orthogonal axis of
// parallelism that is also bit-identical at any count. The two axes
// share the machine: jobs x shards is capped at GOMAXPROCS by reducing
// jobs, never shards (the effective split is printed at startup). DSM
// points clamp to the single kernel; serving and fabric points shard.
//
// -check FILE compares the rendered output with a committed rendering
// of the same selection (e.g. experiments_full.txt for the full suite)
// and exits 1 on any difference other than the "[ID ready after Ns]"
// timing lines, naming the first differing lines on stderr:
//
//	experiments -check experiments_full.txt > /dev/null
//
// -cpuprofile FILE and -memprofile FILE write pprof profiles of the
// run (CPU over the whole run, live heap at exit) for digging into
// where the harness and the kernels spend their time.
//
// With -benchjson FILE it instead runs the FS1 request-serving sweep
// and the FS2 KV-serving goodput points and writes a machine-readable
// summary (sustained throughput and p50/p99 per FS1 operating point;
// goodput, victim p99 and cache hit ratio per FS2 point) for
// trajectory tracking, plus BENCH_sim.json in the same directory — the
// simulator's own wall time and kernel events/sec over fixed
// representative legs:
//
//	experiments -quick -benchjson BENCH_rpc.json
//
// Regenerating either file replaces its current points but preserves
// the committed history of past revisions' numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cni"
)

// writeBenchJSON runs the FS1 serving sweep and the FS2 KV goodput
// points and writes them as a machine-readable summary for trajectory
// tracking across revisions, preserving the file's committed history
// the way BENCH_sim.json does. Alongside it (same directory) it writes
// BENCH_sim.json: the simulator's own wall time and kernel events/sec
// over fixed representative legs.
func writeBenchJSON(path string, o cni.ExpOptions) error {
	doc := rpcBenchDoc{Experiment: "FS1+FS2", Quick: o.Quick,
		Points: cni.BenchRPC(o), KVPoints: cni.BenchKV(o)}
	// A regeneration replaces the current points but preserves the
	// committed history. A file from before the history format (FS1
	// points only) becomes the trajectory's first era.
	if old, err := os.ReadFile(path); err == nil {
		var prev rpcBenchDoc
		if json.Unmarshal(old, &prev) == nil && len(prev.Points) > 0 {
			doc.History = prev.History
			if len(prev.History) == 0 && len(prev.KVPoints) == 0 {
				doc.History = []rpcBenchEra{{
					Label:  "FS1-only baseline, before the KV serving study",
					Quick:  prev.Quick,
					Points: prev.Points,
				}}
			}
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	simPath := filepath.Join(filepath.Dir(path), "BENCH_sim.json")
	simDoc := simBenchDoc{Experiment: "sim", Quick: o.Quick, Points: cni.BenchSim(o)}
	// A regeneration replaces the current points but preserves the
	// committed history: the trajectory of past revisions' numbers that
	// the pre/post comparison below is anchored on.
	if old, err := os.ReadFile(simPath); err == nil {
		var prev simBenchDoc
		if json.Unmarshal(old, &prev) == nil {
			simDoc.History = prev.History
		}
	}
	printSimSpeedup(simDoc)
	b, err = json.MarshalIndent(simDoc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(simPath, append(b, '\n'), 0o644)
}

// rpcBenchDoc is the BENCH_rpc.json layout: the run's own FS1 and FS2
// points plus the preserved history of earlier revisions' points.
type rpcBenchDoc struct {
	Experiment string              `json:"experiment"`
	Quick      bool                `json:"quick"`
	Points     []cni.RPCBenchPoint `json:"points"`
	KVPoints   []cni.KVBenchPoint  `json:"kv_points,omitempty"`
	History    []rpcBenchEra       `json:"history,omitempty"`
}

// rpcBenchEra is one committed trajectory entry of BENCH_rpc.json.
type rpcBenchEra struct {
	Label    string              `json:"label"`
	Quick    bool                `json:"quick"`
	Points   []cni.RPCBenchPoint `json:"points"`
	KVPoints []cni.KVBenchPoint  `json:"kv_points,omitempty"`
}

// simBenchDoc is the BENCH_sim.json layout: the run's own points plus
// the preserved history of earlier revisions' points.
type simBenchDoc struct {
	Experiment string              `json:"experiment"`
	Quick      bool                `json:"quick"`
	Points     []cni.SimBenchPoint `json:"points"`
	History    []simBenchEra       `json:"history,omitempty"`
}

// simBenchEra is one committed trajectory entry: the points a past
// revision measured, labeled with what that revision was.
type simBenchEra struct {
	Label  string              `json:"label"`
	Quick  bool                `json:"quick"`
	Points []cni.SimBenchPoint `json:"points"`
}

// printSimSpeedup emits the before/after kernel-throughput line for the
// speedup-gate leg: the committed pre-calendar baseline (history entry
// 0), the live reference-heap run, and the current calendar run.
func printSimSpeedup(doc simBenchDoc) {
	find := func(points []cni.SimBenchPoint, leg string) (cni.SimBenchPoint, bool) {
		for _, p := range points {
			if p.Leg == leg {
				return p, true
			}
		}
		return cni.SimBenchPoint{}, false
	}
	post, ok := find(doc.Points, cni.BenchLeg1024)
	if !ok {
		return
	}
	line := fmt.Sprintf("sim kernel %s: post=%.0f events/s (calendar)", cni.BenchLeg1024, post.EventsPerS)
	if ref, ok := find(doc.Points, cni.BenchLeg1024+"-refheap"); ok && ref.EventsPerS > 0 {
		line += fmt.Sprintf(", refheap=%.0f events/s (%.2fx)", ref.EventsPerS, post.EventsPerS/ref.EventsPerS)
	}
	if len(doc.History) > 0 {
		if pre, ok := find(doc.History[0].Points, cni.BenchLeg1024); ok && pre.EventsPerS > 0 {
			line += fmt.Sprintf(", pre=%.0f events/s (%s, %.2fx)",
				pre.EventsPerS, doc.History[0].Label, post.EventsPerS/pre.EventsPerS)
		}
	}
	fmt.Fprintln(os.Stderr, line)
	// The sharded legs: the same sweep split across kernel shards,
	// reported as speedup over the single kernel. On a one-core runner
	// these measure the windowing overhead instead of parallelism.
	shardLine := ""
	for _, n := range []int{1, 2, 4, 8} {
		if p, ok := find(doc.Points, fmt.Sprintf("%s-shards%d", cni.BenchLeg1024, n)); ok && p.EventsPerS > 0 {
			if shardLine == "" {
				shardLine = "sim kernel sharded:"
			}
			shardLine += fmt.Sprintf(" shards%d=%.0f events/s (%.2fx)", n, p.EventsPerS, p.EventsPerS/post.EventsPerS)
		}
	}
	if shardLine != "" {
		fmt.Fprintln(os.Stderr, shardLine)
	}
}

// progressPrinter renders the live points-done line on stderr. It is
// called from harness worker goroutines, so it locks.
type progressPrinter struct {
	mu      sync.Mutex
	live    bool // a progress line is on screen
	enabled bool
}

func (p *progressPrinter) update(ev cni.ExpProgress) {
	if !p.enabled {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(os.Stderr, "\r  %d/%d points [%s] ", ev.Done, ev.Total, ev.Spec)
	p.live = true
}

// clear erases the progress line so artifact output starts clean.
func (p *progressPrinter) clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live {
		fmt.Fprintf(os.Stderr, "\r%*s\r", 40, "")
		p.live = false
	}
}

func main() {
	quick := flag.Bool("quick", false, "scaled-down inputs (seconds instead of minutes)")
	only := flag.String("only", "", "comma-separated artifact ids to run (e.g. T2,F14)")
	procs := flag.String("procs", "", "override processor counts for scaling figures (e.g. 1,2,4,8)")
	jobs := flag.Int("j", 0, "simulation workers (0 = GOMAXPROCS; results identical at any value)")
	progress := flag.Bool("progress", true, "stream live point counts to stderr")
	benchjson := flag.String("benchjson", "", "write the FS1 serving benchmark summary as JSON to this file (e.g. BENCH_rpc.json) and exit")
	shards := flag.Int("shards", 0, "kernel shards per simulation point (0 = single kernel; results identical at any count)")
	check := flag.String("check", "", "compare the output with this committed rendering, ignoring ready-after lines; exit 1 on a difference")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	// run returns an exit code instead of calling os.Exit so the
	// profile writers below always get to flush.
	code := run(*quick, *only, *procs, *jobs, *shards, *progress, *benchjson, *check, *cpuprofile)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			code = 1
		} else {
			runtime.GC() // materialize the live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				code = 1
			}
			f.Close()
		}
	}
	os.Exit(code)
}

func run(quick bool, only, procsCSV string, jobs, shards int, progress bool, benchjson, check, cpuprofile string) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			return 2
		}
	}
	if shards < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -shards must be >= 0\n")
		return 2
	}
	var want []byte
	if check != "" {
		var err error
		if want, err = os.ReadFile(check); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -check: %v\n", err)
			return 2
		}
	}

	printer := &progressPrinter{enabled: progress}
	o := cni.ExpOptions{Quick: quick, Jobs: jobs, Shards: shards, Progress: printer.update}
	o, parallelism := o.EffectiveParallelism()
	fmt.Fprintf(os.Stderr, "experiments: %s\n", parallelism)
	if benchjson != "" {
		if err := writeBenchJSON(benchjson, o); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -benchjson: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", benchjson)
		return 0
	}
	if procsCSV != "" {
		for _, s := range strings.Split(procsCSV, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 1 || p > 32 {
				fmt.Fprintf(os.Stderr, "experiments: bad -procs entry %q\n", s)
				return 2
			}
			o.Procs = append(o.Procs, p)
		}
	}

	specs := cni.Experiments()
	if only != "" {
		var keep []cni.ExpSpec
		for _, id := range strings.Split(only, ",") {
			id = strings.TrimSpace(id)
			spec, ok := cni.FindExperiment(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown artifact %q\n", id)
				return 2
			}
			keep = append(keep, spec)
		}
		specs = keep
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One shared pool for the whole suite: points common to several
	// artifacts run once, and every artifact's points interleave across
	// the workers. Results stream out in paper order as each artifact's
	// final point lands.
	runner := cni.NewExperimentRunner(ctx, o)
	defer runner.Close()

	type outcome struct {
		out  string
		err  error
		took time.Duration
	}
	results := make([]chan outcome, len(specs))
	start := time.Now()
	for i, spec := range specs {
		results[i] = make(chan outcome, 1)
		go func(i int, spec cni.ExpSpec) {
			t0 := time.Now()
			out, err := runner.RunSpec(spec, o)
			results[i] <- outcome{out: out, err: err, took: time.Since(t0)}
		}(i, spec)
	}

	failed := false
	var rendered strings.Builder
	for i, spec := range specs {
		r := <-results[i]
		printer.clear()
		if r.err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "experiments: canceled: %v\n", ctx.Err())
				return 1
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", spec.ID, r.err)
			failed = true
			continue
		}
		out := fmt.Sprintf("%s  [%s ready after %.1fs]\n\n", r.out, spec.ID, r.took.Seconds())
		fmt.Print(out)
		rendered.WriteString(out)
	}
	printer.clear()
	if failed {
		return 1
	}
	_, total := runner.Counts()
	fmt.Fprintf(os.Stderr, "experiments: %d artifacts, %d points run, %d reused from memo, %.1fs\n",
		len(specs), total, runner.MemoHits(), time.Since(start).Seconds())
	if check != "" {
		if diffs := renderingDiff(rendered.String(), string(want)); len(diffs) > 0 {
			fmt.Fprintf(os.Stderr, "experiments: -check: output differs from %s:\n", check)
			for _, d := range diffs {
				fmt.Fprintf(os.Stderr, "  %s\n", d)
			}
			return 1
		}
		fmt.Fprintf(os.Stderr, "experiments: -check: output matches %s\n", check)
	}
	return 0
}

// readyLine matches the per-artifact timing line, the one part of a
// rendering that changes from run to run.
var readyLine = regexp.MustCompile(`^\s*\[\S+ ready after [^\]]*\]$`)

// maxDiffs bounds how many differing lines renderingDiff reports.
const maxDiffs = 10

// line is one line of a rendering with its 1-based line number.
type line struct {
	n    int
	text string
}

// renderingDiff compares two suite renderings line by line, ignoring
// ready-after lines, and describes the differences: the first few
// differing lines, then a count of the rest. It returns nil when the
// renderings match.
func renderingDiff(got, want string) []string {
	g, w := renderedLines(got), renderedLines(want)
	missing := line{text: "<missing>"}
	var diffs []string
	n := 0
	for i := 0; i < max(len(g), len(w)); i++ {
		gl, wl := missing, missing
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl.text == wl.text {
			continue
		}
		if n++; n <= maxDiffs {
			diffs = append(diffs, fmt.Sprintf("got line %d %q, want line %d %q", gl.n, gl.text, wl.n, wl.text))
		}
	}
	if n > maxDiffs {
		diffs = append(diffs, fmt.Sprintf("... %d more differing lines", n-maxDiffs))
	}
	return diffs
}

// renderedLines splits a rendering into numbered lines without its
// ready-after lines.
func renderedLines(s string) []line {
	var out []line
	for i, l := range strings.Split(s, "\n") {
		if !readyLine.MatchString(l) {
			out = append(out, line{i + 1, l})
		}
	}
	return out
}
