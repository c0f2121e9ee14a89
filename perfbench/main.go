// Command perfbench is the repository's benchmark. It runs one
// workload on the simulator from outside, through the public functions
// of the internal packages, and measures two systems: the Go simulator
// in host seconds, and the simulated cluster in simulated cycles.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run executes the workload on inputs drawn from the seed, repeating
// them until the time is spent, checks every output, and prints a
// detail line and then, as its last line, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// README.md beside this file describes the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"cni/internal/atm"
	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/memsys"
	"cni/internal/nic"
	"cni/internal/sim"
)

// metric names a reported metric and its unit.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"sim_time_ms", "ms"},
	{"sim_goodput_rps", "1/s"},
}

// counterUnits are the per-layer counters read from the cluster's
// public statistics after each run; they repeat exactly for an input.
var counterUnits = []metric{
	{"sim.events", "count"},
	{"atm.cells", "count"},
	{"atm.hops", "count"},
	{"atm.port_wait_cycles", "cycles"},
	{"atm.link_wait_cycles", "cycles"},
	{"nic.interrupts", "count"},
	{"nic.tx_dmas", "count"},
	{"nic.filter_served", "count"},
	{"msgcache.tx_lookups", "count"},
	{"msgcache.tx_hit_ratio", "ratio"},
	{"msgcache.evictions", "count"},
	{"memsys.l2_accesses", "count"},
	{"memsys.l2_miss_ratio", "ratio"},
	{"dsm.faults", "count"},
	{"dsm.fetches", "count"},
	{"cluster.overhead_cycles", "cycles"},
	{"cluster.delay_cycles", "cycles"},
	{"cluster.computation_cycles", "cycles"},
	{"rpc.queue_peak", "count"},
	{"kv.gets", "count"},
	{"kv.board_hit_ratio", "ratio"},
	{"tenant.throttled", "count"},
}

// perLayer lists every metric of a traced run, in output order.
func perLayer() []metric {
	ms := []metric{
		{"cluster.new_s", "s"},
		{"atm.new_s", "s"},
		{"nic.boards_s", "s"},
		{"sim.run_s", "s"},
		{"sim.ns_per_event", "ns"},
		{"go.alloc_mb", "MB"},
		{"go.gc_cycles", "count"},
		{"go.gc_cpu_s", "s"},
		{"go.goroutines", "count"},
		{"go.sched_wait_p99_us", "us"},
		{"sim_p50_us", "us"},
		{"sim_p99_us", "us"},
		{"sim_latency_n", "count"},
		{"sim_miss_frac", "ratio"},
		{"bench.verify_s", "s"},
		{"bench.trace_overhead_frac", "ratio"},
		{"profile.total_s", "s"},
	}
	ms = append(ms, counterUnits...)
	for _, m := range modules {
		ms = append(ms, metric{m + ".self_s", "s"})
	}
	for _, b := range runtimeBuckets {
		ms = append(ms, metric{b.name, "s"})
	}
	return append(ms,
		metric{"runtime.other_self_s", "s"},
		metric{"bench.self_s", "s"},
		metric{"other.self_s", "s"})
}

// absent is what the result line reports for a value that does not
// exist on a workload (a percentile or ratio over zero samples): the
// line's values must be numbers, and -1 cannot be mistaken for a
// measurement. The detail line reports the same values as null.
const absent = -1

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	traced := flag.Int("trace", 0, "1 runs the traced, per-layer variant")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *traced)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	b := &bench{w: w, seed: uint64(*seed), sz: fullSizes, outs: make([]*outcome, w.subSeeds)}
	var res result
	var err error
	if *traced == 1 {
		res, err = b.tracedRun(budget)
	} else {
		res, err = b.untracedRun(budget)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]valued `json:"metrics"`
}

type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execRecord is what one execution measured on the host.
type execRecord struct {
	input                    int     // index of the input among the run's sub-seeds
	setup, run, verify       float64 // seconds
	cpu                      float64 // process CPU seconds over setup and run
	clusterNew               float64 // seconds inside cluster.New
	liveMB                   float64 // live heap after a forced GC, cluster reachable
	allocMB, gcCycles, gcCPU float64 // runtime/metrics deltas over setup and run
	goroutines, schedP99us   float64
	atmNew, boards           float64 // stand-alone constructor timings
	self                     map[string]float64
}

// span is one traced interval of the benchmark's own calls. Spans of
// one execution share its run id; times are seconds since the phase
// started.
type span struct {
	Run    int     `json:"run"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// bench is one benchmark run: a workload at a seed.
type bench struct {
	w      workload
	seed   uint64
	sz     sizes
	outs   []*outcome // the simulated outcome of each input, from its first execution
	mhz    float64    // simulated CPU cycles per microsecond
	failed int
	fails  []string
	spans  []span
}

// fail records a failed execution and, for the first few, why.
func (b *bench) fail(k int, why []string) {
	b.failed++
	if len(b.fails) < 8 {
		b.fails = append(b.fails, fmt.Sprintf("input %d: %s", k, strings.Join(why, "; ")))
	}
}

// phase executes inputs round-robin until at least minExecs executions
// have run and the budget is spent.
func (b *bench) phase(budget time.Duration, minExecs int, traced bool) ([]execRecord, error) {
	var recs []execRecord
	start := time.Now()
	for j := 0; j < minExecs || time.Since(start) < budget; j++ {
		rec, err := b.execute(j%b.w.subSeeds, traced, len(recs), start)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// execute runs input k once, measuring it, checking its output and
// comparing its simulated outcome with the first execution of k.
func (b *bench) execute(k int, traced bool, runID int, origin time.Time) (execRecord, error) {
	inst := b.w.make(subSeed(b.seed, k), b.sz)
	cfg, n := inst.config()
	b.mhz = float64(cfg.CPUFreqMHz)
	rec := execRecord{input: k, allocMB: nan, gcCycles: nan, gcCPU: nan,
		goroutines: nan, schedP99us: nan, atmNew: nan, boards: nan}
	mark := func(name, parent string, from, to time.Time) {
		if traced {
			b.spans = append(b.spans, span{runID, name, parent,
				from.Sub(origin).Seconds(), to.Sub(origin).Seconds()})
		}
	}
	runtime.GC() // every execution starts from a collected heap

	var prof bytes.Buffer
	var before []metrics.Sample
	var peak *peakGoroutines
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rec, fmt.Errorf("cpu profile: %w", err)
		}
		before = readGo()
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	hook := inst.prepare()
	t1 := time.Now()
	c, err := cluster.New(&cfg, n, hook)
	t2 := time.Now()
	if err != nil {
		pprof.StopCPUProfile()
		return rec, fmt.Errorf("%s: %w", b.w.name, err)
	}
	inst.attach(c)
	t3 := time.Now()
	if traced {
		peak = startPeak()
	}
	res := inst.run(c)
	t4 := time.Now()
	cpu1 := cpuSeconds()
	if traced {
		rec.goroutines = peak.stop()
		after := readGo()
		pprof.StopCPUProfile()
		rec.allocMB, rec.gcCycles, rec.gcCPU, rec.schedP99us = goDeltas(before, after)
		self, err := foldProfile(prof.Bytes())
		if err != nil {
			return rec, err
		}
		rec.self = self
	}
	tc := time.Now()
	checkErr := inst.check(c, res)
	t5 := time.Now()
	out := inst.outcome(c, res)
	runtime.GC()
	rec.liveMB = liveHeapMB()
	runtime.KeepAlive(c)

	rec.setup, rec.clusterNew = t3.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	rec.run, rec.verify = t4.Sub(t3).Seconds(), t5.Sub(tc).Seconds()
	rec.cpu = cpu1 - cpu0
	mark("setup", "", t0, t3)
	mark("cluster.New", "setup", t1, t2)
	mark("run", "", t3, t4)
	mark("verify", "", tc, t5)

	var why []string
	if checkErr != nil {
		why = append(why, checkErr.Error())
	}
	if first := b.outs[k]; first == nil {
		b.outs[k] = &out
	} else if first.digest != out.digest {
		why = append(why, fmt.Sprintf("digest %s differs from the first execution's %s", out.digest, first.digest))
	}
	if why != nil {
		b.fail(k, why)
	}
	if traced {
		c, res = nil, nil
		runtime.GC()
		p0 := time.Now()
		var err error
		rec.atmNew, rec.boards, err = probeConstructors(cfg, n)
		if err != nil {
			return rec, err
		}
		mark("probe", "", p0, time.Now())
	}
	return rec, nil
}

// probeConstructors times atm.New (or atm.NewSharded) and the n
// nic.NewBoard calls for the workload's configuration on their own:
// cluster.New makes the same calls but times them as one.
func probeConstructors(cfg config.Config, n int) (atmNew, boards float64, err error) {
	t0 := time.Now()
	var net *atm.Network
	if cfg.SimShards >= 1 {
		net, _, err = atm.NewSharded(&cfg, n, cfg.SimShards, sim.EngineCalendar)
	} else {
		net, err = atm.New(sim.NewKernel(), &cfg, n)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("probe: %w", err)
	}
	t1 := time.Now()
	for i := 0; i < n; i++ {
		nic.NewBoard(net.NodeKernel(i), &cfg, i, net, memsys.New(&cfg))
	}
	return t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), nil
}

// untracedRun measures the end-to-end metrics. Every input runs at
// least twice, so each run re-checks that its outputs repeat.
func (b *bench) untracedRun(budget time.Duration) (result, error) {
	recs, err := b.phase(budget, 2*b.w.subSeeds, false)
	if err != nil {
		return result{}, err
	}
	k := b.w.subSeeds
	vals := map[string]float64{
		"wall_s":       perInput(recs, k, func(r *execRecord) float64 { return r.setup + r.run }),
		"cpu_s":        perInput(recs, k, func(r *execRecord) float64 { return r.cpu }),
		"setup_s":      perInput(recs, k, func(r *execRecord) float64 { return r.setup }),
		"live_heap_mb": perInput(recs, k, func(r *execRecord) float64 { return r.liveMB }),
	}
	extra := b.addSim(vals)
	var walls []float64
	for _, r := range recs {
		walls = append(walls, r.setup+r.run)
	}
	extra["exec_wall_s_quartiles"] = quartiles(walls)
	b.detail(vals, extra)
	return b.result(len(recs), endToEnd, vals), nil
}

// tracedRun measures the per-layer metrics: half the budget runs
// untraced as the reference, half traced (CPU profile, runtime/metrics
// reads around each call, spans, a goroutine sampler and the
// stand-alone constructor probe).
func (b *bench) tracedRun(budget time.Duration) (result, error) {
	k := b.w.subSeeds
	plain, err := b.phase(budget/2, k, false)
	if err != nil {
		return result{}, err
	}
	recs, err := b.phase(budget/2, k, true)
	if err != nil {
		return result{}, err
	}
	per := func(f func(*execRecord) float64) float64 { return perInput(recs, k, f) }
	wall := func(r *execRecord) float64 { return r.setup + r.run }
	vals := map[string]float64{
		"cluster.new_s":             per(func(r *execRecord) float64 { return r.clusterNew }),
		"atm.new_s":                 per(func(r *execRecord) float64 { return r.atmNew }),
		"nic.boards_s":              per(func(r *execRecord) float64 { return r.boards }),
		"sim.run_s":                 per(func(r *execRecord) float64 { return r.run }),
		"go.alloc_mb":               per(func(r *execRecord) float64 { return r.allocMB }),
		"go.gc_cycles":              per(func(r *execRecord) float64 { return r.gcCycles }),
		"go.gc_cpu_s":               per(func(r *execRecord) float64 { return r.gcCPU }),
		"go.goroutines":             per(func(r *execRecord) float64 { return r.goroutines }),
		"go.sched_wait_p99_us":      per(func(r *execRecord) float64 { return r.schedP99us }),
		"bench.verify_s":            per(func(r *execRecord) float64 { return r.verify }),
		"bench.trace_overhead_frac": per(wall)/perInput(plain, k, wall) - 1,
	}
	extra := b.addSim(vals)
	vals["sim.ns_per_event"] = vals["sim.run_s"] * 1e9 / vals["sim.events"]
	// A profile holds few samples per execution, so self times are
	// means over the traced executions rather than medians.
	var total float64
	for _, m := range perLayer() {
		if strings.HasSuffix(m.name, "self_s") {
			var sum float64
			for _, r := range recs {
				sum += r.self[m.name]
			}
			vals[m.name] = sum / float64(len(recs))
			total += vals[m.name]
		}
	}
	vals["profile.total_s"] = total
	shares := map[string]float64{}
	for name, v := range vals {
		if total > 0 && strings.HasSuffix(name, "self_s") && v > 0 {
			shares[name] = math.Round(1000*v/total) / 1000
		}
	}
	extra["shares"], extra["spans"] = shares, b.spans
	b.detail(vals, extra)
	return b.result(len(plain)+len(recs), perLayer(), vals), nil
}

// addSim adds the simulated metrics, computed over exactly the run's
// inputs so that they repeat for a seed. It returns the entries for the
// detail line: each input's digest, and the latency percentiles with
// their sample counts.
func (b *bench) addSim(vals map[string]float64) map[string]any {
	cyclesPerSec := b.mhz * 1e6
	var span, units, issued, missed float64
	var lat []sim.Time
	var digests []string
	counters := map[string]float64{}
	for _, o := range b.outs {
		digests = append(digests, o.digest)
		span += float64(o.makespan)
		units += float64(o.units)
		issued += float64(o.issued)
		missed += float64(o.missed)
		lat = append(lat, o.lat...)
		for name, v := range o.counters {
			counters[name] += v / float64(len(b.outs))
		}
	}
	vals["sim_time_ms"] = span / float64(len(b.outs)) / cyclesPerSec * 1e3
	vals["sim_goodput_rps"] = units / (span / cyclesPerSec)
	lat = sortedCopy(lat)
	p50, p99 := percentile(lat, 50), percentile(lat, 99)
	p50.Value /= b.mhz
	p99.Value /= b.mhz
	for name, p := range map[string]pct{"sim_p50_us": p50, "sim_p99_us": p99} {
		vals[name] = nan
		if p.Valid {
			vals[name] = p.Value
		}
	}
	vals["sim_latency_n"] = float64(len(lat))
	vals["sim_miss_frac"] = nan
	if issued > 0 {
		vals["sim_miss_frac"] = missed / issued
	}
	for name, v := range counters {
		vals[name] = v
	}
	return map[string]any{"digests": digests, "sim_p50_us": p50, "sim_p99_us": p99}
}

// detail prints the run's detail line: the failures, every value
// (absent ones as null) and the extra entries.
func (b *bench) detail(vals map[string]float64, extra map[string]any) {
	clean := map[string]any{}
	for name, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			clean[name] = nil
		} else {
			clean[name] = v
		}
	}
	d := map[string]any{"workload": b.w.name, "seed": b.seed, "failures": b.fails, "values": clean}
	for k, v := range extra {
		d[k] = v
	}
	line, _ := json.Marshal(d) // every value is a JSON-encodable type
	fmt.Println(string(line))
	for _, f := range b.fails {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}
}

func (b *bench) result(attempted int, want []metric, vals map[string]float64) result {
	r := result{Correct: b.failed == 0, Attempted: attempted, Failed: b.failed,
		Metrics: map[string]valued{}}
	for _, m := range want {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = absent
		}
		r.Metrics[m.name] = valued{v, m.unit}
	}
	return r
}

// ---- host measurements ----------------------------------------------

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nan
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

var goMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readGo() []metrics.Sample {
	s := make([]metrics.Sample, len(goMetrics))
	for i, name := range goMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// goDeltas reports allocation (MB), GC cycles, GC CPU seconds and the
// p99 of scheduling latency (us, NaN without samples) between two
// readings of goMetrics.
func goDeltas(a, b []metrics.Sample) (allocMB, cycles, gcCPU, schedP99us float64) {
	allocMB = float64(b[0].Value.Uint64()-a[0].Value.Uint64()) / (1 << 20)
	cycles = float64(b[1].Value.Uint64() - a[1].Value.Uint64())
	gcCPU = b[2].Value.Float64() - a[2].Value.Float64()
	ha, hb := a[3].Value.Float64Histogram(), b[3].Value.Float64Histogram()
	var total uint64
	counts := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		counts[i] = hb.Counts[i] - ha.Counts[i]
		total += counts[i]
	}
	schedP99us = nan
	var cum uint64
	for i, c := range counts {
		cum += c
		if total > 0 && float64(cum) >= 0.99*float64(total) {
			// Report the bucket's upper edge (its lower edge if that is +Inf).
			edge := hb.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = hb.Buckets[i]
			}
			schedP99us = edge * 1e6
			break
		}
	}
	return
}

func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return nan
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakGoroutines samples the goroutine count every millisecond until
// stopped.
type peakGoroutines struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  int
}

func startPeak() *peakGoroutines {
	p := &peakGoroutines{done: make(chan struct{}), max: runtime.NumGoroutine() + 1}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-t.C:
				p.max = max(p.max, runtime.NumGoroutine())
			}
		}
	}()
	return p
}

// stop ends the sampler, waits for it and returns the peak it saw
// (excluding the sampler itself).
func (p *peakGoroutines) stop() float64 {
	close(p.done)
	p.wg.Wait()
	return float64(p.max - 1)
}
