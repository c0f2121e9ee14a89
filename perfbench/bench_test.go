package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"cni/internal/cluster"
	"cni/internal/sim"
)

// smallSizes keeps every workload's instance well under a second.
var smallSizes = sizes{
	cholCols:    96,
	a2aNodes:    64,
	a2aRounds:   8,
	rpcRequests: 200,
	kvVictim:    100,
	kvAggressor: 100,
}

func TestPercentileNearestRank(t *testing.T) {
	var s []sim.Time
	for i := 1; i <= 1000; i++ {
		s = append(s, sim.Time(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		p := percentile(s, c.q)
		if !p.Valid || p.Value != c.want || p.N != 1000 {
			t.Errorf("p%g = %+v, want %g over 1000 samples", c.q, p, c.want)
		}
	}
	if p := percentile([]sim.Time{7}, 99); !p.Valid || p.Value != 7 || p.N != 1 {
		t.Errorf("p99 of one sample = %+v", p)
	}
	// 99% of 100 samples is rank 99 exactly, not 100.
	if p := percentile(s[:100], 99); p.Value != 99 {
		t.Errorf("p99 of 1..100 = %g, want 99", p.Value)
	}
}

func TestPercentileOfNothingIsAbsent(t *testing.T) {
	p := percentile(nil, 99)
	if p.Valid || p.N != 0 {
		t.Fatalf("percentile of no samples = %+v, want absent", p)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"value":null,"n":0}` {
		t.Errorf("absent percentile marshals as %s", b)
	}
	r := (&bench{}).result(1, []metric{{"sim_p99_us", "us"}}, map[string]float64{"sim_p99_us": nan})
	if v := r.Metrics["sim_p99_us"].Value; v != absent {
		t.Errorf("result line reports an absent percentile as %g, want %d", v, absent)
	}
}

func TestPerInputMeanOfMedians(t *testing.T) {
	recs := []execRecord{
		{input: 0, setup: 1}, {input: 0, setup: 3}, {input: 0, setup: 100},
		{input: 1, setup: 10},
		{input: 1, setup: nan},
	}
	if got := perInput(recs, 2, func(r *execRecord) float64 { return r.setup }); got != 6.5 {
		t.Errorf("perInput = %g, want mean(median(1,3,100), 10) = 6.5", got)
	}
	if got := perInput(nil, 2, func(r *execRecord) float64 { return r.setup }); !math.IsNaN(got) {
		t.Errorf("perInput of nothing = %g, want NaN", got)
	}
}

// profBuilder hand-encodes a pprof profile.
type profBuilder struct {
	buf     []byte
	strs    map[string]uint64
	strList []string
	nextID  uint64
}

func (p *profBuilder) varint(v uint64) []byte {
	var b []byte
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func (p *profBuilder) field(dst []byte, num int, data []byte) []byte {
	dst = append(dst, p.varint(uint64(num)<<3|2)...)
	dst = append(dst, p.varint(uint64(len(data)))...)
	return append(dst, data...)
}

func (p *profBuilder) uvarintField(dst []byte, num int, v uint64) []byte {
	dst = append(dst, p.varint(uint64(num)<<3)...)
	return append(dst, p.varint(v)...)
}

func (p *profBuilder) str(s string) uint64 {
	if p.strs == nil {
		p.strs = map[string]uint64{"": 0}
		p.strList = []string{""}
	}
	if i, ok := p.strs[s]; ok {
		return i
	}
	p.strs[s] = uint64(len(p.strList))
	p.strList = append(p.strList, s)
	return p.strs[s]
}

// sample adds one sample of ns nanoseconds with the given stack, leaf
// first; a frame with several names is one location with inlined
// functions, innermost first.
func (p *profBuilder) sample(ns uint64, stack ...[]string) {
	var locIDs []byte
	for _, frame := range stack {
		p.nextID++
		loc := p.uvarintField(nil, 1, p.nextID)
		for _, name := range frame {
			p.nextID++
			fn := p.uvarintField(nil, 1, p.nextID)
			fn = p.uvarintField(fn, 2, p.str(name))
			p.buf = p.field(p.buf, 5, fn)
			loc = p.field(loc, 4, p.uvarintField(nil, 1, p.nextID))
		}
		p.buf = p.field(p.buf, 4, loc)
		locIDs = append(locIDs, p.varint(p.nextID-uint64(len(frame)))...)
	}
	s := p.field(nil, 1, locIDs) // packed location ids
	s = p.uvarintField(s, 2, 1)  // unpacked values: count, then ns
	s = p.uvarintField(s, 2, ns)
	p.buf = p.field(p.buf, 2, s)
}

func (p *profBuilder) gz() []byte {
	raw := p.buf
	for _, s := range p.strList {
		raw = p.field(raw, 6, []byte(s))
	}
	var out bytes.Buffer
	w := gzip.NewWriter(&out)
	w.Write(raw)
	w.Close()
	return out.Bytes()
}

func TestFoldProfileByLeafModule(t *testing.T) {
	var p profBuilder
	f := func(names ...string) []string { return names }
	p.sample(1e9, f("cni/internal/dsm.(*Runtime).fault"), f("main.main"))
	p.sample(2e9, f("cni/internal/apps/spmat.Factor"))
	p.sample(3e9, f("runtime.memhash64"), f("runtime.mapaccess2_fast64"), f("cni/internal/memsys.(*Hierarchy).access"))
	p.sample(4e9, f("runtime.scanobject"), f("runtime.gcDrain"), f("runtime.gcBgMarkWorker"))
	p.sample(5e9, f("runtime.memclrNoHeapPointers", "runtime.mallocgc"), f("cni/internal/sim.(*Kernel).Run"))
	p.sample(6e9, f("runtime.futex"), f("runtime.futexsleep"), f("runtime.schedule"))
	// An inlined frame charges its innermost function.
	p.sample(7e9, f("cni/internal/atm.(*Network).walk", "cni/internal/nic.(*Board).Send"))
	p.sample(8e9, f("sort.insertionSort"))
	p.sample(9e9, f("main.(*fabric).run.func1"))
	p.sample(10e9, f("runtime.nanotime"))
	got, err := foldProfile(p.gz())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"dsm.self_s": 1, "apps.self_s": 2, "runtime.map_self_s": 3, "runtime.gc_self_s": 4,
		"runtime.alloc_self_s": 5, "runtime.sched_self_s": 6, "atm.self_s": 7,
		"other.self_s": 8, "bench.self_s": 9, "runtime.other_self_s": 10,
	}
	if len(got) != len(want) {
		t.Errorf("folded into %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
}

func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	if _, err := foldProfile(buf.Bytes()); err != nil {
		t.Fatalf("folding a runtime/pprof profile: %v", err)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("folding garbage succeeded")
	}
}

// runOnce executes one instance end to end, as the runner does.
func runOnce(t *testing.T, w workload, seed uint64) outcome {
	t.Helper()
	inst := w.make(seed, smallSizes)
	cfg, n := inst.config()
	c, err := cluster.New(&cfg, n, inst.prepare())
	if err != nil {
		t.Fatal(err)
	}
	inst.attach(c)
	res := inst.run(c)
	if err := inst.check(c, res); err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return inst.outcome(c, res)
}

func TestDigestRepeatsAndFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := runOnce(t, w, 1), runOnce(t, w, 1)
			if a.digest != b.digest || a.makespan != b.makespan {
				t.Errorf("two runs at seed 1 differ: %s/%d vs %s/%d", a.digest, a.makespan, b.digest, b.makespan)
			}
			if c := runOnce(t, w, 2); c.digest == a.digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", a.digest)
			}
			if a.units == 0 {
				t.Error("no completed work units")
			}
		})
	}
}

// broken wraps an instance and damages its output on demand.
type broken struct {
	instance
	execs    *int
	badCheck bool
}

func (b broken) check(c *cluster.Cluster, res *cluster.Result) error {
	if b.badCheck {
		return errors.New("injected check failure")
	}
	return b.instance.check(c, res)
}

func (b broken) outcome(c *cluster.Cluster, res *cluster.Result) outcome {
	o := b.instance.outcome(c, res)
	*b.execs++
	if *b.execs > 1 {
		o.digest = "changed"
	}
	return o
}

func TestRunnerCountsFailures(t *testing.T) {
	for _, badCheck := range []bool{false, true} {
		var execs int
		w := workload{name: "broken", subSeeds: 1, make: func(seed uint64, sz sizes) instance {
			return broken{newServeRPC(seed, sz), &execs, badCheck}
		}}
		b := &bench{w: w, seed: 1, sz: smallSizes, outs: make([]*outcome, 1)}
		res, err := b.untracedRun(0)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 // the second execution's digest differs from the first's
		if badCheck {
			want = 2 // both executions fail their check
		}
		if res.Attempted != 2 || res.Failed != want || res.Correct {
			t.Errorf("badCheck=%v: attempted %d failed %d correct %v, want 2/%d/false",
				badCheck, res.Attempted, res.Failed, res.Correct, want)
		}
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	w, _ := findWorkload("serve-kv")
	b := &bench{w: w, seed: 1, sz: smallSizes, outs: make([]*outcome, w.subSeeds)}
	res, err := b.tracedRun(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 2*w.subSeeds {
		t.Fatalf("traced run: correct %v attempted %d", res.Correct, res.Attempted)
	}
	for _, m := range perLayer() {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit {
			t.Errorf("%s missing or with unit %q", m.name, v.Unit)
		}
	}
	for _, name := range []string{"sim_p99_us", "kv.board_hit_ratio", "sim.events", "cluster.new_s"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %g on serve-kv, want > 0", name, v)
		}
	}
	if v := res.Metrics["dsm.faults"].Value; v != 0 {
		t.Errorf("dsm.faults = %g on serve-kv, want 0", v)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the metric lists in
// BENCHMARK.json and in this program the same.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the program %s/%s",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
