package sim_test

// Differential tests: every randomized schedule is replayed on both
// scheduler engines — the calendar queue that production kernels run
// on, and the seed's binary heap kept as the reference implementation —
// and the two executions must agree on the exact (time, scheduling
// order) event sequence. This is the proof obligation behind swapping
// the engine without re-blessing the golden artifacts: if arbitrary
// adversarial schedules execute identically, the experiment suite's
// schedules do too.

import (
	"fmt"
	"math/rand"
	"testing"

	"cni/internal/sim"
)

// traceEntry records one executed event: the virtual time it ran at and
// the identity it was assigned when scheduled (ids are handed out in
// scheduling order, so equal traces mean equal (at, seq) total orders).
type traceEntry struct {
	t  sim.Time
	id uint64
}

// diffProgram drives one kernel through a pseudo-random schedule. All
// randomness is drawn in event-execution order from a seeded PRNG, so
// two engines that execute events in the same order see the same
// program; any divergence shows up as differing traces.
type diffProgram struct {
	k      *sim.Kernel
	rng    *rand.Rand
	trace  []traceEntry
	nextID uint64
	budget int // events still allowed to be scheduled
}

// tieDeltas is the delta menu: heavy on ties (0) and on the 25-cycle
// link-propagation quantum the calendar's bucket width was derived
// from, plus values straddling bucket (32) and window (32768)
// boundaries and far-future timers that must ride the overflow ladder.
var tieDeltas = []sim.Time{
	0, 0, 0, 0, 1, 25, 25, 31, 32, 33, 150, 1023, 1024, 4096,
	32767, 32768, 32769, 100000, 1 << 21,
}

func (p *diffProgram) delta() sim.Time {
	return tieDeltas[p.rng.Intn(len(tieDeltas))]
}

// scheduleOne schedules a single future event via a randomly chosen API
// form (At, AtCall, or a burst of consecutive At calls at one
// timestamp) and returns how many events it enqueued.
func (p *diffProgram) scheduleOne() int {
	if p.budget <= 0 {
		return 0
	}
	at := p.k.Now() + p.delta()
	switch p.rng.Intn(4) {
	case 0: // plain closure
		id := p.nextID
		p.nextID++
		p.budget--
		p.k.At(at, func() { p.onEvent(id) })
		return 1
	case 1: // pre-bound call form
		id := p.nextID
		p.nextID++
		p.budget--
		p.k.AtCall(at, p.onEventAny, id)
		return 1
	default: // burst of 1..6 same-timestamp events
		n := 1 + p.rng.Intn(6)
		if n > p.budget {
			n = p.budget
		}
		for i := 0; i < n; i++ {
			id := p.nextID
			p.nextID++
			p.k.At(at, func() { p.onEvent(id) })
		}
		p.budget -= n
		return n
	}
}

func (p *diffProgram) onEventAny(arg any) { p.onEvent(arg.(uint64)) }

// onEvent is every event's body: record the execution, then re-entrantly
// schedule 0..3 more events so the queue is mutated while draining
// (including inserts into the bucket currently being popped).
func (p *diffProgram) onEvent(id uint64) {
	p.trace = append(p.trace, traceEntry{t: p.k.Now(), id: id})
	for n := p.rng.Intn(4); n > 0; n-- {
		p.scheduleOne()
	}
}

// runSchedule executes the seeded program on the given engine and
// returns the trace plus the kernel's final clock and event count.
func runSchedule(engine sim.Engine, seed int64, budget int) ([]traceEntry, sim.Time, uint64) {
	p := &diffProgram{
		k:      sim.NewKernelWith(engine),
		rng:    rand.New(rand.NewSource(seed)),
		budget: budget,
	}
	for i := 0; i < 64; i++ {
		p.scheduleOne()
	}
	// Interleave RunUntil horizons with full Runs, with a Stop thrown
	// into the middle of one drain, before running to empty.
	p.k.RunUntil(p.k.Now() + 5000)
	p.k.At(p.k.Now()+7500, func() { p.k.Stop() })
	p.k.Run() // returns at the Stop event
	p.k.RunUntil(p.k.Now() + 40000)
	p.k.Run()
	return p.trace, p.k.Now(), p.k.Executed()
}

func compareTraces(t *testing.T, label string, cal, ref []traceEntry) {
	t.Helper()
	if len(cal) != len(ref) {
		t.Fatalf("%s: calendar executed %d events, heap %d", label, len(cal), len(ref))
	}
	for i := range cal {
		if cal[i] != ref[i] {
			t.Fatalf("%s: divergence at event %d: calendar ran (t=%d id=%d), heap ran (t=%d id=%d)",
				label, i, cal[i].t, cal[i].id, ref[i].t, ref[i].id)
		}
	}
	for i := 1; i < len(cal); i++ {
		if cal[i].t < cal[i-1].t {
			t.Fatalf("%s: time went backwards at event %d: %d after %d", label, i, cal[i].t, cal[i-1].t)
		}
	}
}

// TestDifferentialRandomSchedules replays large randomized schedules —
// heavy timestamp ties, re-entrant scheduling from event bodies, all
// three scheduling forms, RunUntil/Stop interleavings — on both engines
// and requires bit-identical execution.
func TestDifferentialRandomSchedules(t *testing.T) {
	seeds := 20
	budget := 12000
	if testing.Short() {
		seeds = 4
	}
	for s := 0; s < seeds; s++ {
		seed := int64(0x5EED + 7919*s)
		label := fmt.Sprintf("seed=%#x", seed)
		cal, calNow, calExec := runSchedule(sim.EngineCalendar, seed, budget)
		ref, refNow, refExec := runSchedule(sim.EngineHeap, seed, budget)
		compareTraces(t, label, cal, ref)
		if calNow != refNow || calExec != refExec {
			t.Fatalf("%s: final state differs: calendar (now=%d executed=%d), heap (now=%d executed=%d)",
				label, calNow, calExec, refNow, refExec)
		}
		if len(cal) < budget {
			t.Fatalf("%s: schedule too small: %d events (want %d)", label, len(cal), budget)
		}
	}
}

// TestDifferentialEventLimit verifies that SetEventLimit aborts both
// engines at the same event, with the identical trace prefix.
func TestDifferentialEventLimit(t *testing.T) {
	run := func(engine sim.Engine) (trace []traceEntry, panicked bool) {
		p := &diffProgram{
			k:      sim.NewKernelWith(engine),
			rng:    rand.New(rand.NewSource(99)),
			budget: 4000,
		}
		for i := 0; i < 64; i++ {
			p.scheduleOne()
		}
		p.k.SetEventLimit(500)
		func() {
			defer func() { panicked = recover() != nil }()
			p.k.Run()
		}()
		return p.trace, panicked
	}
	cal, calPanic := run(sim.EngineCalendar)
	ref, refPanic := run(sim.EngineHeap)
	if !calPanic || !refPanic {
		t.Fatalf("event limit: calendar panicked=%v, heap panicked=%v (want both)", calPanic, refPanic)
	}
	compareTraces(t, "event-limit", cal, ref)
}

// TestDifferentialDrain cuts a run short on both engines and verifies
// the engines agree on the abandoned state, that Drain is idempotent,
// and that both kernels reject reuse identically.
func TestDifferentialDrain(t *testing.T) {
	run := func(engine sim.Engine) (trace []traceEntry, pending int, k *sim.Kernel) {
		p := &diffProgram{
			k:      sim.NewKernelWith(engine),
			rng:    rand.New(rand.NewSource(7)),
			budget: 3000,
		}
		for i := 0; i < 64; i++ {
			p.scheduleOne()
		}
		p.k.At(p.k.Now()+20000, func() { p.k.Stop() })
		p.k.Run()
		return p.trace, p.k.Pending(), p.k
	}
	cal, calPend, calK := run(sim.EngineCalendar)
	ref, refPend, refK := run(sim.EngineHeap)
	compareTraces(t, "drain", cal, ref)
	if calPend != refPend {
		t.Fatalf("pending after Stop: calendar %d, heap %d", calPend, refPend)
	}
	if calPend == 0 {
		t.Fatal("schedule drained before Stop; Drain test needs pending events")
	}
	for _, k := range []*sim.Kernel{calK, refK} {
		k.Drain()
		k.Drain() // idempotent
		if !k.Drained() {
			t.Fatal("Drained() false after Drain")
		}
		if k.Pending() != 0 {
			t.Fatalf("pending %d after Drain", k.Pending())
		}
		// Clock and counters stay readable; scheduling and running panic.
		_ = k.Now()
		_ = k.Executed()
		mustPanic(t, "At after Drain", func() { k.At(k.Now(), func() {}) })
		mustPanic(t, "Run after Drain", func() { k.Run() })
		mustPanic(t, "RunUntil after Drain", func() { k.RunUntil(k.Now() + 1) })
	}
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	fn()
}
