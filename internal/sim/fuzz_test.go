package sim_test

// FuzzKernelSchedule interprets an arbitrary byte stream as a schedule
// program — (op, delta) pairs choosing between the kernel's scheduling
// and run operations — executes it on the calendar-queue engine and on
// the reference heap engine, and requires the two executions to be
// identical. The fuzzer therefore searches directly for any schedule
// on which the production engine diverges from the seed's.

import (
	"testing"

	"cni/internal/sim"
)

// fuzzMachine interprets one byte stream against one kernel. Event
// bodies consume bytes from the same stream (re-entrant scheduling), so
// the program a kernel sees depends on its execution order — which is
// exactly the property under test: identical order, identical program,
// identical trace.
type fuzzMachine struct {
	k      *sim.Kernel
	data   []byte
	pos    int
	trace  []traceEntry
	nextID uint64
	events int
}

// fuzzMaxEvents bounds the run so adversarial inputs terminate.
const fuzzMaxEvents = 1 << 14

// fuzzDeltas maps a delta byte to a time offset: tie-heavy, straddling
// the calendar's bucket (32) and window (32768) boundaries, with a few
// far-future rungs for the overflow ladder.
var fuzzDeltas = [16]sim.Time{
	0, 0, 1, 7, 25, 31, 32, 33, 150, 1000, 4095, 32767, 32768, 65536, 1 << 20, 1 << 26,
}

func (m *fuzzMachine) next() (byte, bool) {
	if m.pos >= len(m.data) {
		return 0, false
	}
	b := m.data[m.pos]
	m.pos++
	return b, true
}

func (m *fuzzMachine) delta(b byte) sim.Time { return fuzzDeltas[b&15] }

// schedule enqueues one event whose body records itself and interprets
// up to two more stream bytes as child schedules.
func (m *fuzzMachine) schedule(at sim.Time, useCall bool) {
	if m.events >= fuzzMaxEvents {
		return
	}
	m.events++
	id := m.nextID
	m.nextID++
	if useCall {
		m.k.AtCall(at, m.eventBody, id)
		return
	}
	m.k.At(at, func() { m.eventBody(id) })
}

func (m *fuzzMachine) eventBody(arg any) {
	m.trace = append(m.trace, traceEntry{t: m.k.Now(), id: arg.(uint64)})
	for i := 0; i < 2; i++ {
		b, ok := m.next()
		if !ok || b&3 == 0 {
			return
		}
		m.schedule(m.k.Now()+m.delta(b>>2), b&4 != 0)
	}
}

// run interprets the top-level stream. Ops: schedule (At / AtCall / a
// burst of At at one timestamp), RunUntil a horizon, Run to empty, and
// Stop-then-resume.
func (m *fuzzMachine) run() {
	for {
		op, ok := m.next()
		if !ok {
			break
		}
		d, ok := m.next()
		if !ok {
			break
		}
		at := m.k.Now() + m.delta(d)
		switch op % 6 {
		case 0, 1:
			m.schedule(at, false)
		case 2:
			m.schedule(at, true)
		case 3: // burst of 1..4 same-timestamp events
			n := int(d>>4)%4 + 1
			for i := 0; i < n && m.events < fuzzMaxEvents; i++ {
				id := m.nextID
				m.nextID++
				m.events++
				m.k.At(at, func() { m.eventBody(id) })
			}
		case 4:
			m.k.RunUntil(at)
		case 5: // stop mid-run, then resume
			if m.events < fuzzMaxEvents {
				m.k.At(at, m.k.Stop)
			}
			m.k.Run()
		}
	}
	m.k.Run()
	m.k.Drain()
}

func runFuzzSchedule(engine sim.Engine, data []byte) *fuzzMachine {
	m := &fuzzMachine{k: sim.NewKernelWith(engine), data: data}
	m.run()
	return m
}

func FuzzKernelSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 2, 1, 3, 255})
	f.Add([]byte{1, 11, 1, 11, 1, 11, 4, 9, 0, 0, 5, 3})
	// Window-boundary and overflow-heavy seeds.
	f.Add([]byte{0, 12, 0, 13, 0, 14, 0, 15, 4, 15, 2, 0, 3, 55, 5, 1})
	f.Add([]byte{3, 0x71, 3, 0x72, 3, 0x73, 4, 11, 0, 4, 2, 4, 5, 8, 1, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		cal := runFuzzSchedule(sim.EngineCalendar, data)
		ref := runFuzzSchedule(sim.EngineHeap, data)
		if len(cal.trace) != len(ref.trace) {
			t.Fatalf("calendar executed %d events, heap %d", len(cal.trace), len(ref.trace))
		}
		for i := range cal.trace {
			if cal.trace[i] != ref.trace[i] {
				t.Fatalf("divergence at event %d: calendar (t=%d id=%d), heap (t=%d id=%d)",
					i, cal.trace[i].t, cal.trace[i].id, ref.trace[i].t, ref.trace[i].id)
			}
		}
		if cal.k.Now() != ref.k.Now() || cal.k.Executed() != ref.k.Executed() {
			t.Fatalf("final state differs: calendar (now=%d executed=%d), heap (now=%d executed=%d)",
				cal.k.Now(), cal.k.Executed(), ref.k.Now(), ref.k.Executed())
		}
	})
}
