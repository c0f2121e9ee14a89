package sim_test

// API-contract tests for the pre-bound scheduling form added with the
// calendar engine (AtCall), for the timestamp-end hook and for the
// terminal Drain contract, on both engines.

import (
	"fmt"
	"slices"
	"testing"

	"cni/internal/sim"
)

// TestAtCall verifies the pre-bound form delivers the argument at the
// right time and orders with At by scheduling sequence.
func TestAtCall(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineCalendar, sim.EngineHeap} {
		k := sim.NewKernelWith(eng)
		var got []string
		k.AtCall(7, func(a any) { got = append(got, "call:"+a.(string)) }, "x")
		k.At(7, func() { got = append(got, "fn") })
		k.AtCall(3, func(a any) { got = append(got, a.(string)) }, "early")
		k.Run()
		if len(got) != 3 || got[0] != "early" || got[1] != "call:x" || got[2] != "fn" {
			t.Fatalf("%s: ran %v", eng, got)
		}
		if k.Now() != 7 {
			t.Fatalf("%s: final time %d, want 7", eng, k.Now())
		}
	}
}

// TestOnTimestampEnd pins the hook's contract: it runs after the last
// event of each timestamp and before the clock moves on, again after
// any event it schedules at the current time, and when the queue runs
// empty; under RunUntil, events it schedules inside the horizon run in
// the same call.
func TestOnTimestampEnd(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineCalendar, sim.EngineHeap} {
		k := sim.NewKernelWith(eng)
		var got []string
		note := func(s string) func() { return func() { got = append(got, s) } }
		k.At(5, note("e5a"))
		k.At(5, note("e5b"))
		k.At(9, note("e9"))
		late := true
		k.OnTimestampEnd(func() {
			got = append(got, fmt.Sprintf("end%d", k.Now()))
			if k.Now() == 9 && late {
				late = false
				k.At(9, note("e9late"))
				k.At(12, note("e12"))
			}
		})
		if end := k.Run(); end != 12 {
			t.Fatalf("%s: final time %d, want 12", eng, end)
		}
		want := []string{"end0", "e5a", "e5b", "end5", "e9", "end9", "e9late", "end9", "e12", "end12"}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ran %v, want %v", eng, got, want)
		}

		k = sim.NewKernelWith(eng)
		got = nil
		k.At(3, note("e3"))
		k.At(20, note("e20"))
		k.OnTimestampEnd(func() {
			if k.Now() == 3 {
				k.At(7, note("e7"))
			}
		})
		k.RunUntil(10)
		if want := []string{"e3", "e7"}; !slices.Equal(got, want) || k.Now() != 10 {
			t.Fatalf("%s: RunUntil(10) ran %v to t=%d, want %v to t=10", eng, got, k.Now(), want)
		}
	}
}

// TestDrainTerminal pins the post-Drain contract: Drain is idempotent,
// observers stay readable, and every scheduling or running entry point
// panics explicitly rather than silently running a half-torn-down
// simulation.
func TestDrainTerminal(t *testing.T) {
	for _, eng := range []sim.Engine{sim.EngineCalendar, sim.EngineHeap} {
		k := sim.NewKernelWith(eng)
		k.At(5, func() {})
		k.At(900000, func() {}) // parked on the calendar's overflow ladder
		p := k.SpawnAt("blocked", 0, func(pp *sim.Proc) {
			pp.WakeAt(1 << 40)
		})
		k.RunUntil(2)
		if k.Pending() == 0 {
			t.Fatalf("%s: expected pending events before Drain", eng)
		}
		k.Drain()
		if !k.Drained() {
			t.Fatalf("%s: Drained() false after Drain", eng)
		}
		if k.Pending() != 0 {
			t.Fatalf("%s: %d events survived Drain", eng, k.Pending())
		}
		k.Drain() // idempotent
		_, _, _ = k.Now(), k.Executed(), p.Name

		mustPanic(t, string(eng)+": At", func() { k.At(k.Now()+1, func() {}) })
		mustPanic(t, string(eng)+": AtCall", func() { k.AtCall(k.Now()+1, func(any) {}, nil) })
		mustPanic(t, string(eng)+": After", func() { k.After(1, func() {}) })
		mustPanic(t, string(eng)+": Run", func() { k.Run() })
		mustPanic(t, string(eng)+": RunUntil", func() { k.RunUntil(k.Now() + 10) })
	}
}
