package sim_test

// Kernel microbenchmarks, each run on both engines so `go test -bench
// Kernel` prints the calendar-versus-heap comparison directly:
//
//   - Sparse: events spread widely in time (little bucket sharing),
//   - Tied: bursts of same-timestamp events (the hop-walk pattern),
//   - FarFuture: timers landing beyond the calendar window, exercising
//     the overflow ladder (retransmit-timer pattern).
//
// BenchmarkProcHandoff measures the kernel-to-proc round trip every
// Sync and every Block/WakeAt pays.
//
// TestCalendarSteadyStateAllocs pins down the "allocation-free hot
// loop" claim: after warm-up, scheduling and draining events on the
// calendar engine allocates nothing.

import (
	"testing"

	"cni/internal/sim"
)

var benchSink sim.Time

func nopEvent() {}

func benchEngines(b *testing.B, run func(b *testing.B, engine sim.Engine)) {
	for _, eng := range []sim.Engine{sim.EngineCalendar, sim.EngineHeap} {
		b.Run(string(eng), func(b *testing.B) { run(b, eng) })
	}
}

// BenchmarkKernelSparse schedules batches of events spread across many
// buckets and drains them.
func BenchmarkKernelSparse(b *testing.B) {
	benchEngines(b, func(b *testing.B, eng sim.Engine) {
		k := sim.NewKernelWith(eng)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := k.Now()
			for j := sim.Time(0); j < 64; j++ {
				k.At(now+1+j*37, nopEvent)
			}
			benchSink = k.Run()
		}
	})
}

// BenchmarkKernelTied schedules bursts of simultaneous events — the
// cells-of-one-PDU pattern — and drains them.
func BenchmarkKernelTied(b *testing.B) {
	benchEngines(b, func(b *testing.B, eng sim.Engine) {
		k := sim.NewKernelWith(eng)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := k.Now()
			for j := 0; j < 128; j++ {
				k.At(now+25, nopEvent)
			}
			benchSink = k.Run()
		}
	})
}

// BenchmarkKernelFarFuture mixes near events with timers far past the
// calendar window, forcing the overflow ladder and its migrations.
func BenchmarkKernelFarFuture(b *testing.B) {
	benchEngines(b, func(b *testing.B, eng sim.Engine) {
		k := sim.NewKernelWith(eng)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := k.Now()
			for j := sim.Time(0); j < 32; j++ {
				k.At(now+1+j, nopEvent)
				k.At(now+1_000_000+j*50_000, nopEvent)
			}
			benchSink = k.Run()
		}
	})
}

// handoffWarmup is enough one-cycle round trips to cross the whole
// calendar window once, so every bucket slab is warm before timing.
const handoffWarmup = 1 << 15

// BenchmarkProcHandoff times one proc round trip per op: a Sync that
// must wait for its resume event, and a Block woken by a kernel-side
// WakeAt one cycle later. The timer starts after a warm-up inside the
// running proc, so allocs/op is the steady state's.
func BenchmarkProcHandoff(b *testing.B) {
	b.Run("sync", func(b *testing.B) {
		k := sim.NewKernel()
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < handoffWarmup; i++ {
				p.Advance(1)
				p.Sync()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Advance(1)
				p.Sync()
			}
			b.StopTimer()
		})
		benchSink = k.Run()
	})
	b.Run("block", func(b *testing.B) {
		k := sim.NewKernel()
		var p *sim.Proc
		wake := func() { p.WakeAt(k.Now()) }
		p = k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < handoffWarmup; i++ {
				k.At(k.Now()+1, wake)
				p.Block()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.At(k.Now()+1, wake)
				p.Block()
			}
			b.StopTimer()
		})
		benchSink = k.Run()
	})
}

// TestCalendarSteadyStateAllocs asserts the calendar engine's
// schedule-and-run loop is allocation-free once its bucket slabs are
// warm, for the plain and pre-bound scheduling forms.
func TestCalendarSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel()
	nopCall := func(any) {}
	work := func() {
		now := k.Now()
		for j := sim.Time(0); j < 16; j++ {
			k.At(now+1+j*25, nopEvent)
			k.AtCall(now+2+j*25, nopCall, nil)
		}
		k.Run()
	}
	// Warm the bucket slabs. Slab capacities keep growing for a while:
	// the clock advance per run is not a multiple of the bucket width,
	// so the event pattern cycles through alignment phases and each
	// phase's worst-case bucket must be seen before its slab stops
	// growing. Warm in rounds until a whole measured round allocates
	// nothing, then hold the kernel to it.
	avg := -1.0
	for round := 0; round < 40 && avg != 0; round++ {
		avg = testing.AllocsPerRun(2000, work)
	}
	if avg != 0 {
		t.Fatalf("calendar scheduling still allocating %.1f objects/run after warm-up, want 0", avg)
	}
	if avg = testing.AllocsPerRun(2000, work); avg != 0 {
		t.Fatalf("calendar steady-state scheduling allocated %.1f objects/run, want 0", avg)
	}
}
