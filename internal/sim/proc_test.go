package sim

import (
	"runtime"
	"testing"
	"weak"
)

func TestProcAdvanceAndSync(t *testing.T) {
	k := NewKernel()
	var mid, end Time
	k.Spawn("p", func(p *Proc) {
		p.Advance(100)
		p.Sync()
		mid = k.Now()
		p.Advance(50)
		p.Sync()
		end = k.Now()
	})
	k.Run()
	if mid != 100 || end != 150 {
		t.Fatalf("sync times = %d, %d; want 100, 150", mid, end)
	}
}

func TestProcSyncExecutesInterveningEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(50, func() { order = append(order, "event@50") })
	k.Spawn("p", func(p *Proc) {
		p.Advance(100)
		p.Sync()
		order = append(order, "proc@100")
	})
	k.Run()
	if len(order) != 2 || order[0] != "event@50" || order[1] != "proc@100" {
		t.Fatalf("order = %v", order)
	}
}

func TestProcBlockWake(t *testing.T) {
	k := NewKernel()
	var blockedFor, resumedAt Time
	p := k.Spawn("sleeper", func(p *Proc) {
		p.Advance(10)
		blockedFor = p.Block()
		resumedAt = k.Now()
	})
	k.At(500, func() { p.Wake() })
	k.Run()
	if resumedAt != 500 {
		t.Fatalf("resumed at %d, want 500", resumedAt)
	}
	if blockedFor != 490 {
		t.Fatalf("Block returned %d, want 490", blockedFor)
	}
	if p.BlockedTime != 490 {
		t.Fatalf("BlockedTime = %d, want 490", p.BlockedTime)
	}
}

func TestProcWakeBeforeBlockIsBuffered(t *testing.T) {
	// A reply that arrives while the proc is still syncing toward its
	// block point must not be lost.
	k := NewKernel()
	var blockedFor Time = -1
	p := k.Spawn("p", func(p *Proc) {
		p.Advance(1000) // runs ahead; the wake event fires at t=10
		blockedFor = p.Block()
	})
	k.At(10, func() { p.Wake() })
	k.Run()
	if blockedFor != 0 {
		t.Fatalf("Block returned %d, want 0 (wake token buffered)", blockedFor)
	}
	if !p.Finished() {
		t.Fatal("proc did not finish")
	}
}

func TestProcWakeAtClampsToProcClock(t *testing.T) {
	k := NewKernel()
	var resumedAt Time
	p := k.Spawn("p", func(p *Proc) {
		p.Block()
		resumedAt = k.Now()
	})
	// Wake stamped in the past relative to kernel time at the wake event.
	k.At(100, func() { p.WakeAt(5) })
	k.Run()
	if resumedAt != 100 {
		t.Fatalf("resumed at %d, want clamp to 100", resumedAt)
	}
}

func TestProcPenaltyFoldsAtSync(t *testing.T) {
	k := NewKernel()
	var end Time
	p := k.Spawn("victim", func(p *Proc) {
		p.Advance(1000)
		p.Sync()
		end = k.Now()
	})
	// An interrupt at t=200 steals 40 cycles from the CPU; the victim's
	// 1000-cycle computation must finish at 1040.
	k.At(200, func() { p.AddPenalty(40) })
	k.Run()
	if end != 1040 {
		t.Fatalf("computation finished at %d, want 1040", end)
	}
	if p.PenaltyTime != 40 {
		t.Fatalf("PenaltyTime = %d, want 40", p.PenaltyTime)
	}
}

func TestProcWaitUntil(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Spawn("p", func(p *Proc) {
		p.WaitUntil(300)
		at1 = k.Now()
		p.WaitUntil(100) // already past: no-op
		at2 = k.Now()
	})
	k.Run()
	if at1 != 300 || at2 != 300 {
		t.Fatalf("WaitUntil times = %d, %d; want 300, 300", at1, at2)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for _, n := range []string{"a", "b"} {
			n := n
			step := Time(10)
			if n == "b" {
				step = 15
			}
			k.Spawn(n, func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.Advance(step)
					p.Sync()
					order = append(order, n)
				}
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("runs produced %d and %d steps, want 8", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic interleaving: %v vs %v", a, b)
		}
	}
	// a syncs at 10,20,30,40; b at 15,30,45,60. At t=30 b wins the tie:
	// b scheduled its resume event at t=15, before a scheduled its at 20.
	want := []string{"a", "b", "a", "b", "a", "a", "b", "b"}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("interleaving = %v, want %v", a, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel()
	var started Time = -1
	k.SpawnAt("late", 777, func(p *Proc) { started = k.Now() })
	k.Run()
	if started != 777 {
		t.Fatalf("proc started at %d, want 777", started)
	}
}

func TestDrainUnblocksParkedProcs(t *testing.T) {
	k := NewKernel()
	finished, deferred := false, false
	p := k.Spawn("stuck", func(p *Proc) {
		defer func() { deferred = true }()
		p.Block() // nobody will wake it
		finished = true
	})
	k.At(100, func() { k.Stop() })
	k.Run()
	if p.Finished() || deferred {
		t.Fatal("proc should still be blocked before drain")
	}
	k.Drain()
	if finished {
		t.Fatal("killed proc must not run its continuation")
	}
	if !deferred {
		t.Fatal("Drain returned before the killed body's deferred calls ran")
	}
	if !p.Finished() {
		t.Fatal("drained proc should be marked finished")
	}
}

type procBoom struct{ n int }

// TestProcPanicPropagates checks that a panic in a proc body other than
// a kill surfaces, with its original value, from Kernel.Run, and from
// ShardSet.Run attributed to the proc's shard.
func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Advance(10)
		p.Sync()
		panic(procBoom{7})
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != (procBoom{7}) {
		t.Fatalf("Kernel.Run panicked with %v, want %v", got, procBoom{7})
	}
	k.Drain()

	ss := NewShardSet(2, EngineCalendar)
	ss.SetLookahead(5)
	ss.Kernel(1).Spawn("p", func(p *Proc) {
		p.Advance(10)
		p.Sync()
		panic(procBoom{9})
	})
	got = func() (r any) {
		defer func() { r = recover() }()
		ss.Run()
		return nil
	}()
	if want := "sim: shard 1: {9}"; got != want {
		t.Fatalf("ShardSet.Run panicked with %v, want %q", got, want)
	}
	ss.Drain()
}

// TestDrainLeavesNoGoroutines checks that finished and killed procs
// hold no goroutine once Run and Drain have returned.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	for i := 0; i < 8; i++ {
		k.Spawn("p", func(p *Proc) {
			p.Advance(Time(10 * i))
			p.Sync()
			if i%2 == 0 {
				p.Block() // nobody will wake it
			}
		})
	}
	k.Run()
	k.Drain()
	// Fewer is fine: goroutines an earlier test left (shard workers
	// retiring after ShardSet.Run) may exit in between.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Run and Drain, want at most %d", after, before)
	}
}

// spawnHolding spawns a proc whose body captures a fresh object, and
// returns a weak pointer to that object. With block set the body parks
// forever and must be killed.
func spawnHolding(k *Kernel, block bool) weak.Pointer[[64]int] {
	buf := new([64]int)
	k.Spawn("p", func(p *Proc) {
		p.Advance(1)
		p.Sync()
		if block {
			p.Block()
		}
		buf[0]++
	})
	return weak.Make(buf)
}

// TestEndedProcReleasesCaptures checks that a proc that finished, or
// was killed, keeps nothing its body captured reachable: the kernel
// keeps every Proc, so a retained body would pin its captures for the
// whole simulation.
func TestEndedProcReleasesCaptures(t *testing.T) {
	k := NewKernel()
	done := spawnHolding(k, false)
	killed := spawnHolding(k, true)
	k.Run()
	runtime.GC()
	if done.Value() != nil {
		t.Fatal("finished proc still references its body's captures")
	}
	k.Drain()
	runtime.GC()
	if killed.Value() != nil {
		t.Fatal("killed proc still references its body's captures")
	}
	runtime.KeepAlive(k)
}

func TestProcBlockedAccountingAcrossMultipleBlocks(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Block()
		}
	})
	k.At(10, func() { p.Wake() })
	k.At(30, func() { p.Wake() })
	k.At(60, func() { p.Wake() })
	k.Run()
	if p.BlockedTime != 60 {
		t.Fatalf("BlockedTime = %d, want 60 (10+20+30)", p.BlockedTime)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	k := NewKernel()
	panicked := false
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Advance(-1)
	})
	k.Run()
	if !panicked {
		t.Fatal("Advance(-1) did not panic")
	}
}
