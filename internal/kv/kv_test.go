package kv_test

import (
	"testing"

	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/kv"
	"cni/internal/nic"
	"cni/internal/rpc"
	"cni/internal/tenant"
)

func mustCluster(cfg *config.Config, n int) *cluster.Cluster {
	c, err := cluster.New(cfg, n, nil)
	if err != nil {
		panic(err)
	}
	return c
}

// threeKinds runs the subtest under all three interface models.
func threeKinds(t *testing.T, f func(t *testing.T, cfg config.Config)) {
	t.Run("cni", func(t *testing.T) { f(t, config.Default()) })
	t.Run("osiris", func(t *testing.T) { f(t, config.ForNIC(config.NICOsiris)) })
	t.Run("standard", func(t *testing.T) { f(t, config.Standard()) })
}

// TestClosedLoopGetSetDelete drives the full operation set against one
// server on every interface and pins the version sequence — which is
// also the basic staleness regression: the GET after each SET must see
// the post-SET version even where the pre-SET response was retained on
// the board.
func TestClosedLoopGetSetDelete(t *testing.T) {
	threeKinds(t, func(t *testing.T, cfg config.Config) {
		c := mustCluster(&cfg, 2)
		res := c.Run(func(w *dsm.Worker) {
			p, id := w.Proc(), w.Node()
			node := c.KV.Node(id)
			if id == 0 {
				node.StartServer(kv.ServerConfig{
					WorkQueue: 8, FreeBufs: 8, ValueBytes: 256, Clients: 1,
				})
				node.Serve(p)
				return
			}
			conn := node.Dial(0, 64, 0)
			steps := []struct {
				kind    kv.Kind
				out     kv.Outcome
				version uint64
			}{
				{kv.Get, kv.NotFound, 0},
				{kv.Set, kv.OK, 1},
				{kv.Get, kv.OK, 1},
				{kv.Get, kv.OK, 1}, // repeat: board-served on the CNI
				{kv.Set, kv.OK, 2},
				{kv.Get, kv.OK, 2}, // must not see the cached v1 response
				{kv.Del, kv.OK, 3},
				{kv.Get, kv.NotFound, 3},
			}
			for i, s := range steps {
				out, v := conn.Call(p, s.kind, 0, 42)
				if out != s.out || v != s.version {
					t.Errorf("step %d %v: got %v v%d, want %v v%d",
						i, s.kind, out, v, s.out, s.version)
				}
			}
			node.WaitIdle(p)
			node.Done(p)
		})
		if res.KV.Issued != 8 || res.KV.Completed != 8 {
			t.Fatalf("issued/completed = %d/%d, want 8/8", res.KV.Issued, res.KV.Completed)
		}
		if res.KV.Served+res.KV.BoardServed != 8 {
			t.Fatalf("served %d + board-served %d != 8 issued",
				res.KV.Served, res.KV.BoardServed)
		}
		if res.KV.Lat.Count != 8 {
			t.Fatalf("latency count = %d, want 8", res.KV.Lat.Count)
		}
	})
}

// TestNICCacheHitZeroHostCost is the acceptance test for the response
// cache's central claim: a repeat GET served by the board filter
// touches nothing on the server's host path. Between the two
// snapshots the only traffic at the server is the repeat GET, so every
// host-side board counter must hold still while the filter counters
// advance.
func TestNICCacheHitZeroHostCost(t *testing.T) {
	cfg := config.Default()
	c := mustCluster(&cfg, 2)
	var before, after nic.Stats
	var servedBefore, servedAfter, boardBefore, boardAfter uint64
	res := c.Run(func(w *dsm.Worker) {
		p, id := w.Proc(), w.Node()
		node := c.KV.Node(id)
		if id == 0 {
			node.StartServer(kv.ServerConfig{
				WorkQueue: 8, FreeBufs: 8, ValueBytes: 512, Clients: 1,
			})
			node.Serve(p)
			return
		}
		conn := node.Dial(0, 64, 0)
		if out, v := conn.Call(p, kv.Set, 0, 7); out != kv.OK || v != 1 {
			t.Errorf("SET: %v v%d", out, v)
		}
		if out, v := conn.Call(p, kv.Get, 0, 7); out != kv.OK || v != 1 {
			t.Errorf("warming GET: %v v%d", out, v)
		}
		srv := c.KV.Node(0)
		before = c.Nodes[0].Board.Stats
		servedBefore, boardBefore = srv.Stats.Served, srv.Stats.BoardServed
		if out, v := conn.Call(p, kv.Get, 0, 7); out != kv.OK || v != 1 {
			t.Errorf("repeat GET: %v v%d", out, v)
		}
		after = c.Nodes[0].Board.Stats
		servedAfter, boardAfter = srv.Stats.Served, srv.Stats.BoardServed
		node.WaitIdle(p)
		node.Done(p)
	})
	zero := []struct {
		name string
		d    uint64
	}{
		{"Interrupts", after.Interrupts - before.Interrupts},
		{"Polls", after.Polls - before.Polls},
		{"HostHandlers", after.HostHandlers - before.HostHandlers},
		{"TxDMAs", after.TxDMAs - before.TxDMAs},
		{"RxDMAs", after.RxDMAs - before.RxDMAs},
	}
	for _, z := range zero {
		if z.d != 0 {
			t.Errorf("cache hit cost %d server %s, want 0", z.d, z.name)
		}
	}
	if d := after.FilterServed - before.FilterServed; d != 1 {
		t.Errorf("FilterServed advanced by %d, want 1", d)
	}
	if servedAfter != servedBefore {
		t.Errorf("host Served advanced by %d on a cache hit", servedAfter-servedBefore)
	}
	if boardAfter != boardBefore+1 {
		t.Errorf("BoardServed advanced by %d, want 1", boardAfter-boardBefore)
	}
	if res.KV.BoardServed != 1 || res.KV.Inserts == 0 {
		t.Fatalf("board served %d (want 1), inserts %d (want >0)",
			res.KV.BoardServed, res.KV.Inserts)
	}
	if res.KVHit.Hist.Count != 1 || res.KVHost.Hist.Count != 1 {
		t.Fatalf("hit/host sample counts %d/%d, want 1/1",
			res.KVHit.Hist.Count, res.KVHost.Hist.Count)
	}
	if hit, host := res.KVHit.Percentile(50), res.KVHost.Percentile(50); hit >= host {
		t.Fatalf("board-served GET latency %d not below host-served %d", hit, host)
	}
}

// TestCacheHitTailBelowHostTail repeats a working set small enough to
// stay pinned: the board-served tail must sit below the host-served
// tail.
func TestCacheHitTailBelowHostTail(t *testing.T) {
	cfg := config.Default()
	c := mustCluster(&cfg, 2)
	const keys = 8
	res := c.Run(func(w *dsm.Worker) {
		p, id := w.Proc(), w.Node()
		node := c.KV.Node(id)
		if id == 0 {
			node.StartServer(kv.ServerConfig{
				WorkQueue: 16, FreeBufs: 16, ValueBytes: 256, ServiceGet: 800, Clients: 1,
			})
			node.Serve(p)
			return
		}
		conn := node.Dial(0, 64, 0)
		for k := 0; k < keys; k++ {
			conn.Call(p, kv.Set, 0, uint64(k))
		}
		for pass := 0; pass < 3; pass++ {
			for k := 0; k < keys; k++ {
				if out, _ := conn.Call(p, kv.Get, 0, uint64(k)); out != kv.OK {
					t.Errorf("pass %d key %d: %v", pass, k, out)
				}
			}
		}
		node.WaitIdle(p)
		node.Done(p)
	})
	if res.KVHost.Hist.Count != keys || res.KVHit.Hist.Count != 2*keys {
		t.Fatalf("host/hit samples %d/%d, want %d/%d: cache did not retain the working set",
			res.KVHost.Hist.Count, res.KVHit.Hist.Count, keys, 2*keys)
	}
	if hit, host := res.KVHit.Percentile(99), res.KVHost.Percentile(99); hit >= host {
		t.Fatalf("hit p99 %d not below host p99 %d", hit, host)
	}
}

// TestNoStaleReadsUnderConcurrentWrites hammers one key with open-loop
// GETs — keeping it board-cached and insert traffic flowing — while a
// second client writes it. The writer's read-after-write must observe
// its own SET/DELETE, never a pre-write response retained on the board.
func TestNoStaleReadsUnderConcurrentWrites(t *testing.T) {
	cfg := config.Default()
	c := mustCluster(&cfg, 3)
	const key = 5
	res := c.Run(func(w *dsm.Worker) {
		p, id := w.Proc(), w.Node()
		node := c.KV.Node(id)
		switch id {
		case 0:
			node.StartServer(kv.ServerConfig{
				WorkQueue: 32, FreeBufs: 16, ValueBytes: 256, ServiceGet: 500, Clients: 2,
			})
			node.Serve(p)
		case 1: // reader: paced open-loop GET stream on the contested key
			conn := node.Dial(0, 64, 0)
			p.Advance(5000)
			for i := 0; i < 300; i++ {
				p.Advance(400)
				p.Sync()
				conn.Fire(p, p.Local(), kv.Get, 0, key)
			}
			node.WaitIdle(p)
			node.Done(p)
		case 2: // writer: read-after-write checks in the middle of the stream
			conn := node.Dial(0, 64, 0)
			if out, v := conn.Call(p, kv.Set, 0, key); out != kv.OK || v != 1 {
				t.Errorf("first SET: %v v%d", out, v)
			}
			p.Advance(40000) // let the readers cache the v1 response
			p.Sync()
			if out, v := conn.Call(p, kv.Set, 0, key); out != kv.OK || v != 2 {
				t.Errorf("second SET: %v v%d", out, v)
			}
			if out, v := conn.Call(p, kv.Get, 0, key); out != kv.OK || v != 2 {
				t.Errorf("read-after-SET: got %v v%d, want ok v2", out, v)
			}
			p.Advance(40000)
			p.Sync()
			if out, v := conn.Call(p, kv.Del, 0, key); out != kv.OK || v != 3 {
				t.Errorf("DELETE: %v v%d", out, v)
			}
			if out, v := conn.Call(p, kv.Get, 0, key); out != kv.NotFound || v != 3 {
				t.Errorf("read-after-DELETE: got %v v%d, want notfound v3", out, v)
			}
			node.WaitIdle(p)
			node.Done(p)
		}
	})
	if res.KV.BoardServed == 0 {
		t.Fatal("cache never engaged: the test exercised nothing")
	}
	if res.KV.WriteInvals == 0 {
		t.Fatal("no write ever invalidated a live cached response")
	}
	if res.KV.Completed+res.KV.Rejected+res.KV.Throttled+res.KV.Expired != res.KV.Issued {
		t.Fatalf("outcomes do not cover the %d issued requests: %+v", res.KV.Issued, res.KV)
	}
}

// runIsolation is the aggressor/victim scenario behind the tenant-QoS
// tests: tenant 1 floods the server open loop while tenant 0 runs a
// modest closed loop.
func runIsolation(t *testing.T, isolation bool) *cluster.Result {
	t.Helper()
	cfg := config.Default()
	c := mustCluster(&cfg, 3)
	const victimCalls = 30
	res := c.Run(func(w *dsm.Worker) {
		p, id := w.Proc(), w.Node()
		node := c.KV.Node(id)
		switch id {
		case 0:
			node.StartServer(kv.ServerConfig{
				WorkQueue: 64, FreeBufs: 32, ServiceGet: 2000, ServiceSet: 2000,
				ValueBytes: 256, Policy: rpc.Delay, Clients: 2, Isolation: isolation,
				Tenants: []tenant.Class{
					{ID: 0, Name: "victim", Priority: 0},
					{ID: 1, Name: "aggressor", Priority: 1, Rate: 2000, Burst: 8},
				},
			})
			node.Serve(p)
		case 1: // victim
			conn := node.Dial(0, 64, 0)
			for i := 0; i < victimCalls; i++ {
				if out, _ := conn.Call(p, kv.Get, 0, uint64(i)); out != kv.NotFound {
					t.Errorf("victim call %d: %v", i, out)
				}
				p.Advance(2000)
			}
			node.WaitIdle(p)
			node.Done(p)
		case 2: // aggressor: open-loop overload, arrivals far above service rate
			conn := node.Dial(0, 64, 0)
			for i := 0; i < 400; i++ {
				p.Advance(150)
				p.Sync()
				conn.Fire(p, p.Local(), kv.Get, 1, uint64(1000+i))
			}
			node.WaitIdle(p)
			node.Done(p)
		}
	})
	if got := res.Tenants[0].Completed; got != victimCalls {
		t.Fatalf("isolation=%v: victim completed %d of %d calls", isolation, got, victimCalls)
	}
	return res
}

// TestTenantIsolationBoundsVictimTail is the acceptance test for the
// QoS machinery: with isolation on, the well-behaved tenant's p99 must
// stay far below what the shared-FIFO ablation gives it under the same
// overload, and the aggressor must be the one paying (throttled by its
// token bucket), which never happens with isolation off.
func TestTenantIsolationBoundsVictimTail(t *testing.T) {
	on := runIsolation(t, true)
	off := runIsolation(t, false)
	if on.Tenants[1].Throttled == 0 {
		t.Fatal("isolation on: aggressor never throttled by its token bucket")
	}
	if off.Tenants[1].Throttled != 0 {
		t.Fatalf("isolation off: %d throttles with no bucket configured",
			off.Tenants[1].Throttled)
	}
	onP99 := on.TenantLat[0].Percentile(99)
	offP99 := off.TenantLat[0].Percentile(99)
	if onP99 <= 0 || offP99 <= 0 {
		t.Fatalf("missing victim tail samples: on %d, off %d", onP99, offP99)
	}
	if 4*onP99 >= offP99 {
		t.Fatalf("victim p99 %d with isolation not well below %d without", onP99, offP99)
	}
}

// TestDeterministicReplay runs the contended multi-tenant scenario
// twice: every counter and every latency sample must be identical.
func TestDeterministicReplay(t *testing.T) {
	a := runIsolation(t, true)
	b := runIsolation(t, true)
	if a.KV != b.KV {
		t.Fatalf("KV stats diverged across identical runs:\n%+v\n%+v", a.KV, b.KV)
	}
	if a.KVLat.Hist.Count != b.KVLat.Hist.Count ||
		a.KVLat.Percentile(50) != b.KVLat.Percentile(50) ||
		a.KVLat.Percentile(99) != b.KVLat.Percentile(99) {
		t.Fatal("latency samples diverged across identical runs")
	}
	for i := range a.Tenants {
		if a.Tenants[i] != b.Tenants[i] {
			t.Fatalf("tenant %d stats diverged:\n%+v\n%+v", i, a.Tenants[i], b.Tenants[i])
		}
	}
}

// TestQueuePeakUnderDelayOverload overloads a small server under the
// Delay policy: requests park, and the work queue's high-water mark
// must be recorded, bounded by the configured queue.
func TestQueuePeakUnderDelayOverload(t *testing.T) {
	const reqs, workQueue = 80, 8
	cfg := config.Default()
	c := mustCluster(&cfg, 2)
	res := c.Run(func(w *dsm.Worker) {
		p, id := w.Proc(), w.Node()
		node := c.KV.Node(id)
		if id == 0 {
			node.StartServer(kv.ServerConfig{
				WorkQueue: workQueue, FreeBufs: 4, ServiceGet: 5000, ValueBytes: 256,
				Policy: rpc.Delay, Clients: 1,
			})
			node.Serve(p)
			return
		}
		conn := node.Dial(0, 64, 0)
		for i := 0; i < reqs; i++ {
			p.Sync()
			conn.Fire(p, p.Local(), kv.Get, 0, uint64(i))
		}
		node.WaitIdle(p)
		node.Done(p)
	})
	if res.KV.Served != reqs || res.KV.ParkedPeak == 0 {
		t.Fatalf("served %d (want %d), parked peak %d (want > 0)",
			res.KV.Served, reqs, res.KV.ParkedPeak)
	}
	if res.KV.QueuePeak <= 0 || res.KV.QueuePeak > workQueue {
		t.Fatalf("QueuePeak = %d, want in (0, %d]", res.KV.QueuePeak, workQueue)
	}
}

// TestUnknownTenantRejected sends a request naming a tenant the server
// has no class for: the server must answer it Rejected (so the call
// completes) and count it Malformed.
func TestUnknownTenantRejected(t *testing.T) {
	threeKinds(t, func(t *testing.T, cfg config.Config) {
		c := mustCluster(&cfg, 2)
		res := c.Run(func(w *dsm.Worker) {
			p, id := w.Proc(), w.Node()
			node := c.KV.Node(id)
			if id == 0 {
				node.StartServer(kv.ServerConfig{
					WorkQueue: 8, FreeBufs: 8, ValueBytes: 256, Clients: 1,
				})
				node.Serve(p)
				return
			}
			conn := node.Dial(0, 64, 0)
			if out, _ := conn.Call(p, kv.Get, 1, 42); out != kv.Rejected {
				t.Errorf("unknown tenant: outcome %v, want rejected", out)
			}
			if out, _ := conn.Call(p, kv.Set, 0, 42); out != kv.OK {
				t.Errorf("known tenant after it: outcome %v, want ok", out)
			}
			node.WaitIdle(p)
			node.Done(p)
		})
		if res.KV.Malformed != 1 || res.KV.Rejected != 1 || res.KV.Completed != 1 {
			t.Fatalf("malformed/rejected/completed = %d/%d/%d, want 1/1/1",
				res.KV.Malformed, res.KV.Rejected, res.KV.Completed)
		}
		if got := res.Tenants[1]; got.Issued != 1 || got.Rejected != 1 {
			t.Fatalf("tenant 1 ledger %+v, want 1 issued, 1 rejected", got)
		}
	})
}
