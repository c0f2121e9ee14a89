package dsm_test

import (
	"testing"

	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/sim"
)

// TestPassiveRolesJoinOnFirstMessage runs a 16-node cluster in which
// node 3 alone faults, locks, writes, unlocks and enters a barrier.
// The page's home (node 2), the lock's manager (node 1) and the
// barrier's manager (node 0) take no DSM action while node 3's traffic
// reaches them: they first compute past it, then enter the closing
// barrier node 3 waits on. Each therefore joins the protocol from a
// handler, and must answer with clocks sized by the cluster exactly as
// a node that acted first would. A handler that ran before its node
// joined would index empty clocks, or send shorter vector clocks on the
// grant and the barrier release; the pinned simulated times, those of
// eagerly allocated clocks, catch the second.
func TestPassiveRolesJoinOnFirstMessage(t *testing.T) {
	const (
		nodes = 16 // vector clocks of 64 bytes span cells of their own
		actor = 3
		home  = 2
		lock  = 1 // managed by node lock % nodes = 1
		bar   = 0 // managed by node 0 under both ownerships
		idle  = 10_000_000
	)
	for _, tc := range []struct {
		name      string
		kind      config.NICKind
		ownership string
		// wantActor is node 3's clock after its unlock, wantTime the
		// run's makespan.
		wantActor, wantTime sim.Time
	}{
		{"cni-central", config.NICCNI, config.DSMCentral, 20181, 10006441},
		{"cni-distributed", config.NICCNI, config.DSMDistributed, 19277, 10006441},
		{"standard-central", config.NICStandard, config.DSMCentral, 45331, 10087300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.ForNIC(tc.kind)
			cfg.DSMOwnership = tc.ownership
			pageWords := cfg.PageBytes / cfg.WordBytes
			c := mustCluster(&cfg, nodes, func(g *dsm.Globals) {
				g.Alloc(2 * pageWords)
				g.SetHomeOf(func(int32, int) int { return home })
			})
			var actorAt sim.Time
			res := c.Run(func(w *dsm.Worker) {
				if w.Node() != actor {
					w.Compute(idle)
					w.Proc().Sync() // let simulated time reach the idle end
					w.Barrier(bar)
					return
				}
				w.Lock(lock)
				w.WriteU64(1, 42)
				w.Unlock(lock)
				actorAt = w.Proc().Local()
				w.Barrier(bar)
			})
			if actorAt >= idle {
				t.Fatalf("node %d unlocked at %d, after the other nodes stopped idling at %d", actor, actorAt, idle)
			}
			if got := c.ReadU64(1); got != 42 {
				t.Fatalf("home copy holds %d after the barrier, want 42", got)
			}
			st := res.PerNode
			if st[home].DSM.PageFetches != 1 || st[lock].DSM.LockOps != 0 || st[lock].DSM.OwnerMsgs != 2 {
				t.Fatalf("home served %d fetches, lock manager did %d lock ops and handled %d messages; want 1, 0, 2",
					st[home].DSM.PageFetches, st[lock].DSM.LockOps, st[lock].DSM.OwnerMsgs)
			}
			if actorAt != tc.wantActor || res.Time != tc.wantTime {
				t.Fatalf("actor unlocked at %d with makespan %d, want %d and %d",
					actorAt, res.Time, tc.wantActor, tc.wantTime)
			}
		})
	}
}
