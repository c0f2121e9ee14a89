package dsm_test

import (
	"runtime"
	"testing"

	"cni/internal/config"
	"cni/internal/dsm"
)

// twinRoundsAlloc runs a 2-node cluster in which node 1 does k rounds
// of lock, write one word of a page homed at node 0, unlock, and
// returns the bytes the whole run allocated.
func twinRoundsAlloc(t *testing.T, k int) uint64 {
	t.Helper()
	cfg := config.ForNIC(config.NICCNI)
	pageWords := cfg.PageBytes / cfg.WordBytes
	c := mustCluster(&cfg, 2, func(g *dsm.Globals) { g.Alloc(2 * pageWords) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Run(func(w *dsm.Worker) {
		if w.Node() == 1 {
			for i := 0; i < k; i++ {
				w.Lock(1)
				w.WriteU64(0, uint64(i+1))
				w.Unlock(1)
			}
		}
		w.Barrier(0)
	})
	runtime.ReadMemStats(&after)
	if got := c.ReadU64(0); got != uint64(k) {
		t.Fatalf("after %d rounds the home holds %d", k, got)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestTwinsAreRecycled checks that a release returns its twins for
// reuse: once the free list holds a page-sized buffer, another round
// of write-then-release must cost less than a fresh twin would.
func TestTwinsAreRecycled(t *testing.T) {
	cfg := config.ForNIC(config.NICCNI)
	twinRoundsAlloc(t, 10) // warm up one-time runtime allocations
	perRound := (float64(twinRoundsAlloc(t, 100)) - float64(twinRoundsAlloc(t, 50))) / 50
	t.Logf("marginal heap bytes per round: %.0f", perRound)
	if perRound >= float64(cfg.PageBytes) {
		t.Fatalf("each write-then-release round allocates %.0f bytes, want < %d (a twin is %d)",
			perRound, cfg.PageBytes, cfg.PageBytes)
	}
}
