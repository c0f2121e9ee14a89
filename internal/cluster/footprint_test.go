package cluster

import (
	"runtime"
	"testing"

	"cni/internal/config"
)

// retainedPerNode reports the heap bytes an n-node CNI torus cluster
// keeps live per node right after New, with no DSM allocated or used.
func retainedPerNode(t *testing.T, n int) float64 {
	t.Helper()
	cfg := config.ForNIC(config.NICCNI)
	cfg.Topology = config.TopoTorus
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := mustNew(&cfg, n, nil)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
}

// TestPerNodeFootprintIsFlat checks that what New allocates per node
// does not grow with the cluster: per-node state must be O(1) in the
// machine size for a large torus to scale. State with one slot per
// node on every node (the DSM vector clocks and interval logs) waits
// for the node's first protocol use.
func TestPerNodeFootprintIsFlat(t *testing.T) {
	retainedPerNode(t, 128) // warm up one-time runtime allocations
	small := retainedPerNode(t, 128)
	large := retainedPerNode(t, 1024)
	t.Logf("retained heap per node: %.0f B at 128 nodes, %.0f B at 1024 nodes (%.2fx)",
		small, large, large/small)
	if large > 1.25*small {
		t.Fatalf("retained heap per node grows from %.0f B at 128 nodes to %.0f B at 1024 (%.2fx, want <= 1.25x)",
			small, large, large/small)
	}
}
