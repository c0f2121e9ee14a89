package experiments

import (
	"context"
	"testing"

	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/workload"
)

// TestShardSuiteParity is the golden parity gate of the sharded kernel:
// the full suite, rendered with every simulation point split across
// conservative-parallel shards, must be byte-identical to the
// sequential single-kernel path at every shard count. Under -short
// (CI's -race leg) one shard count covers the full suite; the long run
// sweeps 1, 2 and 8.
func TestShardSuiteParity(t *testing.T) {
	specs := All()
	base := make([]string, len(specs))
	for i, s := range specs {
		base[i] = renderSequential(s, parityOpts)
	}
	counts := []int{1, 2, 8}
	if testing.Short() {
		counts = []int{4}
	}
	for _, shards := range counts {
		o := parityOpts
		o.Shards = shards
		o.Jobs = 2
		outs, err := RunSuite(context.Background(), specs, o)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i, s := range specs {
			if outs[i] != base[i] {
				t.Errorf("%s at shards=%d: output differs from single kernel\n--- single kernel ---\n%s\n--- shards=%d ---\n%s",
					s.ID, shards, base[i], shards, outs[i])
			}
		}
	}
}

// TestShardClusterClampAndSpread pins the cluster layer's sharding
// decision: a message-carried serving run spreads its nodes across the
// requested shards, while a DSM run (shared pages, zero-lookahead page
// copies) clamps back to the single kernel and says why.
func TestShardClusterClampAndSpread(t *testing.T) {
	cfg := config.ForNIC(config.NICCNI)
	cfg.SimShards = 4
	c, err := cluster.New(&cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.SS == nil || c.Shards() != 4 || c.ShardClamp != "" {
		t.Fatalf("serving cluster: SS=%v shards=%d clamp=%q, want 4 shards unclamped",
			c.SS != nil, c.Shards(), c.ShardClamp)
	}

	dsmCfg := config.ForNIC(config.NICCNI)
	dsmCfg.SimShards = 4
	d, err := cluster.New(&dsmCfg, 8, func(g *dsm.Globals) { g.Alloc(1024) })
	if err != nil {
		t.Fatal(err)
	}
	if d.SS != nil || d.Shards() != 1 || d.ShardClamp == "" {
		t.Fatalf("DSM cluster: SS=%v shards=%d clamp=%q, want single kernel with a recorded reason",
			d.SS != nil, d.Shards(), d.ShardClamp)
	}
}

// TestShardWorkloadParity runs the RPC serving workload — the cluster
// path with live cross-shard request/response traffic, admission
// control and exact latency samples — sharded and unsharded, and
// requires identical results down to every latency sample, compared
// position by position in sorted order.
func TestShardWorkloadParity(t *testing.T) {
	cases := []struct {
		name   string
		nic    config.NICKind
		spec   workload.Spec
		shards []int
	}{
		{"cni", config.NICCNI, workload.Spec{
			Servers: 1, Clients: 4, Seed: 7,
			Open: true, Poisson: true, Rate: 10000, Requests: 120,
			ReqBytes: 128, RespBytes: 1024, Service: 1000,
			WorkQueue: 64, FreeBufs: 64,
		}, []int{1, 2, 5}},
		// Clients of the standard interface send into one server port at
		// the same kernel time. 3100 requests per client is the smallest
		// count (in steps of 100) whose samples differed between the
		// single kernel and the shards while the single kernel walked
		// sends in event order.
		{"standard", config.NICStandard, workload.Spec{
			Servers: 2, Clients: 6, Seed: 1,
			Open: true, Poisson: true, Rate: 5000, Requests: 3100,
			ReqBytes: 128, RespBytes: 1024, Service: 1000,
			WorkQueue: 64, FreeBufs: 64, Policy: rpc.Delay,
		}, []int{1, 2}},
	}
	type result struct {
		completed uint64
		sustained float64
		p50, p99  sim.Time
		time      sim.Time
		samples   []sim.Time
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(shards int) result {
				cfg := config.ForNIC(tc.nic)
				cfg.SimShards = shards
				rep := workload.Run(&cfg, tc.spec)
				// Reading the percentiles sorted the samples in place.
				return result{rep.Stats.Completed, rep.Sustained, rep.P50, rep.P99, rep.Res.Time, rep.Lat.Samples}
			}
			want := run(0)
			for _, shards := range tc.shards {
				got := run(shards)
				if len(got.samples) != len(want.samples) {
					t.Fatalf("shards=%d: %d latency samples, want %d", shards, len(got.samples), len(want.samples))
				}
				differ := 0
				for i := range got.samples {
					if got.samples[i] != want.samples[i] {
						differ++
					}
				}
				if differ > 0 || got.completed != want.completed || got.sustained != want.sustained ||
					got.p50 != want.p50 || got.p99 != want.p99 || got.time != want.time {
					t.Fatalf("shards=%d: %d of %d samples differ; completed=%d sustained=%g p50/p99/time=%d/%d/%d, want %d %g %d/%d/%d",
						shards, differ, len(got.samples), got.completed, got.sustained, got.p50, got.p99, got.time,
						want.completed, want.sustained, want.p50, want.p99, want.time)
				}
			}
		})
	}
}
