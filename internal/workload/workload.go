// Package workload is a seeded synthetic traffic generator for the
// internal/rpc subsystem: it drives an N-node cluster of client and
// server nodes under either NIC model and reports sustained throughput
// plus exact latency percentiles.
//
// Clients run open loop (requests fire at seeded scheduled times —
// Poisson or fixed-rate arrivals — and latency is measured from the
// scheduled time, so queueing behind a saturated server is charged to
// the tail rather than silently thinning the arrival stream) or closed
// loop (blocking calls separated by think time). Every random draw
// comes from a per-client splitmix64 stream derived from Spec.Seed, so
// a run is a pure function of (Config, Spec): bit-identical histograms
// on every execution.
package workload

import (
	"fmt"
	"math"

	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/stats"
)

// Spec describes one synthetic serving run. Nodes 0..Servers-1 serve;
// nodes Servers..Servers+Clients-1 issue requests, client i dialing
// server i mod Servers over Conns logical connections.
type Spec struct {
	Servers int // server nodes (>= 1)
	Clients int // client nodes (>= 1)
	Conns   int // logical connections per client (default 1)
	Seed    uint64

	Open    bool     // open loop (scheduled arrivals) vs closed loop
	Poisson bool     // exponential interarrivals/think times vs fixed
	Rate    float64  // per-client offered load, requests/second (open loop)
	Think   sim.Time // mean think time between calls, cycles (closed loop)

	Requests  int // requests per client
	ReqBytes  int
	RespBytes int

	Deadline sim.Time // per-request deadline, cycles (0 = none)

	// Server knobs (rpc.ServerConfig).
	Service   sim.Time // service cycles per request
	WorkQueue int
	FreeBufs  int
	Policy    rpc.Policy
}

// withDefaults fills the zero values a caller may omit.
func (s Spec) withDefaults() Spec {
	if s.Servers == 0 {
		s.Servers = 1
	}
	if s.Clients == 0 {
		s.Clients = 1
	}
	if s.Conns == 0 {
		s.Conns = 1
	}
	if s.Requests == 0 {
		s.Requests = 100
	}
	if s.WorkQueue == 0 {
		s.WorkQueue = 64
	}
	if s.FreeBufs == 0 {
		s.FreeBufs = 64
	}
	if s.Service == 0 {
		s.Service = 1000
	}
	return s
}

// Validate rejects specs the generator cannot run.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Servers < 1 || s.Clients < 1 {
		return fmt.Errorf("workload: need at least 1 server and 1 client, have %d/%d", s.Servers, s.Clients)
	}
	if s.Open && s.Rate <= 0 {
		return fmt.Errorf("workload: open-loop spec needs Rate > 0, have %g", s.Rate)
	}
	if s.ReqBytes < 0 || s.RespBytes < 0 || s.Requests < 0 {
		return fmt.Errorf("workload: negative size or count")
	}
	return nil
}

// Report is the outcome of one run.
type Report struct {
	Res   *cluster.Result
	Stats rpc.Stats       // aggregate over all nodes (== Res.RPC)
	Lat   stats.Latencies // exact samples (== Res.RPCLat)

	Wall    sim.Time // wall time in cycles
	Seconds float64  // wall time in seconds at cfg.CPUFreqMHz

	Offered   float64 // total offered load, requests/second
	Sustained float64 // completed responses per second over the wall time

	P50, P99, P999 sim.Time // exact latency percentiles, cycles
}

// String renders the report in the style of the repo's CLI output.
func (r *Report) String() string {
	return fmt.Sprintf(
		"requests issued=%d completed=%d rejected=%d expired=%d\n"+
			"offered %.0f req/s, sustained %.0f req/s over %.3f ms\n"+
			"latency p50=%d p99=%d p999=%d cycles (mean %.0f)\n"+
			"server: served=%d freeDry=%d queueFull=%d delayed=%d qPeak=%d parkedPeak=%d",
		r.Stats.Issued, r.Stats.Completed, r.Stats.Rejected, r.Stats.Expired,
		r.Offered, r.Sustained, r.Seconds*1e3,
		r.P50, r.P99, r.P999, r.Stats.Lat.Mean(),
		r.Stats.Served, r.Stats.FreeDry, r.Stats.QueueFull, r.Stats.Delayed,
		r.Stats.QueuePeak, r.Stats.ParkedPeak)
}

// clientSeed derives the per-client splitmix64 stream seed.
func clientSeed(seed uint64, node int) uint64 {
	return seed + uint64(node+1)*0x9E3779B97F4A7C15
}

// exp draws an exponential variate with the given mean in cycles.
func exp(rng *sim.RNG, mean float64) sim.Time {
	u := rng.Float64()
	d := -math.Log(1-u) * mean
	if d < 1 {
		d = 1
	}
	return sim.Time(d)
}

// Run executes the spec on a fresh cluster under cfg and gathers the
// report. The cluster carries no DSM traffic: the RPC engine attached
// to every board is the only protocol speaking.
func Run(cfg *config.Config, s Spec) *Report {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		panic(err)
	}
	n := s.Servers + s.Clients
	c, err := cluster.New(cfg, n, nil)
	if err != nil {
		panic(err)
	}

	// Per-server client counts, so each server knows how many done
	// markers to wait for.
	clientsOf := make([]int, s.Servers)
	for i := 0; i < s.Clients; i++ {
		clientsOf[i%s.Servers]++
	}

	cyclesPerSec := float64(cfg.CPUFreqMHz) * 1e6
	meanGap := 0.0
	if s.Open {
		meanGap = cyclesPerSec / s.Rate
	}

	res := c.Run(func(w *dsm.Worker) {
		p, id := w.Proc(), w.Node()
		if id < s.Servers {
			srv := c.RPC.Node(id)
			srv.StartServer(rpc.ServerConfig{
				WorkQueue: s.WorkQueue,
				FreeBufs:  s.FreeBufs,
				Service:   s.Service,
				RespBytes: s.RespBytes,
				Policy:    s.Policy,
				Clients:   clientsOf[id],
			})
			srv.Serve(p)
			return
		}
		cl := c.RPC.Node(id)
		server := (id - s.Servers) % s.Servers
		rng := sim.NewRNG(clientSeed(s.Seed, id))
		conns := make([]*rpc.Conn, s.Conns)
		for i := range conns {
			conns[i] = cl.Dial(server, s.ReqBytes, s.Deadline)
		}
		if s.Open {
			// Open loop: fire at scheduled times regardless of responses.
			var next sim.Time
			for k := 0; k < s.Requests; k++ {
				if s.Poisson {
					next += exp(rng, meanGap)
				} else {
					next += sim.Time(meanGap)
				}
				p.WaitUntil(next)
				conns[k%s.Conns].Fire(p, next)
			}
		} else {
			// Closed loop: one call at a time, separated by think time.
			for k := 0; k < s.Requests; k++ {
				if s.Think > 0 {
					if s.Poisson {
						p.Advance(exp(rng, float64(s.Think)))
					} else {
						p.Advance(s.Think)
					}
				}
				conns[k%s.Conns].Call(p)
			}
		}
		cl.WaitIdle(p)
		cl.Done(p)
	})

	rep := &Report{
		Res:   res,
		Stats: res.RPC,
		Lat:   res.RPCLat,
		Wall:  res.Time,
	}
	rep.Seconds = float64(res.Time) / cyclesPerSec
	if s.Open {
		rep.Offered = s.Rate * float64(s.Clients)
	} else if rep.Seconds > 0 {
		rep.Offered = float64(rep.Stats.Issued) / rep.Seconds
	}
	if rep.Seconds > 0 {
		rep.Sustained = float64(rep.Stats.Completed) / rep.Seconds
	}
	rep.P50 = rep.Lat.Percentile(50)
	rep.P99 = rep.Lat.Percentile(99)
	rep.P999 = rep.Lat.Percentile(99.9)
	return rep
}
