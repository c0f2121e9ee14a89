package workload

import (
	"fmt"
	"strings"

	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/kv"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/stats"
	"cni/internal/tenant"
)

// KVTenant is one tenant's traffic and QoS contract in a KV run.
type KVTenant struct {
	// Class is the server-side QoS contract (rate limit, priority,
	// weight). Class.ID must equal the tenant's index in KVSpec.Tenants.
	Class tenant.Class
	// Rate is the tenant's offered load per client node, requests/second,
	// driving a Poisson open-loop arrival stream.
	Rate float64
	// Requests is how many requests each client node issues for this
	// tenant.
	Requests int
	// GetFrac is the GET fraction of the stream; the rest are SETs.
	GetFrac float64
}

// KVSpec describes one multi-tenant KV serving run. Nodes
// 0..Servers-1 serve a store pre-populated with the whole key space
// (sharded key mod Servers); the remaining nodes each run every
// tenant's arrival stream, aggregated open loop: all streams merge
// into one time-ordered schedule per client, and requests fire at
// their scheduled instants no matter how the server is keeping up, so
// queueing delay lands in the measured tail instead of thinning the
// load (no coordinated omission).
type KVSpec struct {
	Servers int
	Clients int
	Seed    uint64

	Keys  int     // key-space size (default 1024)
	ZipfS float64 // key popularity skew, P(rank k) ∝ 1/k^s

	SetBytes   int      // SET value payload (default 64)
	ValueBytes int      // GET response payload (default 256)
	Deadline   sim.Time // per-request deadline, cycles (0 = none)

	Tenants   []KVTenant // default: one uncontracted tenant, 500 req
	Isolation bool       // per-tenant credit shares, buckets and scheduling

	// Server knobs (kv.ServerConfig).
	WorkQueue  int
	FreeBufs   int
	ServiceGet sim.Time
	ServiceSet sim.Time
	Policy     rpc.Policy
}

// withDefaults fills the zero values a caller may omit.
func (s KVSpec) withDefaults() KVSpec {
	if s.Servers == 0 {
		s.Servers = 1
	}
	if s.Clients == 0 {
		s.Clients = 1
	}
	if s.Keys == 0 {
		s.Keys = 1024
	}
	if s.SetBytes == 0 {
		s.SetBytes = 64
	}
	if s.ValueBytes == 0 {
		s.ValueBytes = 256
	}
	if len(s.Tenants) == 0 {
		s.Tenants = []KVTenant{{Rate: 20000, Requests: 500, GetFrac: 0.9}}
	}
	ts := make([]KVTenant, len(s.Tenants))
	copy(ts, s.Tenants)
	s.Tenants = ts
	for i := range s.Tenants {
		t := &s.Tenants[i]
		t.Class.ID = i
		if t.Requests == 0 {
			t.Requests = 500
		}
		if t.GetFrac == 0 {
			t.GetFrac = 0.9
		}
	}
	if s.WorkQueue == 0 {
		s.WorkQueue = 64
	}
	if s.FreeBufs == 0 {
		s.FreeBufs = 64
	}
	if s.ServiceGet == 0 {
		s.ServiceGet = 1000
	}
	if s.ServiceSet == 0 {
		s.ServiceSet = s.ServiceGet
	}
	return s
}

// Validate rejects specs the generator cannot run.
func (s KVSpec) Validate() error {
	s = s.withDefaults()
	if s.Servers < 1 || s.Clients < 1 {
		return fmt.Errorf("workload: need at least 1 server and 1 client, have %d/%d", s.Servers, s.Clients)
	}
	if s.Keys < 1 {
		return fmt.Errorf("workload: key space %d", s.Keys)
	}
	if s.ZipfS < 0 {
		return fmt.Errorf("workload: zipf skew %g", s.ZipfS)
	}
	for i, t := range s.Tenants {
		if t.Rate <= 0 {
			return fmt.Errorf("workload: tenant %d open-loop rate %g", i, t.Rate)
		}
		if t.GetFrac < 0 || t.GetFrac > 1 {
			return fmt.Errorf("workload: tenant %d GET fraction %g", i, t.GetFrac)
		}
	}
	return nil
}

// KVReport is the outcome of one KV run.
type KVReport struct {
	Res   *cluster.Result
	Stats kv.Stats

	Lat     stats.Latencies // all completed requests
	HitLat  stats.Latencies // GETs served by the NIC-resident cache
	HostLat stats.Latencies // GETs served by the host

	Tenants   []tenant.Stats
	TenantLat []stats.Latencies

	Wall    sim.Time
	Seconds float64

	Offered float64 // total offered load, requests/second
	Goodput float64 // on-time completed responses per second

	P50, P99, P999 sim.Time
	HitRatio       float64 // board-served fraction of completed GETs
}

// String renders the report in the style of the repo's CLI output.
func (r *KVReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b,
		"requests issued=%d completed=%d rejected=%d throttled=%d expired=%d\n"+
			"offered %.0f req/s, goodput %.0f req/s over %.3f ms\n"+
			"latency p50=%d p99=%d p999=%d cycles (mean %.0f)\n"+
			"server: served=%d freeDry=%d queueFull=%d delayed=%d malformed=%d",
		r.Stats.Issued, r.Stats.Completed, r.Stats.Rejected, r.Stats.Throttled, r.Stats.Expired,
		r.Offered, r.Goodput, r.Seconds*1e3,
		r.P50, r.P99, r.P999, r.Stats.Lat.Mean(),
		r.Stats.Served, r.Stats.FreeDry, r.Stats.QueueFull, r.Stats.Delayed, r.Stats.Malformed)
	if hits := r.Stats.HitLat.Count + r.Stats.HostLat.Count; hits > 0 {
		fmt.Fprintf(&b,
			"\nnic cache: board-served=%d host-served=%d (hit ratio %.3f) "+
				"hit-p99=%d host-p99=%d inserts=%d evicts=%d invals=%d vetoes=%d",
			r.Stats.BoardServed, r.Stats.HostLat.Count, r.HitRatio,
			r.HitLat.Percentile(99), r.HostLat.Percentile(99),
			r.Stats.Inserts, r.Stats.CacheEvicts, r.Stats.WriteInvals, r.Stats.InsertVetoes)
	}
	for i := range r.Tenants {
		ts := r.Tenants[i]
		var p99 sim.Time
		if i < len(r.TenantLat) {
			p99 = r.TenantLat[i].Percentile(99)
		}
		fmt.Fprintf(&b,
			"\ntenant %d: issued=%d completed=%d onTime=%d rejected=%d throttled=%d expired=%d p99=%d",
			i, ts.Issued, ts.Completed, ts.OnTime, ts.Rejected, ts.Throttled, ts.Expired, p99)
	}
	return b.String()
}

// RunKV executes the spec on a fresh cluster under cfg. Whether the
// serving boards grow a NIC-resident response cache is entirely the
// config's business (NICResponseCache, CNI only); the workload is
// identical either way, which is what makes the FS2 comparison fair.
func RunKV(cfg *config.Config, s KVSpec) *KVReport {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		panic(err)
	}
	n := s.Servers + s.Clients
	c, err := cluster.New(cfg, n, nil)
	if err != nil {
		panic(err)
	}

	classes := make([]tenant.Class, len(s.Tenants))
	for i, t := range s.Tenants {
		classes[i] = t.Class
	}
	cyclesPerSec := float64(cfg.CPUFreqMHz) * 1e6

	res := c.Run(func(w *dsm.Worker) {
		p, id := w.Proc(), w.Node()
		node := c.KV.Node(id)
		if id < s.Servers {
			node.StartServer(kv.ServerConfig{
				WorkQueue:  s.WorkQueue,
				FreeBufs:   s.FreeBufs,
				ServiceGet: s.ServiceGet,
				ServiceSet: s.ServiceSet,
				ValueBytes: s.ValueBytes,
				Policy:     s.Policy,
				Clients:    s.Clients, // every client dials every server
				Tenants:    classes,
				Isolation:  s.Isolation,
			})
			for key := id; key < s.Keys; key += s.Servers {
				node.Preload(uint64(key))
			}
			node.Serve(p)
			return
		}
		rng := sim.NewRNG(clientSeed(s.Seed, id))
		conns := make([]*kv.Conn, s.Servers)
		for i := range conns {
			conns[i] = node.Dial(i, s.SetBytes, s.Deadline)
		}
		zipf := NewZipf(s.Keys, s.ZipfS)

		// The aggregated arrival stream: every tenant keeps its own
		// Poisson schedule and the client plays the merged order, always
		// firing the earliest pending arrival next.
		type stream struct {
			next sim.Time
			left int
			gap  float64
		}
		streams := make([]stream, len(s.Tenants))
		for i, t := range s.Tenants {
			gap := cyclesPerSec / t.Rate
			streams[i] = stream{next: exp(rng, gap), left: t.Requests, gap: gap}
		}
		for {
			tn := -1
			for i := range streams {
				if streams[i].left > 0 && (tn < 0 || streams[i].next < streams[tn].next) {
					tn = i
				}
			}
			if tn < 0 {
				break
			}
			st := &streams[tn]
			p.WaitUntil(st.next)
			key := zipf.Next(rng)
			kind := kv.Set
			if rng.Float64() < s.Tenants[tn].GetFrac {
				kind = kv.Get
			}
			conns[key%uint64(s.Servers)].Fire(p, st.next, kind, tn, key)
			st.left--
			st.next += exp(rng, st.gap)
		}
		node.WaitIdle(p)
		node.Done(p)
	})

	rep := &KVReport{
		Res:       res,
		Stats:     res.KV,
		Lat:       res.KVLat,
		HitLat:    res.KVHit,
		HostLat:   res.KVHost,
		Tenants:   res.Tenants,
		TenantLat: res.TenantLat,
		Wall:      res.Time,
	}
	rep.Seconds = float64(res.Time) / cyclesPerSec
	for _, t := range s.Tenants {
		rep.Offered += t.Rate * float64(s.Clients)
	}
	if rep.Seconds > 0 {
		rep.Goodput = float64(rep.Stats.Completed-rep.Stats.DeadlineMiss) / rep.Seconds
	}
	if gets := rep.Stats.HitLat.Count + rep.Stats.HostLat.Count; gets > 0 {
		rep.HitRatio = float64(rep.Stats.HitLat.Count) / float64(gets)
	}
	rep.P50 = rep.Lat.Percentile(50)
	rep.P99 = rep.Lat.Percentile(99)
	rep.P999 = rep.Lat.Percentile(99.9)
	return rep
}
