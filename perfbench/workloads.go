package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"slices"

	"cni/internal/apps"
	"cni/internal/apps/spmat"
	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/kv"
	"cni/internal/nic"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/tenant"
)

// instance is one execution of a workload on one generated input; the
// runner owns the cluster it builds. Set-up is prepare (program work
// before the cluster exists; it returns the DSM allocation hook, or
// nil), cluster.New, then attach (program work on the new cluster).
// run executes the simulation, check verifies its output and outcome
// summarizes what was simulated. An instance is used once.
type instance interface {
	config() (cfg config.Config, nodes int)
	prepare() cluster.Setup
	attach(c *cluster.Cluster)
	run(c *cluster.Cluster) *cluster.Result
	check(c *cluster.Cluster, res *cluster.Result) error
	outcome(c *cluster.Cluster, res *cluster.Result) outcome
}

// outcome is the simulated result of one instance. Everything in it is
// a pure function of the instance's input, so it repeats exactly.
type outcome struct {
	makespan sim.Time   // simulated cycles until the last node finished
	units    uint64     // completed work units (tasks, messages, on-time requests)
	lat      []sim.Time // latency samples in cycles; nil where the workload has none
	issued   uint64     // requests issued (serve workloads)
	missed   uint64     // requests rejected, throttled or expired
	counters map[string]float64
	digest   string
}

// sizes fixes how much work one instance does. The benchmark runs
// fullSizes; the tests run smaller ones.
type sizes struct {
	cholCols    int // order of the Cholesky matrix
	a2aNodes    int // torus nodes
	a2aRounds   int // all-to-all rounds (messages per node)
	rpcRequests int // requests per RPC client
	kvVictim    int // victim requests per KV client
	kvAggressor int // aggressor requests per KV client
}

var fullSizes = sizes{
	cholCols:    400,
	a2aNodes:    1024,
	a2aRounds:   96,
	rpcRequests: 3000,
	kvVictim:    600,
	kvAggressor: 600,
}

// workload is one benchmark workload: a generator of instances from an
// input seed.
type workload struct {
	name string
	// subSeeds is how many distinct inputs one benchmark run draws from
	// its seed. Every one is executed at least once per run and the
	// simulated metrics are computed over exactly this set, so they do
	// not depend on how many executions fit in the run's time.
	subSeeds int
	make     func(seed uint64, sz sizes) instance
}

var workloads = []workload{
	{name: "dsm-cholesky", subSeeds: 12, make: newCholesky},
	{name: "fabric-a2a", subSeeds: 3, make: newFabric},
	{name: "serve-rpc", subSeeds: 6, make: newServeRPC},
	{name: "serve-kv", subSeeds: 6, make: newServeKV},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed derives the k-th input seed of a run from the run's seed
// (splitmix64 finalizer, so neighbouring seeds give unrelated inputs).
func subSeed(seed uint64, k int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x636e69)) }

// baseOutcome gathers the counters every workload reports from the
// cluster's public statistics, and starts the digest over them.
func baseOutcome(c *cluster.Cluster, res *cluster.Result) (outcome, hash.Hash) {
	o := outcome{makespan: res.Time}
	var ints, tx, txHits, evict, l2, l2Miss uint64
	for _, n := range c.Nodes {
		if n.Board.MC != nil {
			s := n.Board.MC.Stats
			tx += s.TxHits + s.TxMisses
			txHits += s.TxHits
			evict += s.Evictions
		}
		m := n.Mem.Stats
		l2 += m.L2Hits + m.L2Misses
		l2Miss += m.L2Misses
	}
	var txDMA, filtered uint64
	for _, ns := range res.PerNode {
		ints += ns.NIC.Interrupts
		txDMA += ns.NIC.TxDMAs
		filtered += ns.NIC.FilterServed
	}
	var throttled uint64
	for _, t := range res.Tenants {
		throttled += t.Throttled
	}
	gets := res.KV.HitLat.Count + res.KV.HostLat.Count
	o.counters = map[string]float64{
		"sim.events":                 float64(c.Executed()),
		"atm.cells":                  float64(res.Net.Cells),
		"atm.hops":                   float64(res.Net.HopCount),
		"atm.port_wait_cycles":       float64(res.Net.PortWaits),
		"atm.link_wait_cycles":       float64(res.Net.LinkWaits),
		"nic.interrupts":             float64(ints),
		"nic.tx_dmas":                float64(txDMA),
		"nic.filter_served":          float64(filtered),
		"msgcache.tx_lookups":        float64(tx),
		"msgcache.tx_hit_ratio":      ratio(txHits, tx),
		"msgcache.evictions":         float64(evict),
		"memsys.l2_accesses":         float64(l2),
		"memsys.l2_miss_ratio":       ratio(l2Miss, l2),
		"dsm.faults":                 float64(res.DSM.Faults),
		"dsm.fetches":                float64(res.DSM.Fetches),
		"cluster.overhead_cycles":    float64(res.AvgOverhead),
		"cluster.delay_cycles":       float64(res.AvgDelay),
		"cluster.computation_cycles": float64(res.AvgComputation),
		"rpc.queue_peak":             float64(res.RPC.QueuePeak),
		"kv.gets":                    float64(gets),
		"kv.board_hit_ratio":         ratio(res.KV.HitLat.Count, gets),
		"tenant.throttled":           float64(throttled),
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d|%+v|%+v|%+v|%+v|%+v|%+v|%+v|", res.Time, res.Net, res.DSM, res.Coll,
		res.RPC, res.KV, res.Tenants, res.Rel)
	for _, ns := range res.PerNode {
		fmt.Fprintf(h, "%+v|", ns)
	}
	return o, h
}

// ratio is num/den, or NaN (reported as absent) when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return nan
	}
	return float64(num) / float64(den)
}

// finish folds the latency samples into the digest and seals it.
func (o *outcome) finish(h hash.Hash) {
	var b [8]byte
	for _, v := range o.lat {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "|%d|%d|%d|%d", o.makespan, o.units, o.issued, o.missed)
	o.digest = hex.EncodeToString(h.Sum(nil))[:16]
}

// ---- dsm-cholesky ---------------------------------------------------

const cholNodes = 16

// cholesky is the paper's fine-grained application: sparse Cholesky
// on a 16-node CNI cluster on the single switch under central DSM.
type cholesky struct {
	gen spmat.Gen
	ch  *apps.Cholesky
}

func newCholesky(seed uint64, sz sizes) instance {
	// The bcsstk14 profile (band 40, 85% band fill, 6x6 coupling
	// blocks) scaled to sz.cholCols columns.
	return &cholesky{gen: spmat.Gen{
		Name: fmt.Sprintf("bench%d", sz.cholCols), N: sz.cholCols,
		Band: 40, BandFill: 0.85, Blocks: sz.cholCols * 60 / 1806, BlockDim: 6,
		Seed: seed,
	}}
}

func (w *cholesky) config() (config.Config, int) { return config.ForNIC(config.NICCNI), cholNodes }

func (w *cholesky) prepare() cluster.Setup {
	w.ch = apps.NewCholesky(w.gen)
	return w.ch.Setup
}

func (w *cholesky) attach(c *cluster.Cluster)                         { w.ch.Init(c) }
func (w *cholesky) run(c *cluster.Cluster) *cluster.Result            { return c.Run(w.ch.Body) }
func (w *cholesky) check(c *cluster.Cluster, _ *cluster.Result) error { return w.ch.Verify(c) }

func (w *cholesky) outcome(c *cluster.Cluster, res *cluster.Result) outcome {
	o, h := baseOutcome(c, res)
	o.units = uint64(w.ch.Supernodes())
	o.finish(h)
	return o
}

// ---- fabric-a2a -----------------------------------------------------

const (
	a2aOp    = 0x4642 // "FB"
	a2aBytes = 1024   // payload per message
	a2aTx    = 0x10000
	a2aRx    = 0x40000
)

// fabric is a board-level all-to-all on a 3D torus: every round each
// node sends one message to its destination under that round's seeded
// permutation, paced at the link serialization time of one message.
// Receive handlers run on the CNI board (AIH) and timestamp arrival.
// The run uses the sharded kernel at two shards.
type fabric struct {
	n     int
	perms [][]int32    // perms[r][i]: node i's destination in round r
	lat   [][]sim.Time // per receiving node
	last  []sim.Time   // per receiving node: latest arrival
	sent  []uint64     // per sending node
}

func newFabric(seed uint64, sz sizes) instance {
	r := newRand(seed)
	f := &fabric{n: sz.a2aNodes}
	for k := 0; k < sz.a2aRounds; k++ {
		p := make([]int32, f.n)
		for i, v := range r.Perm(f.n) {
			p[i] = int32(v)
		}
		f.perms = append(f.perms, p)
	}
	return f
}

func (f *fabric) config() (config.Config, int) {
	cfg := config.ForNIC(config.NICCNI)
	cfg.Topology = config.TopoTorus
	cfg.SimShards = 2
	return cfg, f.n
}

func (f *fabric) prepare() cluster.Setup { return nil }

func (f *fabric) attach(c *cluster.Cluster) {
	f.lat = make([][]sim.Time, f.n)
	f.last = make([]sim.Time, f.n)
	f.sent = make([]uint64, f.n)
	for i, node := range c.Nodes {
		b := node.Board
		b.MapPages(a2aTx, 1<<16)
		b.MapPages(a2aRx, 1<<16)
		b.Register(a2aOp, true, func(at sim.Time, m *nic.Message) {
			f.lat[i] = append(f.lat[i], at-m.Payload.(sim.Time))
			f.last[i] = max(f.last[i], at)
		})
	}
}

func (f *fabric) run(c *cluster.Cluster) *cluster.Result {
	pace := c.Cfg.SerializeCycles(nic.HeaderBytes + a2aBytes)
	return c.Run(func(w *dsm.Worker) {
		p, i := w.Proc(), w.Node()
		b := c.Nodes[i].Board
		for _, perm := range f.perms {
			if dst := int(perm[i]); dst != i {
				p.Sync()
				b.Send(p, &nic.Message{
					From: i, To: dst, Op: a2aOp,
					Size:         nic.HeaderBytes + a2aBytes,
					VAddr:        a2aTx,
					CacheTx:      true,
					DeliverVAddr: a2aRx,
					DeliverBytes: a2aBytes,
					Payload:      p.Local(),
				})
				f.sent[i]++
			}
			p.Advance(pace)
		}
	})
}

func (f *fabric) check(*cluster.Cluster, *cluster.Result) error {
	var sent, got uint64
	for i := range f.sent {
		sent += f.sent[i]
		got += uint64(len(f.lat[i]))
	}
	if got != sent {
		return fmt.Errorf("fabric-a2a: delivered %d of %d messages", got, sent)
	}
	return nil
}

func (f *fabric) outcome(c *cluster.Cluster, res *cluster.Result) outcome {
	o, h := baseOutcome(c, res)
	// The generators finish before their last messages land, so the
	// makespan runs to the last arrival.
	o.makespan = max(o.makespan, slices.Max(f.last))
	for _, l := range f.lat {
		o.lat = append(o.lat, l...)
	}
	o.units = uint64(len(o.lat))
	o.finish(h)
	return o
}

// ---- serve-rpc ------------------------------------------------------

const (
	rpcServers = 2
	rpcClients = 6
	rpcRate    = 5000 // requests per second per client
)

// serveRPC is open-loop Poisson request serving on the standard
// interface: 2 servers, 6 clients at about two thirds of the
// interface's sustained capacity. Latency runs from the scheduled send.
type serveRPC struct {
	arrivals [][]sim.Time // per client: scheduled send times, cycles
}

func newServeRPC(seed uint64, sz sizes) instance {
	cfg := config.ForNIC(config.NICStandard)
	gap := float64(cfg.CPUFreqMHz) * 1e6 / rpcRate
	r := newRand(seed)
	s := &serveRPC{}
	for i := 0; i < rpcClients; i++ {
		s.arrivals = append(s.arrivals, poisson(r, gap, sz.rpcRequests))
	}
	return s
}

// poisson draws n arrival times with exponential gaps of the given
// mean (cycles, at least 1).
func poisson(r *rand.Rand, mean float64, n int) []sim.Time {
	out := make([]sim.Time, n)
	var t sim.Time
	for i := range out {
		t += max(sim.Time(r.ExpFloat64()*mean), 1)
		out[i] = t
	}
	return out
}

func (s *serveRPC) config() (config.Config, int) {
	return config.ForNIC(config.NICStandard), rpcServers + rpcClients
}

func (s *serveRPC) prepare() cluster.Setup  { return nil }
func (s *serveRPC) attach(*cluster.Cluster) {}

func (s *serveRPC) run(c *cluster.Cluster) *cluster.Result {
	return c.Run(func(w *dsm.Worker) {
		p, id := w.Proc(), w.Node()
		node := c.RPC.Node(id)
		if id < rpcServers {
			node.StartServer(rpc.ServerConfig{
				WorkQueue: 64, FreeBufs: 64, Service: 1000, RespBytes: 1024,
				Policy: rpc.Delay, Clients: rpcClients / rpcServers,
			})
			node.Serve(p)
			return
		}
		conn := node.Dial((id-rpcServers)%rpcServers, 128, 0)
		for _, t := range s.arrivals[id-rpcServers] {
			p.WaitUntil(t)
			conn.Fire(p, t)
		}
		node.WaitIdle(p)
		node.Done(p)
	})
}

func (s *serveRPC) check(_ *cluster.Cluster, res *cluster.Result) error {
	st := res.RPC
	want := uint64(rpcClients * len(s.arrivals[0]))
	if st.Issued != want || st.Issued != st.Completed+st.Rejected+st.Expired {
		return fmt.Errorf("serve-rpc: issued %d (want %d) != completed %d + rejected %d + expired %d",
			st.Issued, want, st.Completed, st.Rejected, st.Expired)
	}
	return nil
}

func (s *serveRPC) outcome(c *cluster.Cluster, res *cluster.Result) outcome {
	o, h := baseOutcome(c, res)
	st := res.RPC
	o.lat = res.RPCLat.Samples
	o.units = st.Completed - st.DeadlineMiss
	o.issued, o.missed = st.Issued, st.Rejected+st.Expired
	o.finish(h)
	return o
}

// ---- serve-kv -------------------------------------------------------

const (
	kvServers  = 2
	kvClients  = 4
	kvKeys     = 4096
	kvZipfS    = 1.1
	kvDeadline = 100000 // cycles
)

// kvTenants are the two tenants: the victim sends GETs only with no
// contract at top priority; the aggressor offers 20% SETs at twice
// its token-bucket contract.
var kvTenants = []struct {
	class   tenant.Class
	rate    float64 // offered requests per second per client
	getFrac float64
}{
	{tenant.Class{ID: 0, Name: "victim", Priority: 0}, 4000, 1.0},
	{tenant.Class{ID: 1, Name: "aggressor", Priority: 1, Rate: 5000, Burst: 16}, 5000, 0.8},
}

type kvReq struct {
	at     sim.Time
	tenant int
	kind   kv.Kind
	key    uint64
}

// serveKV is two-tenant key-value serving on the CNI with isolation on
// and the NIC response cache on, Zipf s=1.1 over 4096 keys.
type serveKV struct {
	reqs [][]kvReq // per client, in schedule order
}

func newServeKV(seed uint64, sz sizes) instance {
	cfg := config.ForNIC(config.NICCNI)
	perSec := float64(cfg.CPUFreqMHz) * 1e6
	r := newRand(seed)
	zipf := rand.NewZipf(r, kvZipfS, 1, kvKeys-1)
	s := &serveKV{}
	for c := 0; c < kvClients; c++ {
		var reqs []kvReq
		for tn, t := range kvTenants {
			n := sz.kvVictim
			if tn > 0 {
				n = sz.kvAggressor
			}
			for _, at := range poisson(r, perSec/t.rate, n) {
				kind := kv.Get
				if r.Float64() >= t.getFrac {
					kind = kv.Set
				}
				reqs = append(reqs, kvReq{at: at, tenant: tn, kind: kind, key: zipf.Uint64()})
			}
		}
		sortReqs(reqs)
		s.reqs = append(s.reqs, reqs)
	}
	return s
}

// sortReqs orders a client's merged schedule by time, then tenant.
func sortReqs(reqs []kvReq) {
	slices.SortStableFunc(reqs, func(a, b kvReq) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.tenant, b.tenant))
	})
}

func (s *serveKV) config() (config.Config, int) {
	return config.ForNIC(config.NICCNI), kvServers + kvClients
}

func (s *serveKV) prepare() cluster.Setup  { return nil }
func (s *serveKV) attach(*cluster.Cluster) {}

func (s *serveKV) run(c *cluster.Cluster) *cluster.Result {
	classes := make([]tenant.Class, len(kvTenants))
	for i, t := range kvTenants {
		classes[i] = t.class
	}
	return c.Run(func(w *dsm.Worker) {
		p, id := w.Proc(), w.Node()
		node := c.KV.Node(id)
		if id < kvServers {
			node.StartServer(kv.ServerConfig{
				WorkQueue: 64, FreeBufs: 32, ServiceGet: 2000, ServiceSet: 2500,
				ValueBytes: 512, Policy: rpc.Delay, Clients: kvClients,
				Tenants: classes, Isolation: true,
			})
			for key := id; key < kvKeys; key += kvServers {
				node.Preload(uint64(key))
			}
			node.Serve(p)
			return
		}
		conns := make([]*kv.Conn, kvServers)
		for i := range conns {
			conns[i] = node.Dial(i, 64, kvDeadline)
		}
		for _, q := range s.reqs[id-kvServers] {
			p.WaitUntil(q.at)
			conns[q.key%kvServers].Fire(p, q.at, q.kind, q.tenant, q.key)
		}
		node.WaitIdle(p)
		node.Done(p)
	})
}

func (s *serveKV) check(_ *cluster.Cluster, res *cluster.Result) error {
	want := make([]uint64, len(kvTenants))
	for _, reqs := range s.reqs {
		for _, q := range reqs {
			want[q.tenant]++
		}
	}
	if len(res.Tenants) != len(kvTenants) {
		return fmt.Errorf("serve-kv: %d tenant ledgers, want %d", len(res.Tenants), len(kvTenants))
	}
	for i, t := range res.Tenants {
		if t.Issued != want[i] || t.Issued != t.Completed+t.Rejected+t.Throttled+t.Expired {
			return fmt.Errorf("serve-kv: tenant %d issued %d (want %d) != completed %d + rejected %d + throttled %d + expired %d",
				i, t.Issued, want[i], t.Completed, t.Rejected, t.Throttled, t.Expired)
		}
	}
	return nil
}

func (s *serveKV) outcome(c *cluster.Cluster, res *cluster.Result) outcome {
	o, h := baseOutcome(c, res)
	o.lat = res.TenantLat[0].Samples
	for _, t := range res.Tenants {
		o.units += t.OnTime
		o.issued += t.Issued
		o.missed += t.Rejected + t.Throttled + t.Expired
	}
	o.finish(h)
	return o
}
