// Package kv is a memcached-style key-value service riding the
// request/response transport of internal/rpc: GET/SET/DELETE requests
// with a flat 40-byte wire encoding (wire.go), per-node key-space
// sharding (key mod servers, decided by the client), and a versioned
// store at each key's home server. Connections, admission control,
// scheduling classes, deadlines and latency accounting are the
// transport's; this package adds what gives a request its meaning.
//
// Two things distinguish it from plain RPC serving:
//
// First, multi-tenant QoS (internal/tenant). Every request names its
// tenant; with isolation on, the transport gives each tenant its own
// scheduling class — its own share of credits on the node's device
// channel, a token-bucket rate limit and a strict/weighted-fair
// scheduler slot — enforced at the enqueue-time protection point where
// an arrival claims a buffer. With isolation off the same arrivals
// share one class, one bucket-less pool and one FIFO, which is the
// ablation the FS2 experiment measures. Clients keep a per-tenant
// ledger of outcomes and latency.
//
// Second, the NIC-resident response cache (cache.go). On the CNI a
// serving board keeps recently transmitted GET responses pinned in the
// Message Cache and screens arriving requests with the transport's
// board filter: a repeat GET whose response is still pinned is
// answered entirely by the receive processor — no DMA, no interrupt,
// no host cycles, the serving-era analogue of the paper's
// protocol-processing-on-the-board claim. The capability is gated on
// the datapath predicates (HandlersOnBoard) plus the
// config.NICResponseCache knob, so OSIRIS and the standard interface
// always pay the host path.
package kv

import (
	"fmt"

	"cni/internal/config"
	"cni/internal/nic"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/stats"
	"cni/internal/tenant"
)

// opRequest is the KV request operation: the 0x700 block (rpc holds
// 0x600), response and done marker at 0x701 and 0x702.
const opRequest uint32 = 0x700

// respHeader is the protocol header of a response (id, version,
// tenant, flag).
const respHeader = 24

// HeapBase is the virtual base of each node's pinned KV heap,
// disjoint from the RPC heap at 1<<30. Page layout: page 0 is the
// arrival window, pages 1..63 the per-connection request buffers,
// page 64 the scratch response buffer, and pages 65.. the response
// cache slots on a serving node.
const HeapBase uint64 = 1 << 31

const (
	rxPage      = 0
	scratchPage = 64
	slotPage0   = 65
)

// Outcome is the terminal state of one call.
type Outcome = rpc.Outcome

// The call outcomes.
const (
	OK        = rpc.OK
	NotFound  = rpc.NotFound
	Rejected  = rpc.Rejected
	Throttled = rpc.Throttled
	Expired   = rpc.Expired
)

// Stats counts one node's KV activity: the transport's client and
// server counters plus the NIC-resident response cache's. It is
// comparable, like rpc.Stats, so determinism tests can use ==.
type Stats struct {
	rpc.Stats
	CacheStats
}

// CacheStats counts the NIC-resident response cache (serving CNI
// boards only; BoardServed is the transport's) and splits GET latency
// by who served it.
type CacheStats struct {
	BoardMissed  uint64 // GETs the filter passed to the host
	Inserts      uint64 // responses retained by the board
	CacheEvicts  uint64 // LRU evictions under the pin budget
	WriteInvals  uint64 // entries killed by an arriving SET/DELETE
	InsertVetoes uint64 // inserts refused during a write window
	PinFails     uint64 // inserts refused for want of an MC frame

	HitLat  stats.Hist // GETs answered by the board
	HostLat stats.Hist // GETs answered by the host
}

// Merge folds o into s (cluster-level aggregation).
func (s *Stats) Merge(o Stats) {
	s.Stats.Merge(o.Stats)
	s.BoardMissed += o.BoardMissed
	s.Inserts += o.Inserts
	s.CacheEvicts += o.CacheEvicts
	s.WriteInvals += o.WriteInvals
	s.InsertVetoes += o.InsertVetoes
	s.PinFails += o.PinFails
	s.HitLat.Merge(o.HitLat)
	s.HostLat.Merge(o.HostLat)
}

// reqPDU is one request on the wire. The client encodes the operation
// into raw and notes its kind (send); the transport's header fields
// complete the record (encode). The server parses raw once per node —
// whichever of the board filter and the host handler sees it first —
// into req, whose Body is the PDU, and the parsed op and key.
type reqPDU struct {
	raw    [ReqBytes]byte
	kind   Kind // as issued (client side)
	parsed bool
	op     Kind
	key    uint64
	req    rpc.Request
}

// encode is the transport's Encode hook: the header fields join the
// operation in the flat wire record, so whichever processor
// demultiplexes the request can parse it alone.
func encode(r rpc.Request) any {
	pd := r.Body.(*reqPDU)
	q, _ := DecodeRequest(pd.raw[:])
	q.Tenant, q.Conn, q.ID, q.From, q.Deadline = uint16(r.Tenant), r.Conn, r.ID, uint32(r.From), r.Deadline
	EncodeRequest(pd.raw[:0], &q)
	return pd
}

// decode is the transport's Decode hook.
func decode(payload any) (*rpc.Request, bool) {
	pd := payload.(*reqPDU)
	if !pd.parsed {
		q, err := DecodeRequest(pd.raw[:])
		if err != nil {
			return nil, false
		}
		pd.op, pd.key = q.Kind, q.Key
		pd.req = rpc.Request{
			Conn: q.Conn, ID: q.ID, From: int(q.From), Deadline: q.Deadline,
			Tenant: int(q.Tenant), Body: pd,
		}
		pd.parsed = true
	}
	return &pd.req, true
}

// storeVal is one key's state at its home server.
type storeVal struct {
	version uint64
	live    bool
}

// Engine is the cluster-wide KV state: one per simulation, attached to
// every board (cluster.New does this).
type Engine struct {
	cfg   *config.Config
	t     *rpc.Engine
	nodes []*Node
}

// NewEngine returns an engine for a simulation using cfg.
func NewEngine(cfg *config.Config) *Engine {
	pb := cfg.PageBytes
	return &Engine{cfg: cfg, t: rpc.NewService(cfg, rpc.Service{
		Name: "kv", Op: opRequest, Heap: HeapBase, RxOffset: uint64(rxPage * pb),
		MapBytes: (scratchPage + 1) * pb, ReqHeader: ReqBytes, RespHeader: respHeader,
		Encode: encode, Decode: decode,
	})}
}

// Node returns the endpoint attached for node i.
func (e *Engine) Node(i int) *Node { return e.nodes[i] }

// Attach registers the KV protocol on b and returns the node's
// endpoint. Registration costs nothing at run time; heap mapping,
// buffers and cache state appear only when a role is configured.
func (e *Engine) Attach(b *nic.Board) *Node {
	n := &Node{Node: e.t.Attach(b), e: e, b: b}
	n.SetHandler((*handler)(n))
	e.nodes = append(e.nodes, n)
	return n
}

// ServerConfig sizes one node's serving state.
type ServerConfig struct {
	// WorkQueue bounds the per-tenant work queue (the shared queue with
	// isolation off).
	WorkQueue int
	// FreeBufs is the total receive-buffer budget; with isolation on it
	// is split evenly across the tenants (min 1 each).
	FreeBufs int
	// ServiceGet / ServiceSet are the CPU costs of serving one GET /
	// one SET-or-DELETE, in cycles.
	ServiceGet sim.Time
	ServiceSet sim.Time
	// ValueBytes is the GET response payload size.
	ValueBytes int
	// Policy is what to do with requests that cannot be admitted.
	Policy rpc.Policy
	// Clients is how many client nodes will send a done marker.
	Clients int
	// Tenants are the QoS classes; empty means one uncontracted tenant.
	Tenants []tenant.Class
	// Isolation turns the per-tenant machinery on: per-tenant credit
	// shares, token buckets, and the priority/weighted scheduler. Off,
	// every arrival shares one pool and one FIFO regardless of tenant.
	Isolation bool
}

// Node is one machine's KV endpoint: the transport endpoint (Serve,
// WaitIdle, Done, the transport Stats) plus the store, the board
// cache and the client's per-tenant ledgers.
type Node struct {
	*rpc.Node
	e *Engine
	b *nic.Board

	// Server state.
	sc     ServerConfig
	store  map[uint64]storeVal
	bcache *boardCache

	// Cache counts the response cache; Counters merges it with Stats.
	Cache CacheStats
	// HitLat/HostLat hold the exact samples behind the Cache latency
	// histograms; TStats/TLat are the per-tenant ledgers (client side:
	// outcomes and latency; sized by the largest tenant id seen).
	HitLat  stats.Latencies
	HostLat stats.Latencies
	TStats  []tenant.Stats
	TLat    []stats.Latencies
}

// Counters reports the node's KV counters, transport and cache.
func (n *Node) Counters() Stats { return Stats{Stats: n.Stats, CacheStats: n.Cache} }

// handler is the node as the transport's rpc.Handler, a Node under
// another name (so installing it allocates nothing).
type handler Node

func (h *handler) Handle(p *sim.Proc, r *rpc.Request) { (*Node)(h).handle(p, r) }
func (h *handler) Settled(r *rpc.Request)             { (*Node)(h).settled(r) }
func (h *handler) Answered(at sim.Time, c *rpc.Call)  { (*Node)(h).answered(at, c) }

// pageBytes is the node's page size.
func (n *Node) pageBytes() uint64 { return uint64(n.e.cfg.PageBytes) }

func (n *Node) scratchSlot() uint64 { return HeapBase + scratchPage*n.pageBytes() }

// growTenant ensures the per-tenant ledgers cover tenant t.
func (n *Node) growTenant(t int) {
	for len(n.TStats) <= t {
		n.TStats = append(n.TStats, tenant.Stats{})
		n.TLat = append(n.TLat, stats.Latencies{})
	}
}

// StartServer configures the node to serve requests. Call before the
// simulation runs; buffers are preposted outside simulated time, the
// OSIRIS setup discipline.
func (n *Node) StartServer(sc ServerConfig) {
	if sc.ServiceGet <= 0 {
		sc.ServiceGet = 1
	}
	if sc.ServiceSet <= 0 {
		sc.ServiceSet = sc.ServiceGet
	}
	n.sc = sc
	n.store = make(map[uint64]storeVal)

	// The response cache and its slots, where the board can run it.
	nslots := 0
	if n.b.HandlersOnBoard() && n.e.cfg.NICResponseCache && n.b.MC != nil &&
		sc.ValueBytes <= int(n.pageBytes()) {
		frames := n.e.cfg.ResponseCacheFrames
		if frames <= 0 {
			frames = n.b.MC.Frames() / 2
		}
		if limit := n.b.MC.Frames() - 2; frames > limit {
			frames = limit
		}
		if frames > 0 {
			nslots = max(4*frames, 64)
			n.bcache = newBoardCache(n.b, HeapBase+slotPage0*n.pageBytes(),
				n.pageBytes(), frames, nslots)
		}
	}
	n.MapHeap((slotPage0 + nslots) * int(n.pageBytes()))
	n.Node.StartServer(rpc.ServerConfig{
		WorkQueue: sc.WorkQueue, FreeBufs: sc.FreeBufs, Policy: sc.Policy,
		Clients: sc.Clients, Tenants: sc.Tenants, Isolation: sc.Isolation,
	})
	if n.bcache != nil {
		n.SetFilter(n.boardFilter)
	}
	n.growTenant(max(len(sc.Tenants), 1) - 1)
}

// Preload installs key at version 1 in the serving node's store before
// the simulation runs (a pre-populated dataset, so workload GETs hit
// live keys instead of measuring a miss storm).
func (n *Node) Preload(key uint64) {
	if n.store == nil {
		panic(fmt.Sprintf("kv: node %d Preload before StartServer", n.b.Node()))
	}
	n.store[key] = storeVal{version: 1, live: true}
}

// Conn is one logical client connection to a server node.
type Conn struct {
	*rpc.Conn
	n        *Node
	setBytes int
}

// Dial opens a logical connection from this node to server. setBytes
// is the SET value payload size; deadline (cycles, 0 = none) bounds
// each request issued on the connection.
func (n *Node) Dial(server int, setBytes int, deadline sim.Time) *Conn {
	return &Conn{Conn: n.Node.Dial(server, setBytes, deadline), n: n, setBytes: setBytes}
}

// send encodes one request for tenant tn and hands it to the
// transport, which measures latency from issuedAt (the scheduled
// arrival under open loop — send-path backup is part of the measured
// latency, no coordinated omission).
func (c *Conn) send(p *sim.Proc, issuedAt sim.Time, kind Kind, tn int, key uint64) *rpc.Call {
	c.n.growTenant(tn)
	c.n.TStats[tn].Issued++
	q := Request{Kind: kind, Key: key}
	if kind == Set {
		q.ValBytes = uint32(c.setBytes)
	}
	pd := &reqPDU{kind: kind}
	EncodeRequest(pd.raw[:0], &q)
	return c.Issue(p, issuedAt, tn, int(q.ValBytes), pd)
}

// Fire issues one request asynchronously (open loop).
func (c *Conn) Fire(p *sim.Proc, issuedAt sim.Time, kind Kind, tn int, key uint64) {
	c.send(p, issuedAt, kind, tn, key)
}

// Call issues one request and blocks until its response arrives
// (closed loop), reporting the outcome and the key's version.
func (c *Conn) Call(p *sim.Proc, kind Kind, tn int, key uint64) (Outcome, uint64) {
	p.Sync()
	ca := c.send(p, p.Local(), kind, tn, key)
	ca.Wait(p)
	return ca.Outcome, ca.Val
}

// boardFilter is the CNI response-cache screening handler, running on
// the board's receive processor for every arriving KV request (cost:
// AIHHandlerCycles, charged by the receive path). A GET that hits the
// index is answered from its pinned Message Cache page — SendAt from
// board context is free on the CNI, and the transmit probe hits, so
// the reply leaves with no DMA and the host never runs. A SET or
// DELETE invalidates the key's entry right here, at the earliest
// moment the board knows about the write, and opens the insert-veto
// window that closes when the host settles the write.
func (n *Node) boardFilter(at sim.Time, r *rpc.Request) *nic.Message {
	pd := r.Body.(*reqPDU)
	if pd.op != Get {
		if n.bcache.writeArrived(pd.key) {
			n.Cache.WriteInvals++
		}
		return nil
	}
	e, ok := n.bcache.lookup(pd.key, at)
	if !ok {
		n.Cache.BoardMissed++
		return nil
	}
	m := n.Reply(r, OK, e.version, n.sc.ValueBytes)
	m.VAddr = n.bcache.SlotAddr(pd.key)
	m.CacheTx = true
	m.NoFlush = true // board memory: there are no host cache lines to flush
	return m
}

// settled closes the board-side write window for a SET/DELETE the
// server answered.
func (n *Node) settled(r *rpc.Request) {
	if pd := r.Body.(*reqPDU); n.bcache != nil && pd.op != Get {
		n.bcache.writeDone(pd.key)
	}
}

// apply runs op on key against the store, returning the outcome and
// the key's (possibly new) version.
func (n *Node) apply(op Kind, key uint64) (Outcome, uint64) {
	v := n.store[key]
	switch op {
	case Set:
		v.version++
		v.live = true
		n.store[key] = v
		return OK, v.version
	case Del:
		v.version++
		v.live = false
		n.store[key] = v
		return OK, v.version
	default:
		if !v.live {
			return NotFound, v.version
		}
		return OK, v.version
	}
}

// handle serves one request for the transport: charge the operation's service
// cost, apply it to the store and respond — a GET hit with its value,
// anything else with a small ack or miss.
func (n *Node) handle(p *sim.Proc, r *rpc.Request) {
	pd := r.Body.(*reqPDU)
	service := n.sc.ServiceGet
	if pd.op != Get {
		service = n.sc.ServiceSet
	}
	p.Advance(service)
	p.Sync()
	out, version := n.apply(pd.op, pd.key)
	if pd.op == Get && out == OK {
		n.respondValue(p, r, pd.key, version)
	} else {
		n.b.Send(p, n.Reply(r, out, version, 0))
	}
}

// respondValue sends a GET's value response. The host composes the
// value into the response buffer (WriteBuffer: real cache-hierarchy
// write cost, and the board learns of the write) and transmits with
// CacheTx so the Message Cache binds it. When the board cache wants to
// retain the response it is transmitted from the key's slot page and
// the page pinned after the transmit binds it; otherwise it leaves
// from the shared scratch page, the plain hot-buffer path.
func (n *Node) respondValue(p *sim.Proc, r *rpc.Request, key, version uint64) {
	vaddr := n.scratchSlot()
	retain := false
	if n.bcache != nil {
		if n.bcache.writePending(key) {
			n.Cache.InsertVetoes++
		} else {
			vaddr = n.bcache.SlotAddr(key)
			retain = true
		}
	}
	p.Advance(n.b.WriteBuffer(vaddr, n.sc.ValueBytes))
	p.Sync()
	m := n.Reply(r, OK, version, n.sc.ValueBytes)
	m.VAddr = vaddr
	m.CacheTx = true
	n.b.Send(p, m)
	if retain {
		evictsBefore := n.bcache.valid
		if n.bcache.insert(key, version, p.Local()) {
			n.Cache.Inserts++
			if n.bcache.valid == evictsBefore {
				// Same occupancy after an insert into a full budget or an
				// occupied slot: something was displaced.
				n.Cache.CacheEvicts++
			}
		} else if n.bcache.writePending(key) {
			n.Cache.InsertVetoes++
		} else {
			n.Cache.PinFails++
		}
	}
}

// answered is the client-side ledger: per-tenant outcomes and latency,
// and the GET latency split between board-served and host-served.
func (n *Node) answered(at sim.Time, c *rpc.Call) {
	tn := c.Tenant
	n.growTenant(tn)
	ts := &n.TStats[tn]
	switch c.Outcome {
	case OK, NotFound:
		ts.Completed++
		lat := at - c.Issued
		n.TLat[tn].Add(lat)
		ts.Lat = n.TLat[tn].Hist
		if c.Deadline == 0 || at <= c.Deadline {
			ts.OnTime++
		}
		if c.Body.(*reqPDU).kind == Get {
			if c.Board {
				n.HitLat.Add(lat)
				n.Cache.HitLat = n.HitLat.Hist
			} else {
				n.HostLat.Add(lat)
				n.Cache.HostLat = n.HostLat.Hist
			}
		}
	case Rejected:
		ts.Rejected++
	case Throttled:
		ts.Throttled++
	case Expired:
		ts.Expired++
	}
}
