// Package rpc is the one request/response transport of the simulated
// cluster: many logical connections multiplexed over the per-node
// Application Device Channel queues of the CNI paper — the
// serving-style workload the ADCs exist for, applications sending and
// receiving on the critical path with no OS involvement. Every serving
// protocol rides it: the plain RPC service of this package (NewEngine)
// and the key-value store of internal/kv (NewService with its own op
// block, heap, wire codec and Handler).
//
// One Engine attaches to every board of a simulated cluster (the same
// pattern as internal/collective); a Node is one machine's endpoint,
// acting as server, client or both. Requests carry per-connection
// request ids, a tenant and absolute deadlines. A server sorts
// arrivals into scheduling classes — one shared class, or one per
// tenant with isolation on — each with its own bounded work queue in a
// tenant.Sched, its own token bucket and its own share of credits on
// the node's one device channel. Admission control derives from those
// credits, which the ADC free queue mirrors: when a class's credits run
// dry (no receive buffer for the arrival) the request is shed with an
// immediate reject or delayed in board memory until a buffer frees, by
// policy. On the standard interface — which has no device channels —
// the identical admission logic runs against a kernel buffer pool of
// the same size, so the interfaces differ only in their per-request
// notification and data-path costs, exactly the comparison the paper's
// evaluation makes.
//
// Per-request latency lands in a log2 histogram plus the exact sample
// set (internal/stats), so p50/p99/p999 extraction is exact;
// cluster.Result aggregates the Stats across nodes.
package rpc

import (
	"fmt"

	"cni/internal/config"
	"cni/internal/nic"
	"cni/internal/sim"
	"cni/internal/stats"
	"cni/internal/tenant"
)

// HeapBase is the virtual base of each node's pinned RPC heap: the hot
// response buffer, per-connection request buffers and the receive
// window live here, registered with the device channel at attach time
// so the enqueue-time protection check passes.
const HeapBase uint64 = 1 << 30

// HeapBytes is the pinned RPC heap per node.
const HeapBytes = 1 << 20

// rpcService is the plain RPC protocol: the 0x600 op block (DSM uses
// 0x1xx/0x2xx, message passing 0x3xx/0x4xx, collectives 0x5xx), the
// hot response buffer on heap page 0 and the receive window half-way
// up the heap.
var rpcService = Service{
	Name: "rpc", Op: 0x600, Heap: HeapBase, RxOffset: HeapBytes / 2,
	MapBytes: HeapBytes, ReqHeader: 16, RespHeader: 16,
	Encode: func(r Request) any { return &r },
	Decode: func(payload any) (*Request, bool) { return payload.(*Request), true },
}

// Service is one request/response protocol riding the transport: its
// op block, its pinned heap and its message sizes. Heap pages 1..63
// are the per-connection request buffers of every service.
type Service struct {
	Name string // prefix of panic messages
	// Op is the request operation; the response is Op+1 and the
	// client-done marker Op+2.
	Op uint32
	// Heap is the virtual base of each node's pinned heap and RxOffset
	// the offset of the window arriving payloads land in.
	Heap     uint64
	RxOffset uint64
	// MapBytes is the heap prefix a node pins when it takes a role; a
	// server needing more maps it (MapHeap) before StartServer.
	MapBytes int
	// ReqHeader and RespHeader are the protocol bytes a request and a
	// response carry beyond the board header and any payload.
	ReqHeader, RespHeader int
	// Encode builds a request's wire payload and Decode recovers the
	// request from it at the server, reporting false for one that does
	// not parse.
	Encode func(r Request) any
	Decode func(payload any) (*Request, bool)
}

// Handler gives a service's requests their meaning on one node.
type Handler interface {
	// Handle runs on the server proc for each admitted request whose
	// deadline has not passed, after the dequeue cost: it charges the
	// service cost and sends the response (Reply).
	Handle(p *sim.Proc, r *Request)
	// Settled runs once the server has answered a request it holds a
	// class for: served, shed, throttled or expired.
	Settled(r *Request)
	// Answered runs on the client as a response completes c.
	Answered(at sim.Time, c *Call)
}

// Policy selects what a server does with a request it cannot admit
// (free queue dry, or work queue full).
type Policy int

const (
	// Shed rejects the request immediately: the board sends a small
	// reject response and the client counts it as Rejected.
	Shed Policy = iota
	// Delay parks the request (the board retains the PDU in its memory;
	// the kernel, in an sk_buff, on the standard interface) and admits
	// it when a buffer and a queue slot free up.
	Delay
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Shed:
		return "shed"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Outcome is the terminal state of one call; the response carries it.
type Outcome uint8

// The call outcomes. OK and NotFound complete a call; the others are
// sheds.
const (
	OK        Outcome = iota
	Rejected          // shed by server admission (buffers or queue), or no class for the tenant
	Expired           // the deadline passed before service
	NotFound          // served, nothing to return (a KV miss)
	Throttled         // shed by the tenant's token bucket
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Rejected:
		return "rejected"
	case Expired:
		return "expired"
	case NotFound:
		return "notfound"
	case Throttled:
		return "throttled"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Stats counts one node's serving activity (client and server roles).
type Stats struct {
	// Client side.
	Issued       uint64 // requests sent
	Completed    uint64 // OK and NotFound responses received
	Rejected     uint64 // requests shed by a server
	Throttled    uint64 // requests shed by a tenant's token bucket
	Expired      uint64 // requests whose deadline passed before service
	DeadlineMiss uint64 // completing responses that arrived after the deadline

	// Server side.
	Served      uint64 // requests serviced by the host (including expired ones)
	BoardServed uint64 // requests answered by the board filter
	FreeDry     uint64 // arrivals that found their class's free queue dry
	QueueFull   uint64 // arrivals that found their class's work queue full
	Delayed     uint64 // arrivals parked under the Delay policy
	Malformed   uint64 // arrivals that failed to decode or named no known tenant
	QueuePeak   int    // work-queue high-water mark (per class)
	ParkedPeak  int    // parked-request high-water mark

	// Lat is the log2 histogram of completed-request latency (issue to
	// response receipt) in CPU cycles, recorded on the client that
	// issued the request. Stats stays a plain comparable value so
	// determinism tests can use ==; the exact sample set behind the
	// percentiles lives in Node.Lat and cluster.Result.RPCLat.
	Lat stats.Hist
}

// Merge folds o into s (cluster-level aggregation).
func (s *Stats) Merge(o Stats) {
	s.Issued += o.Issued
	s.Completed += o.Completed
	s.Rejected += o.Rejected
	s.Throttled += o.Throttled
	s.Expired += o.Expired
	s.DeadlineMiss += o.DeadlineMiss
	s.Served += o.Served
	s.BoardServed += o.BoardServed
	s.FreeDry += o.FreeDry
	s.QueueFull += o.QueueFull
	s.Delayed += o.Delayed
	s.Malformed += o.Malformed
	s.QueuePeak = max(s.QueuePeak, o.QueuePeak)
	s.ParkedPeak = max(s.ParkedPeak, o.ParkedPeak)
	s.Lat.Merge(o.Lat)
}

// Request is one request as the server sees it. The plain service
// sends it as the wire payload itself.
type Request struct {
	Conn     uint32
	ID       uint64
	From     int      // requesting node
	Deadline sim.Time // absolute; 0 = none
	Tenant   int
	Body     any // the service's own request (nil for plain RPC)
}

// respMsg is the wire payload of a response.
type respMsg struct {
	id    uint64
	out   Outcome
	val   uint64 // the service's value (a KV key's version)
	board bool   // sent by the board filter
}

// parked is one request held back by the Delay policy. holds records
// whether the arrival got a receive buffer (and so owns a credit of
// its class) before the work queue turned it away; a dry-queue arrival
// waits for a credit as well as a work-queue slot.
type parked struct {
	r     *Request
	class int
	holds bool
}

// Call is one outstanding client request.
type Call struct {
	Issued   sim.Time
	Deadline sim.Time
	Tenant   int
	Body     any     // the body the request was issued with
	Val      uint64  // the response's service value
	Outcome  Outcome // set when the response arrives
	Board    bool    // answered by the server's board filter

	done   bool
	waiter *sim.Proc // closed-loop caller blocked on this request
}

// Wait blocks p until the call has its response.
func (c *Call) Wait(p *sim.Proc) {
	c.waiter = p
	for !c.done {
		p.Block()
	}
	c.waiter = nil
}

// Engine is the cluster-wide state of one service: one per simulation
// and service, attached to every board.
type Engine struct {
	cfg   *config.Config
	svc   Service
	nodes []*Node
}

// NewEngine returns the plain RPC engine for a simulation using cfg.
func NewEngine(cfg *config.Config) *Engine { return NewService(cfg, rpcService) }

// NewService returns an engine for svc; its nodes serve with the
// Handler a service installs (SetHandler).
func NewService(cfg *config.Config, svc Service) *Engine {
	return &Engine{cfg: cfg, svc: svc}
}

// Node returns the endpoint attached for node i.
func (e *Engine) Node(i int) *Node { return e.nodes[i] }

// rxSlot is the receive window where arriving payloads land, at the
// same address on every node (a fixed window keeps the model simple;
// arrival buffers are not receive-cached).
func (e *Engine) rxSlot() uint64 { return e.svc.Heap + e.svc.RxOffset }

// Attach registers the service's protocol handlers on b and returns
// the node's endpoint. Registration alone costs nothing at run time;
// the heap mapping and free-buffer preposting happen only when a role
// is configured (StartServer / Dial), so clusters that never speak the
// service are untouched.
func (e *Engine) Attach(b *nic.Board) *Node {
	n := &Node{e: e, b: b, node: b.Node()}
	n.h = (*plain)(n)
	b.Register(e.svc.Op, false, n.onRequest)
	b.Register(e.svc.Op+1, false, n.onResponse)
	b.Register(e.svc.Op+2, false, n.onDone)
	e.nodes = append(e.nodes, n)
	return n
}

// ServerConfig sizes one node's serving state.
type ServerConfig struct {
	// WorkQueue bounds each scheduling class's queue of admitted
	// requests.
	WorkQueue int
	// FreeBufs is the number of receive buffers preposted on the ADC
	// free queue (the kernel buffer pool on the standard interface);
	// admission control runs against this depth. With isolation on it
	// is split evenly across the tenants' classes (min 1 each). At most
	// the channel queue capacity (256) on the CNI.
	FreeBufs int
	// Service is the CPU cost of serving one plain RPC request, in
	// cycles.
	Service sim.Time
	// RespBytes is the plain RPC response payload size.
	RespBytes int
	// Policy is what to do with requests that cannot be admitted.
	Policy Policy
	// Clients is how many client nodes will send a done marker; Serve
	// returns once all of them have and the queues are empty.
	Clients int
	// Tenants are the QoS classes requests may name; empty means one
	// uncontracted tenant.
	Tenants []tenant.Class
	// Isolation gives every tenant its own scheduling class: a credit
	// share, a token bucket and a strict/weighted-fair scheduler slot.
	// Off, every arrival shares one class, one pool and one FIFO.
	Isolation bool
}

// Node is one machine's endpoint of a service.
type Node struct {
	e    *Engine
	node int
	b    *nic.Board
	h    Handler

	mapped int // heap bytes pinned so far

	// Server state. credits holds each class's receive buffers; their
	// sum is mirrored by the ADC free-queue depth on the CNI (see
	// reconcileFree) and models the same-size kernel buffer pool on the
	// standard interface.
	serving  bool
	sc       ServerConfig
	credits  []int
	buckets  []tenant.Bucket // per class; nil without isolation
	sched    *tenant.Sched[*Request]
	parkedq  []parked
	proc     *sim.Proc
	doneSeen int

	// Client state.
	conns    []*Conn
	nextConn uint32
	nextID   uint64
	pending  map[uint64]*Call // made on the first request
	waiter   *sim.Proc        // client blocked in WaitIdle

	Stats Stats
	// Lat holds the exact latency samples behind Stats.Lat, for exact
	// percentile extraction (Lat.Hist always equals Stats.Lat).
	Lat stats.Latencies
}

// SetHandler replaces the node's handler (the plain RPC service by
// default). Call before the simulation runs.
func (n *Node) SetHandler(h Handler) { n.h = h }

// MapHeap pins the first bytes of the node's service heap
// (device-channel region registration plus TLB entries on the CNI;
// no-op on the standard board), extending what is already pinned.
func (n *Node) MapHeap(bytes int) {
	if bytes <= n.mapped {
		return
	}
	n.b.MapPages(n.e.svc.Heap+uint64(n.mapped), bytes-n.mapped)
	n.mapped = bytes
}

// reqSlot returns the request buffer of connection c on the client:
// one page per connection (reused across the connection's requests, so
// it caches hot), on heap pages 1..63.
func (n *Node) reqSlot(c *Conn) uint64 {
	pb := uint64(n.e.cfg.PageBytes)
	return n.e.svc.Heap + pb + uint64(c.id%63)*pb
}

// StartServer configures the node to serve requests. Call before the
// simulation runs; the free buffers are preposted outside simulated
// time, the OSIRIS setup discipline.
func (n *Node) StartServer(sc ServerConfig) {
	if sc.WorkQueue <= 0 || sc.FreeBufs <= 0 {
		panic(fmt.Sprintf("%s: node %d server with work queue %d, free bufs %d",
			n.e.svc.Name, n.node, sc.WorkQueue, sc.FreeBufs))
	}
	if len(sc.Tenants) == 0 {
		sc.Tenants = []tenant.Class{{ID: 0}}
	}
	n.MapHeap(n.e.svc.MapBytes)
	n.serving = true
	n.sc = sc
	classes := []tenant.Class{{ID: 0}}
	n.credits = []int{sc.FreeBufs}
	if sc.Isolation {
		classes = sc.Tenants
		cps := float64(n.e.cfg.CPUFreqMHz) * 1e6
		n.credits = make([]int, len(classes))
		n.buckets = make([]tenant.Bucket, len(classes))
		for i, c := range classes {
			n.credits[i] = max(sc.FreeBufs/len(classes), 1)
			n.buckets[i] = tenant.NewBucket(c, cps)
		}
	}
	n.sched = tenant.NewSched[*Request](classes, sc.WorkQueue)
	n.reconcileFree()
}

// known reports whether a server has a class for tenant t.
func (n *Node) known(t int) bool { return t >= 0 && t < len(n.sc.Tenants) }

// class maps a tenant to its scheduling class: itself under isolation,
// the one shared class otherwise.
func (n *Node) class(t int) int {
	if n.sc.Isolation {
		return t
	}
	return 0
}

// SetFilter installs f as the service's board filter, the CNI's
// screening Application Interrupt Handler on the request op (a no-op
// on boards that cannot run handlers). f sees each arriving request
// that decodes and names a known tenant; it returns the response the
// board sends itself (built with Reply), or nil to pass the request to
// the host. Call after StartServer.
func (n *Node) SetFilter(f func(at sim.Time, r *Request) *nic.Message) {
	n.b.RegisterFilter(n.e.svc.Op, func(at sim.Time, m *nic.Message) bool {
		r, ok := n.e.svc.Decode(m.Payload)
		if !ok || !n.known(r.Tenant) {
			return false
		}
		resp := f(at, r)
		if resp == nil {
			return false
		}
		n.Stats.BoardServed++
		resp.Payload.(*respMsg).board = true
		n.b.SendAt(at, resp)
		return true
	})
}

// Conn is one logical client connection to a server node. Many
// connections multiplex over the node's single device channel; the
// connection id rides in the header's Aux word, so PATHFINDER could
// demultiplex per connection if a handler asked it to.
type Conn struct {
	n        *Node
	id       uint32
	server   int
	reqBytes int
	deadline sim.Time // relative; 0 = none
}

// Dial opens a logical connection from this node to server. reqBytes
// is the plain RPC request payload size; deadline (cycles, 0 = none)
// bounds each request issued on the connection.
func (n *Node) Dial(server int, reqBytes int, deadline sim.Time) *Conn {
	if server == n.node {
		panic(fmt.Sprintf("%s: node %d dialing itself", n.e.svc.Name, n.node))
	}
	n.MapHeap(n.e.svc.MapBytes)
	// Connection ids are node-local (dialing node in the high half, the
	// node's dial sequence in the low): a cluster-global counter would
	// make ids depend on the cross-node interleaving of Dial calls,
	// which sharded runs execute concurrently.
	c := &Conn{n: n, id: uint32(n.node)<<16 | n.nextConn, server: server, reqBytes: reqBytes, deadline: deadline}
	n.nextConn++
	n.conns = append(n.conns, c)
	return c
}

// Server reports the node the connection is dialed to.
func (c *Conn) Server() int { return c.server }

// Issue builds and transmits one request for tenant from p's context:
// body is the service's request and bytes its payload, delivered into
// the server's receive window. Latency is measured from issuedAt. For
// open-loop clients issuedAt is the scheduled arrival, which may be
// earlier than the proc's clock when the send path itself is backed up
// — that backup is part of the measured latency (no coordinated
// omission).
func (c *Conn) Issue(p *sim.Proc, issuedAt sim.Time, tenant, bytes int, body any) *Call {
	n := c.n
	id := n.nextID
	n.nextID++
	var deadline sim.Time
	if c.deadline > 0 {
		deadline = issuedAt + c.deadline
	}
	ca := &Call{Issued: issuedAt, Deadline: deadline, Tenant: tenant, Body: body}
	if n.pending == nil {
		n.pending = make(map[uint64]*Call)
	}
	n.pending[id] = ca
	n.Stats.Issued++
	payload := n.e.svc.Encode(Request{Conn: c.id, ID: id, From: n.node, Deadline: deadline, Tenant: tenant, Body: body})
	m := &nic.Message{
		From: n.node, To: c.server, Op: n.e.svc.Op, Aux: c.id,
		Size:    nic.HeaderBytes + n.e.svc.ReqHeader + bytes,
		VAddr:   n.reqSlot(c),
		CacheTx: true,
		Payload: payload,
	}
	if bytes > 0 {
		m.DeliverVAddr = n.e.rxSlot()
		m.DeliverBytes = bytes
	}
	n.b.Send(p, m)
	return ca
}

// Fire issues one plain RPC request asynchronously (open loop): the
// response is recorded when it arrives; latency is measured from
// issuedAt.
func (c *Conn) Fire(p *sim.Proc, issuedAt sim.Time) {
	c.Issue(p, issuedAt, 0, c.reqBytes, nil)
}

// Call issues one plain RPC request and blocks until its response
// arrives (closed loop). It reports the outcome; the latency sample is
// recorded by the response handler.
func (c *Conn) Call(p *sim.Proc) Outcome {
	p.Sync()
	ca := c.Issue(p, p.Local(), 0, c.reqBytes, nil)
	ca.Wait(p)
	return ca.Outcome
}

// Outstanding reports the number of requests awaiting responses.
func (n *Node) Outstanding() int { return len(n.pending) }

// WaitIdle blocks p until every issued request has a terminal outcome.
func (n *Node) WaitIdle(p *sim.Proc) {
	p.Sync()
	for len(n.pending) > 0 {
		n.waiter = p
		p.Block()
		n.waiter = nil
	}
}

// Done tells every dialed server this client is finished; servers
// exit once all clients are done and their queues drain. Call after
// WaitIdle.
func (n *Node) Done(p *sim.Proc) {
	sent := map[int]bool{}
	for _, c := range n.conns {
		if sent[c.server] {
			continue
		}
		sent[c.server] = true
		n.b.Send(p, &nic.Message{
			From: n.node, To: c.server, Op: n.e.svc.Op + 2,
			Size: nic.HeaderBytes + 8,
		})
	}
}

// reconcileFree settles the ADC free queue against the credits on a
// serving CNI node. The board pops one descriptor per host-path
// arrival at arrival time while the protocol's accounting runs at
// handler-notify time, so the two views diverge transiently
// (back-to-back arrivals, control messages consuming a descriptor);
// the credits are the authority — they are what admission control
// reads — and after every handler the ring is brought back to exactly
// their sum over the classes, so free-queue exhaustion on the wire and
// in the accounting coincide. The ring is the node's one device
// channel, so one node serves one service at a time.
func (n *Node) reconcileFree() {
	ch := n.b.Channel()
	if ch == nil || !n.serving {
		return
	}
	want := 0
	for _, c := range n.credits {
		want += c
	}
	for ch.Free.Len() > want {
		ch.Free.Pop()
	}
	for ch.Free.Len() < want {
		if err := n.b.TryPostFree(n.e.rxSlot(), n.e.cfg.PageBytes); err != nil {
			panic(fmt.Sprintf("%s: node %d replenishing free queue: %v", n.e.svc.Name, n.node, err))
		}
	}
}

// onRequest is the server-side arrival handler, running at host-notify
// time for requests the board filter did not consume.
func (n *Node) onRequest(at sim.Time, m *nic.Message) {
	if !n.serving {
		panic(fmt.Sprintf("%s: node %d received a request but is not serving", n.e.svc.Name, n.node))
	}
	if r, ok := n.e.svc.Decode(m.Payload); !ok {
		n.Stats.Malformed++
	} else {
		n.admit(at, r)
	}
	n.reconcileFree()
}

// admit runs QoS and admission control, in order: the tenant must have
// a class, then its token bucket must hold a token, then the class
// must have a receive buffer, then a work-queue slot; a request that
// fails the last two is shed or parked by policy.
func (n *Node) admit(at sim.Time, r *Request) {
	if !n.known(r.Tenant) {
		// Answered, so the client's call completes, but counted: the
		// client named a tenant this server has no contract for.
		n.Stats.Malformed++
		n.b.SendAt(at, n.Reply(r, Rejected, 0, 0))
		return
	}
	cl := n.class(r.Tenant)
	if n.buckets != nil && !n.buckets[cl].Take(at) {
		n.shed(at, r, Throttled)
		return
	}
	// A receive buffer is consumed if one is available; the free queue
	// itself is settled against the credits by the caller.
	consumed := n.credits[cl] > 0
	if consumed {
		n.credits[cl]--
	}
	switch {
	case !consumed:
		// Free queue dry: the request data has no receive buffer.
		n.Stats.FreeDry++
		if n.sc.Policy == Shed {
			n.shed(at, r, Rejected)
		} else {
			n.park(r, cl, false)
		}
	case !n.push(cl, r):
		n.Stats.QueueFull++
		if n.sc.Policy == Shed {
			n.shed(at, r, Rejected)
			n.credits[cl]++
		} else {
			// The parked request keeps its receive buffer.
			n.park(r, cl, true)
		}
	default:
		if n.proc != nil {
			n.proc.WakeAt(at)
		}
	}
}

// push queues r on class cl's work queue, reporting false when full.
func (n *Node) push(cl int, r *Request) bool {
	if !n.sched.Push(cl, r) {
		return false
	}
	n.Stats.QueuePeak = max(n.Stats.QueuePeak, n.sched.QueueLen(cl))
	return true
}

// park holds r back under the Delay policy.
func (n *Node) park(r *Request, cl int, holds bool) {
	n.parkedq = append(n.parkedq, parked{r: r, class: cl, holds: holds})
	n.Stats.Delayed++
	n.Stats.ParkedPeak = max(n.Stats.ParkedPeak, len(n.parkedq))
}

// shed answers r with out from board/handler context: a small inline
// control message (no buffer, no DMA). On the standard interface
// SendAt charges the kernel send path to the host CPU, as a
// kernel-issued reject would.
func (n *Node) shed(at sim.Time, r *Request, out Outcome) {
	n.b.SendAt(at, n.Reply(r, out, 0, 0))
	n.h.Settled(r)
}

// Reply builds the response to r carrying out and the service value
// val; bytes of payload are delivered into the client's receive
// window. Callers name the source buffer (VAddr, CacheTx) when the
// response transmits from host memory, and send it.
func (n *Node) Reply(r *Request, out Outcome, val uint64, bytes int) *nic.Message {
	m := &nic.Message{
		From: n.node, To: r.From, Op: n.e.svc.Op + 1, Aux: r.Conn,
		Size:    nic.HeaderBytes + n.e.svc.RespHeader + bytes,
		Payload: &respMsg{id: r.ID, out: out, val: val},
	}
	if bytes > 0 {
		m.DeliverVAddr = n.e.rxSlot()
		m.DeliverBytes = bytes
	}
	return m
}

// complete returns a served request's receive buffer to class cl and
// admits parked requests, oldest first, while the head's class has a
// work-queue slot (and, for buffer-less parks, a credit).
func (n *Node) complete(cl int) {
	n.credits[cl]++
	for len(n.parkedq) > 0 {
		pe := n.parkedq[0]
		if n.sched.QueueLen(pe.class) >= n.sc.WorkQueue {
			break
		}
		if !pe.holds {
			if n.credits[pe.class] <= 0 {
				break
			}
			// The parked request finally gets its receive buffer.
			n.credits[pe.class]--
		}
		n.parkedq = n.parkedq[1:]
		n.push(pe.class, pe.r)
	}
	n.reconcileFree()
}

// Serve runs the server loop on p: pop the scheduler's pick, charge
// the dequeue cost, answer an expired request with a small marker or
// hand a live one to the handler, and return the receive buffer. It
// returns once every client has sent its done marker and the queues
// are empty.
func (n *Node) Serve(p *sim.Proc) {
	if !n.serving {
		panic(fmt.Sprintf("%s: node %d Serve without StartServer", n.e.svc.Name, n.node))
	}
	n.proc = p
	dequeue := n.b.RecvDequeueCost()
	for {
		for n.sched.Len() > 0 {
			r, cl, _ := n.sched.Pop()
			p.Advance(dequeue)
			p.Sync()
			n.Stats.Served++
			if r.Deadline > 0 && p.Local() > r.Deadline {
				// The deadline passed while the request sat queued: skip
				// the service work, answer with a small expired marker.
				n.b.Send(p, n.Reply(r, Expired, 0, 0))
			} else {
				n.h.Handle(p, r)
			}
			n.h.Settled(r)
			n.complete(cl)
		}
		if n.doneSeen >= n.sc.Clients && n.sched.Len() == 0 && len(n.parkedq) == 0 {
			return
		}
		p.Block()
	}
}

// plain is the plain RPC service's Handler, a Node under another name
// (so installing it allocates nothing).
type plain Node

// Handle charges the service cost and responds from the hot response
// buffer — every OK response transmits from the same page, so on the
// CNI the Message Cache binds it once and later responses are transmit
// hits with no DMA, the hot-buffer serving benefit of transmit caching.
func (h *plain) Handle(p *sim.Proc, r *Request) {
	n := (*Node)(h)
	p.Advance(n.sc.Service)
	p.Sync()
	m := n.Reply(r, OK, 0, n.sc.RespBytes)
	m.VAddr, m.CacheTx = n.e.svc.Heap, true
	n.b.Send(p, m)
}

// Settled has nothing to settle.
func (*plain) Settled(*Request) {}

// Answered has nothing to record beyond Stats.
func (*plain) Answered(sim.Time, *Call) {}

// onResponse is the client-side arrival handler: match the request id,
// record the outcome and the latency sample, and wake whoever waits.
func (n *Node) onResponse(at sim.Time, m *nic.Message) {
	n.reconcileFree()
	rm := m.Payload.(*respMsg)
	ca, ok := n.pending[rm.id]
	if !ok {
		panic(fmt.Sprintf("%s: node %d response for unknown request %d", n.e.svc.Name, n.node, rm.id))
	}
	delete(n.pending, rm.id)
	ca.done = true
	ca.Outcome, ca.Val, ca.Board = rm.out, rm.val, rm.board
	// The application-side dequeue (ADC receive-queue pop) costs the
	// host CPU if it is busy; a blocked (waiting) client absorbs it in
	// its wake-up latency like the notify costs.
	n.b.PenalizeHost(n.b.RecvDequeueCost())
	switch rm.out {
	case OK, NotFound:
		n.Stats.Completed++
		n.Lat.Add(at - ca.Issued)
		n.Stats.Lat = n.Lat.Hist
		if ca.Deadline > 0 && at > ca.Deadline {
			n.Stats.DeadlineMiss++
		}
	case Rejected:
		n.Stats.Rejected++
	case Throttled:
		n.Stats.Throttled++
	case Expired:
		n.Stats.Expired++
	}
	n.h.Answered(at, ca)
	if ca.waiter != nil {
		ca.waiter.WakeAt(at)
	} else if n.waiter != nil && len(n.pending) == 0 {
		n.waiter.WakeAt(at)
	}
}

// onDone is the server-side client-finished marker.
func (n *Node) onDone(at sim.Time, m *nic.Message) {
	n.reconcileFree()
	n.doneSeen++
	if n.proc != nil {
		n.proc.WakeAt(at)
	}
}
