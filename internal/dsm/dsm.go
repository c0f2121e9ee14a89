// Package dsm implements the distributed shared memory system the CNI
// paper's evaluation runs: a lazy invalidate release consistency
// protocol (Keleher et al. [7], Gharachorloo et al. [6]) with vector
// timestamps, intervals, write notices, and multiple-writer twins and
// diffs, plus the synchronization machinery the three benchmark
// applications need — distributed locks, barriers, and a bag-of-tasks.
//
// The variant implemented is home-based LRC: every shared page has a
// static home node whose copy is authoritative; a releaser sends diffs
// of the pages it wrote to their homes, and a node that invalidated a
// page on an acquire refetches the whole page from the home. Fetches
// are version-gated — a page request names the (writer, interval)
// pairs the requester must observe and the home holds the reply until
// the corresponding diffs have been applied — so the protocol is
// correct regardless of message timing. DESIGN.md discusses why this
// variant preserves the traffic patterns the paper's figures depend on
// (repeated page sends from homes exercise transmit caching; diff
// sends out of received pages exercise receive caching).
//
// On the CNI board the protocol handlers are registered as Application
// Interrupt Handlers and run on the NIC's receive processor; on the
// standard interface the same handlers run on the host CPU behind an
// interrupt, which is exactly the overhead gap Tables 2-4 of the paper
// measure.
//
// Config.DSMOwnership selects between two manager organizations. The
// default ("central") is the home-based protocol above: every page's
// manager is its static home for the whole run. "distributed" is the
// Li/Hudak dynamic distributed manager: ownership migrates to
// write-faulting nodes, every node keeps a per-page probable-owner
// pointer, and requests or diffs that land on a past owner are
// forwarded one hop down the chain (with path compression on write
// requests). Barrier managers rotate with the barrier id and lock
// managers hash over the nodes, so no single host absorbs the
// synchronization metadata either. The forwarding handlers are the
// same AIHs: on the CNI a forward is issued by the board's receive
// processor with the owner table pinned in board memory
// (Board.HandlersOnBoard), while OSIRIS and the standard
// interface pay the host path on every hop.
package dsm

import (
	"fmt"
	"slices"

	"cni/internal/collective"
	"cni/internal/config"
	"cni/internal/nic"
	"cni/internal/sim"
	"cni/internal/trace"
)

// DebugPage, when >= 0, makes the runtime print every protocol event
// touching that page (testing/forensics aid; not for production runs).
var DebugPage int32 = -1

// SharedBase is the virtual address where the shared region is mapped
// on every node (identical everywhere, as the paper's fixed allocation
// of processor address space to DSM prescribes).
const SharedBase uint64 = 1 << 30

// MailboxBase is the per-node buffer where control payloads (write
// notice bundles) are DMAed.
const MailboxBase uint64 = 1 << 29

// Protocol operations (PATHFINDER-visible message kinds).
const (
	OpDiff uint32 = 10 + iota
	OpPageReq
	OpPageReply
	OpLockAcq
	OpLockGrant
	OpLockRel
	OpBarEnter
	OpBarRelease
	OpTaskReq
	OpTaskReply
	OpTaskPush
	OpUpdate
)

// Interval is one release interval: the pages Node wrote between its
// (Idx-1)th and Idx-th releases.
type Interval struct {
	Node  int
	Idx   int32
	Pages []int32
}

// bytes is the modeled wire size of an interval record.
func (iv *Interval) bytes() int { return 12 + 4*len(iv.Pages) }

func noticeBytes(ivs []*Interval) int {
	n := 0
	for _, iv := range ivs {
		n += iv.bytes()
	}
	return n
}

// --- wire payloads (carried by reference through the simulated fabric) ---

type diffEntry struct {
	word int32
	val  uint64
}

type diffMsg struct {
	page    int32
	writer  int
	idx     int32 // writer's interval index
	entries []diffEntry
	// hops counts probable-owner chain forwards (distributed ownership
	// only): a diff that reaches a past owner chases the current one.
	hops int
}

type pageReqMsg struct {
	page int32
	from int
	// write marks a write fault: the page will be modified and so is
	// "likely to migrate" — the home sets the header cache bit on the
	// reply and the requester's board binds it (receive caching).
	// Read-only fetches are not bound, keeping the Message Cache free
	// for pages that will actually be retransmitted.
	write bool
	// need lists the (writer, interval) pairs the home must have
	// applied before replying, sorted by writer for determinism.
	need []writeNeed
	// hops counts probable-owner chain forwards (distributed ownership
	// only); the requester folds it into its chain histogram.
	hops int
}

type pageReplyMsg struct {
	page int32
	to   int
	// from is the node that served the request — the static home under
	// central ownership, the current owner under distributed ownership.
	// The requester installs the page from this node's copy and updates
	// its probable-owner pointer to it.
	from int
	// own marks an ownership grant (distributed, write faults on a
	// clean owner copy): the requester becomes the page's owner and
	// manager.
	own bool
	// applied snapshots the home's per-writer applied vector at reply
	// time, seeding the member's own tracking under the update
	// protocol (and the new owner's under distributed ownership).
	applied []int32
	// req is the request this reply answers; the requester clears only
	// the requirements the reply was gated on, because write notices
	// that arrived while the fetch was in flight are NOT covered by it.
	req *pageReqMsg
}

type lockAcqMsg struct {
	lock int
	from int
	vc   []int32
}

type lockGrantMsg struct {
	lock      int
	to        int
	notices   []*Interval
	managerVC []int32
}

type lockRelMsg struct {
	lock    int
	from    int
	vc      []int32
	notices []*Interval // releaser intervals the manager hasn't seen
}

type barEnterMsg struct {
	barrier int
	from    int
	vc      []int32
	notices []*Interval
}

type barReleaseMsg struct {
	barrier   int
	to        int
	notices   []*Interval
	managerVC []int32
}

type taskReqMsg struct{ from int }

type taskReplyMsg struct {
	to   int
	task int // -1 when all tasks are done
}

// taskPushMsg feeds the bag: newly enabled tasks and/or completions
// (the right-looking Cholesky fan-out pushes a column once its last
// update lands, and reports each finished column).
type taskPushMsg struct {
	from  int
	tasks []int
	done  int
}

// updateMsg is one forwarded diff of the eager-update protocol.
// seenOfMember is the home's applied index FOR THE RECEIVER at forward
// time: if the receiver has released a newer interval for this page,
// the push's values may predate the receiver's own writes and must not
// be applied (the receiver falls back to an invalidate+fault).
type updateMsg struct {
	diff         *diffMsg
	seenOfMember int32
}

// ChainHist is a histogram of probable-owner chain lengths observed by
// completed page fetches: bucket i counts fetches forwarded i times,
// with the last bucket absorbing everything longer. A fixed-size array
// keeps Stats comparable (the determinism tests compare with ==).
type ChainHist [8]uint64

// observe records one completed fetch that took hops forwards.
func (h *ChainHist) observe(hops int) {
	if hops >= len(h) {
		hops = len(h) - 1
	}
	h[hops]++
}

// Merge accumulates other into h.
func (h *ChainHist) Merge(other ChainHist) {
	for i, v := range other {
		h[i] += v
	}
}

// Total reports the number of observed fetches.
func (h ChainHist) Total() uint64 {
	var t uint64
	for _, v := range h {
		t += v
	}
	return t
}

// Stats aggregates one node's protocol activity.
type Stats struct {
	PageFaults   uint64 // accesses that stalled or fetched
	PageFetches  uint64 // page requests this node served as home/owner
	DiffsSent    uint64
	DiffWords    uint64
	DiffsApplied uint64
	Invalidates  uint64
	LockOps      uint64
	BarrierOps   uint64
	TasksTaken   uint64
	// OwnerMsgs counts protocol messages this node handled in a
	// manager/owner role: page requests and diffs at the page's
	// home/owner, lock traffic at the lock's manager, barrier entries
	// at the barrier's manager, task traffic at the bag server. The
	// per-node maximum is the manager-hotspot metric FD1 plots.
	OwnerMsgs uint64
	// Forwards counts probable-owner chain forwards this node issued
	// (distributed ownership only).
	Forwards uint64
	// Migrations counts ownerships this node acquired on write faults
	// (distributed ownership only).
	Migrations uint64
	// Chain is the chain-length histogram of this node's completed
	// fetches (distributed ownership only; central fetches take 0 hops).
	Chain    ChainHist
	Overhead sim.Time // protocol cycles charged to the app CPU
}

// pageState is a node's access state for one shared page.
type pageState uint8

const (
	// pageInvalid: the local copy is stale; an access faults and
	// fetches from the home.
	pageInvalid pageState = iota
	// pageValid: the local copy is current as of the node's last
	// acquire; accesses proceed at memory speed.
	pageValid
	// pageHomeStale: this node is the page's home and has seen write
	// notices for diffs that have not arrived yet. The copy stays
	// mapped (homes are never invalidated) but the next access must
	// stall until the noticed diffs are applied — otherwise a home
	// read-modify-write could overwrite an in-flight remote update.
	pageHomeStale
)

// pageHome holds the home-side bookkeeping for one page.
type pageHome struct {
	applied []int32   // per-writer highest applied interval index
	waiting []waitReq // version-gated requests parked here
	// homeStalled marks that this node's worker is blocked waiting
	// for noticed diffs on this page (at the home under either
	// protocol; at any copy holder under the update protocol).
	homeStalled bool
	// copyset marks, per node, the holders of a copy of this page;
	// under the update protocol the home forwards every diff to them.
	// Maintained only at the home.
	copyset []bool
	// exported marks that some other node has fetched this page: from
	// then on the home flushes it at every release (the "impending
	// message transfer" discipline); never-exported pages skip the
	// flush and pay it once on their first fetch.
	exported bool
}

// writeNeed is one pending write notice for a page: the page must not
// be used before writer's interval idx has been applied at its home.
type writeNeed struct {
	writer int
	idx    int32
}

type waitReq struct {
	req *pageReqMsg
	at  sim.Time
}

// lockState is the manager-side state of one lock.
type lockState struct {
	held   bool
	holder int
	queue  []*lockAcqMsg
}

// barrierState is the manager-side state of one barrier.
type barrierState struct {
	arrived int
	enters  []*barEnterMsg
}

// Runtime is one node's DSM engine. All Runtimes of a cluster share
// the Globals.
//
// Per-page state lives in slices indexed by page, sized once from the
// page count fixed at Globals.Freeze. Lock, barrier and grant state is
// keyed by sparse ids and stays in maps. The clock state (vc, log,
// lastBarVC) has one slot per node, so it is allocated by join the
// first time the node takes part in the protocol: a cluster that never
// uses the DSM carries no O(nodes²) clocks.
type Runtime struct {
	G      *Globals
	node   int
	nnodes int

	k     *sim.Kernel
	cfg   *config.Config
	board *nic.Board

	data  []uint64    // this node's copy of the whole shared region
	state []pageState // per page access state
	// twin holds the pre-write copy of each page written this interval
	// (nil when none). A twin is reachable only from here: diffs copy
	// out of it, and every site that drops one returns it to twinFree.
	twin     [][]uint64
	twinFree [][]uint64
	dirty    []bool  // per page: written since the last release
	dirtied  []int32 // the pages with dirty set, in first-write order
	// needs lists, per page, the write notices seen but not yet known
	// applied at the page's home, sorted by writer. It stays a short
	// sparse list rather than a pages x nodes matrix.
	needs     [][]writeNeed
	vc        []int32       // nil until join
	log       [][]*Interval // per node, contiguous by interval index; nil until join
	homes     []*pageHome   // per page, created on demand
	locks     map[int]*lockState
	bars      map[int]*barrierState
	grantVC   map[int][]int32 // per lock: manager VC seen at last grant
	lastBarVC []int32         // manager VC broadcast at the last barrier release; nil until join
	lastWrote []int32         // per page: own interval idx of the last release that diffed it

	// Distributed-ownership state (nil/unused under central ownership).
	distributed bool
	owned       []bool // pages this node currently owns
	probOwner   []int  // best guess at the current owner (initially the static home)
	fetchingW   []bool // pages with an outstanding write fetch
	// pendingOwn parks requests and diffs that arrive while this node
	// has a write fetch outstanding for the page: the requester is the
	// probable future owner, so racing traffic funnels here instead of
	// chasing a moving target (the rule that makes Li/Hudak chains
	// terminate).
	pendingOwn [][]*nic.Message
	// pendingIv parks intervals that arrived ahead of a gap in the
	// log. Only the rotating barrier manager can see such a gap: an
	// enter bundle is computed against the previous manager's release
	// clock, and a fast participant's enter can outrun the new
	// manager's own release from that barrier. The missing prefix is
	// that release, already in flight, so the parked run splices the
	// moment it lands — provably before this manager redistributes.
	pendingIv map[int]map[int32]*Interval

	worker *Worker
	trace  *trace.Log // nil when tracing is off

	// coll, when set (and Config.NICCollectives on), carries barriers
	// over the collective engine instead of the centralized manager:
	// write-notice bundles ride the schedule as the engine's opaque
	// payload and are merged hop by hop — in board memory on the CNI.
	coll *collective.Node

	Stats Stats
}

// SetTrace attaches an event log (nil turns tracing off).
func (r *Runtime) SetTrace(l *trace.Log) { r.trace = l }

// Globals is the cluster-wide configuration of the shared region.
type Globals struct {
	cfg          *config.Config
	nodes        []*Runtime
	pageWords    int
	words        int // allocated shared words
	homeOf       func(page int32) int
	homeOverride func(page int32, n int) int

	// ownerMoved records the current owner of every page whose
	// ownership migrated away from its static home (distributed
	// ownership). Post-run reads consult it: the authoritative copy
	// follows the owner.
	ownerMoved map[int32]int

	// Bag of tasks, served by node 0's protocol handler. taskTotal is
	// the number of TaskDone completions after which NextTask returns
	// -1 to everyone; 0 means "the initial bag is everything" and the
	// bag simply drains.
	taskBag    []int
	taskNext   int
	taskTotal  int
	taskDone   int
	taskParked []*taskReqMsg
}

// NewGlobals prepares a cluster-wide DSM of n nodes. Homes are
// distributed by blocks once the region size is known (see Freeze).
func NewGlobals(cfg *config.Config) *Globals {
	return &Globals{cfg: cfg, pageWords: cfg.PageBytes / cfg.WordBytes,
		ownerMoved: make(map[int32]int)}
}

// Alloc reserves words shared words and returns the base word index.
// Call before Freeze, identically on every run.
func (g *Globals) Alloc(words int) int {
	base := g.words
	g.words += words
	// Pad to a page boundary so unrelated arrays never share a page
	// (the apps control false sharing through page size instead).
	if rem := g.words % g.pageWords; rem != 0 {
		g.words += g.pageWords - rem
	}
	return base
}

// AllocUnpadded reserves words without page alignment, for arrays that
// intentionally share pages (false-sharing studies).
func (g *Globals) AllocUnpadded(words int) int {
	base := g.words
	g.words += words
	return base
}

// PageWords reports the shared-page size in words.
func (g *Globals) PageWords() int { return g.pageWords }

// Pages reports the number of shared pages after allocation.
func (g *Globals) Pages() int {
	return (g.words + g.pageWords - 1) / g.pageWords
}

// SetTasks loads the initial bag of tasks (served by node 0). With
// total == 0 the bag is static and NextTask returns -1 once it drains;
// with total > 0 the bag is dynamic (workers may PushTask) and NextTask
// returns -1 only after total TaskDone completions.
func (g *Globals) SetTasks(tasks []int, total int) {
	g.taskBag = append([]int(nil), tasks...)
	g.taskNext = 0
	g.taskTotal = total
	g.taskDone = 0
	g.taskParked = nil
}

// SetHomeOf overrides the home distribution (applications call this in
// their Setup to align page homes with their data partitioning; the
// function must map every page to [0, n)). Takes effect at Freeze.
func (g *Globals) SetHomeOf(fn func(page int32, n int) int) { g.homeOverride = fn }

// Freeze fixes the home distribution: by default pages are distributed
// in contiguous blocks across n nodes, which aligns homes with the
// block-partitioned data of the benchmark applications; a SetHomeOf
// override wins.
func (g *Globals) Freeze(n int) {
	if g.homeOverride != nil {
		fn := g.homeOverride
		g.homeOf = func(page int32) int {
			h := fn(page, n)
			if h < 0 || h >= n {
				panic(fmt.Sprintf("dsm: home override mapped page %d to %d of %d nodes", page, h, n))
			}
			return h
		}
		return
	}
	pages := g.Pages()
	if pages == 0 {
		pages = 1
	}
	per := (pages + n - 1) / n
	g.homeOf = func(page int32) int {
		h := int(page) / per
		if h >= n {
			h = n - 1
		}
		return h
	}
}

// HomeOf reports the home node of a page.
func (g *Globals) HomeOf(page int32) int { return g.homeOf(page) }

// OwnerOf reports the node holding the page's authoritative copy after
// a run: the static home unless ownership migrated away (distributed
// ownership).
func (g *Globals) OwnerOf(page int32) int {
	if o, ok := g.ownerMoved[page]; ok {
		return o
	}
	return g.homeOf(page)
}

// noteOwner records an ownership migration for post-run reads.
func (g *Globals) noteOwner(page int32, node int) { g.ownerMoved[page] = node }

// Migrated reports how many pages are currently owned away from their
// static home (diagnostics and tests).
func (g *Globals) Migrated() int {
	n := 0
	for page, o := range g.ownerMoved {
		if o != g.homeOf(page) {
			n++
		}
	}
	return n
}

// TaskDebug summarizes the bag-of-tasks state for deadlock forensics.
func (g *Globals) TaskDebug() string {
	return fmt.Sprintf("bag=%d/%d done=%d/%d parked=%d",
		g.taskNext, len(g.taskBag), g.taskDone, g.taskTotal, len(g.taskParked))
}

// PendingHomeRequests reports, per runtime, how many version-gated
// page requests are parked at this node's homes, plus the messages
// parked awaiting ownership (deadlock forensics). The sample describes
// the lowest page with anything parked, so a given run always names
// the same page.
func (r *Runtime) PendingHomeRequests() (n int, sample string) {
	for page, hs := range r.homes {
		if hs != nil && len(hs.waiting) > 0 {
			n += len(hs.waiting)
			if sample == "" {
				req := hs.waiting[0].req
				sample = fmt.Sprintf("page %d from node %d needs %v applied=%v",
					page, req.from, req.need, hs.applied)
			}
		}
		if r.distributed && len(r.pendingOwn[page]) > 0 {
			parked := r.pendingOwn[page]
			n += len(parked)
			if sample == "" {
				sample = fmt.Sprintf("page %d: %d message(s) parked awaiting ownership", page, len(parked))
			}
		}
	}
	return n, sample
}

// NewRuntime builds the DSM engine for one node and registers its
// protocol handlers on the board. Call after Globals.Freeze.
func NewRuntime(g *Globals, k *sim.Kernel, node, nnodes int, board *nic.Board) *Runtime {
	pages := g.Pages() + 1
	r := &Runtime{
		G:         g,
		node:      node,
		nnodes:    nnodes,
		k:         k,
		cfg:       g.cfg,
		board:     board,
		data:      make([]uint64, g.words+g.pageWords),
		state:     make([]pageState, pages),
		twin:      make([][]uint64, pages),
		dirty:     make([]bool, pages),
		needs:     make([][]writeNeed, pages),
		homes:     make([]*pageHome, pages),
		locks:     make(map[int]*lockState),
		bars:      make(map[int]*barrierState),
		grantVC:   make(map[int][]int32),
		lastWrote: make([]int32, pages),
	}
	if g.cfg.DSMOwnershipOrDefault() == config.DSMDistributed {
		r.distributed = true
		r.owned = make([]bool, pages)
		r.probOwner = make([]int, pages)
		r.fetchingW = make([]bool, pages)
		r.pendingOwn = make([][]*nic.Message, pages)
	}
	for p := range r.state {
		home := g.homeOf(int32(p))
		if home == node {
			r.state[p] = pageValid
		}
		if r.distributed {
			// Initial owners are the static homes, and every
			// probable-owner pointer starts there.
			r.owned[p] = home == node
			r.probOwner[p] = home
		}
	}
	g.nodes = append(g.nodes, r)

	// Every protocol op enters through handle, so a node that serves as
	// a page home or a lock or barrier manager without acting itself
	// still joins before its first handler runs.
	onNIC := board.HandlersOnBoard()
	h := r.handle
	for op := OpDiff; op <= OpUpdate; op++ {
		board.Register(op, onNIC, h)
	}
	board.MapPages(SharedBase, g.Pages()*g.cfg.PageBytes)
	return r
}

// join allocates this node's clock state on its first protocol entry.
// The arrays are sized by the cluster, exactly as an eager allocation
// would size them, so message sizes and simulated times do not depend
// on when a node joined.
func (r *Runtime) join() {
	if r.vc != nil {
		return
	}
	r.vc = make([]int32, r.nnodes)
	r.log = make([][]*Interval, r.nnodes)
	r.lastBarVC = make([]int32, r.nnodes)
}

// Node reports this runtime's node id.
func (r *Runtime) Node() int { return r.node }

// Poke writes a shared word directly into this node's memory image,
// outside simulated time; used to preload initial data.
func (r *Runtime) Poke(idx int, v uint64) { r.data[idx] = v }

// PokeF64 is Poke for float64 values.
func (r *Runtime) PokeF64(idx int, v float64) { r.data[idx] = f64bits(v) }

// Peek reads a shared word directly from this node's memory image,
// outside simulated time; meaningful on the word's home node after the
// application's final barrier.
func (r *Runtime) Peek(idx int) uint64 { return r.data[idx] }

// PeekF64 is Peek for float64 values.
func (r *Runtime) PeekF64(idx int) float64 { return f64from(r.data[idx]) }

// vaddrOfPage returns the host virtual address of a shared page.
func (r *Runtime) vaddrOfPage(page int32) uint64 {
	return SharedBase + uint64(page)*uint64(r.cfg.PageBytes)
}

// vaddrOfWord returns the host virtual address of a shared word.
func (r *Runtime) vaddrOfWord(idx int) uint64 {
	return SharedBase + uint64(idx)*uint64(r.cfg.WordBytes)
}

// pageOf returns the page holding a word index.
func (r *Runtime) pageOf(idx int) int32 { return int32(idx / r.G.pageWords) }

// home reports whether this node is the page's home.
func (r *Runtime) home(page int32) bool { return r.G.homeOf(page) == r.node }

// owner reports whether this node currently manages the page: the
// static home under central ownership, the dynamic owner (initially
// the home, migrating on write faults) under distributed ownership.
func (r *Runtime) owner(page int32) bool {
	if r.distributed {
		return r.owned[page]
	}
	return r.home(page)
}

// probOwnerOf is this node's best guess at the page's current owner
// (distributed ownership). Unvisited pages point at the static home.
func (r *Runtime) probOwnerOf(page int32) int {
	o := r.probOwner[page]
	if o == r.node && !r.owned[page] {
		panic(fmt.Sprintf("dsm: node %d probable-owner pointer for page %d is itself but it is not the owner",
			r.node, page))
	}
	return o
}

// peer returns the runtime of another node (the simulator's stand-in
// for "the bytes that would be on the wire").
func (r *Runtime) peer(n int) *Runtime { return r.G.nodes[n] }

// installPage copies the serving node's current words for page into
// this node's region (the serving node is the static home under
// central ownership, the current owner under distributed). Run-ahead
// caveat documented in DESIGN.md: contents may be fresher than the
// request timestamp, which release consistency tolerates for
// data-race-free programs. A twin means this node holds uncommitted
// writes to the page (concurrent write sharing): the words it changed
// since twinning survive over the fetched base, and the twin becomes
// that base, so the next diff still carries the local writes forward.
// The region is untouched between the fault and the reply (the page is
// invalid, so neither diffs nor update pushes land on it), so the words
// that differ from the twin are exactly the local writes.
func (r *Runtime) installPage(page int32, from int) {
	src := r.peer(from).data
	lo := int(page) * r.G.pageWords
	hi := min(lo+r.G.pageWords, len(r.data))
	tw := r.twin[page]
	if tw == nil {
		copy(r.data[lo:hi], src[lo:hi])
		return
	}
	for i := lo; i < hi; i++ {
		if r.data[i] == tw[i-lo] {
			r.data[i] = src[i]
		}
		tw[i-lo] = src[i]
	}
}

// newIntervalBundleSince returns this node's known intervals newer than
// the given vector clock, per node, in a deterministic order. Because
// log[n] is contiguous (log[n][k].Idx == k+1), the result is a suffix
// per node — O(len(output)), which matters: bundles are computed on
// every grant, release and barrier.
func (r *Runtime) newIntervalBundleSince(vc []int32) []*Interval {
	total := 0
	for n, ivs := range r.log {
		total += max(len(ivs)-int(vc[n]), 0)
	}
	if total == 0 {
		return nil
	}
	out := make([]*Interval, 0, total)
	for n, ivs := range r.log {
		if start := int(vc[n]); start < len(ivs) {
			out = append(out, ivs[start:]...)
		}
	}
	return out
}

// absorbIntervals merges foreign intervals into the log and vector
// clock, returning the ones that were actually new. Under central
// ownership every bundle splices contiguously by construction (the
// fixed managers' clocks only grow), so a gap is a protocol bug and
// panics. Under distributed ownership a rotating barrier manager can
// legitimately receive a bundle ahead of its own release from the
// previous barrier; the ahead-of-gap suffix is parked and spliced when
// the release lands. Applying those write notices late is LRC-sound:
// the manager only needs them at its next acquire, and its own
// release — which closes the gap — precedes its own barrier enter.
func (r *Runtime) absorbIntervals(ivs []*Interval) []*Interval {
	var fresh []*Interval
	for i, iv := range ivs {
		if iv.Idx <= r.vc[iv.Node] {
			continue
		}
		if fresh == nil {
			// Every interval from here on may be fresh; only a parked
			// run spliced by the distributed path can outgrow this.
			fresh = make([]*Interval, 0, len(ivs)-i)
		}
		if want := int32(len(r.log[iv.Node])) + 1; iv.Idx != want {
			if !r.distributed {
				panic(fmt.Sprintf("dsm: node %d got interval (%d,%d), want idx %d — bundle not contiguous",
					r.node, iv.Node, iv.Idx, want))
			}
			r.parkInterval(iv)
			continue
		}
		r.log[iv.Node] = append(r.log[iv.Node], iv)
		r.vc[iv.Node] = iv.Idx
		fresh = append(fresh, iv)
		fresh = append(fresh, r.spliceParked(iv.Node)...)
	}
	return fresh
}

// parkInterval holds an interval whose log prefix has not arrived yet.
func (r *Runtime) parkInterval(iv *Interval) {
	if r.pendingIv == nil {
		r.pendingIv = make(map[int]map[int32]*Interval)
	}
	pend := r.pendingIv[iv.Node]
	if pend == nil {
		pend = make(map[int32]*Interval)
		r.pendingIv[iv.Node] = pend
	}
	pend[iv.Idx] = iv
	// A gap that never closes would wedge silently; the only legal gap
	// is one in-flight barrier release deep, so a runaway park means a
	// protocol bug.
	if len(pend) > 4*len(r.G.nodes)+64 {
		panic(fmt.Sprintf("dsm: node %d parked %d intervals from node %d — gap never closed",
			r.node, len(pend), iv.Node))
	}
}

// spliceParked appends any parked intervals for node n that are now
// contiguous with the log, returning them in index order.
func (r *Runtime) spliceParked(n int) []*Interval {
	pend := r.pendingIv[n]
	if len(pend) == 0 {
		return nil
	}
	var out []*Interval
	for {
		next := r.vc[n] + 1
		iv, ok := pend[next]
		if !ok {
			break
		}
		delete(pend, next)
		r.log[n] = append(r.log[n], iv)
		r.vc[n] = next
		out = append(out, iv)
	}
	if len(pend) == 0 {
		delete(r.pendingIv, n)
	}
	return out
}

// applyWriteNotices processes the pages named by fresh intervals. A
// node ignores notices about its own writes. Non-home pages are
// invalidated; for its own home pages the node records that diffs are
// in flight (pageHomeStale) so its next access waits for them — the
// home copy stays mapped but must not be read-modify-written early.
func (r *Runtime) applyWriteNotices(ivs []*Interval) int {
	invalidated := 0
	for _, iv := range ivs {
		if iv.Node == r.node {
			continue
		}
		for _, p := range iv.Pages {
			r.noteNeed(p, iv.Node, iv.Idx)
			if p == DebugPage {
				fmt.Printf("DSMDBG t=%d node=%d notice page=%d writer=%d idx=%d state=%d\n",
					r.k.Now(), r.node, p, iv.Node, iv.Idx, r.state[p])
			}
			if r.owner(p) || (r.cfg.UpdateProtocol && r.state[p] != pageInvalid) {
				// The copy stays mapped: the home always, and any copy
				// holder under the update protocol (the diff is on its
				// way). Accesses stall until the diffs land.
				if hs := r.homeState(p); !hs.satisfiedNeeds(r.needs[p]) {
					r.state[p] = pageHomeStale
				}
				continue
			}
			if r.state[p] == pageValid {
				r.state[p] = pageInvalid
				invalidated++
				r.Stats.Invalidates++
			}
		}
	}
	return invalidated
}

// noteNeed records that page must not be used before writer's interval
// idx is applied at its home, keeping the page's list sorted by writer.
func (r *Runtime) noteNeed(page int32, writer int, idx int32) {
	need := r.needs[page]
	i := 0
	for i < len(need) && need[i].writer < writer {
		i++
	}
	if i < len(need) && need[i].writer == writer {
		need[i].idx = max(need[i].idx, idx)
		return
	}
	r.needs[page] = slices.Insert(need, i, writeNeed{writer: writer, idx: idx})
}

// clearNeeds drops every pending notice for page, keeping the list's
// storage for the page's next notices.
func (r *Runtime) clearNeeds(page int32) { r.needs[page] = r.needs[page][:0] }

// satisfiedNeeds reports whether every (writer, interval) requirement
// has been applied at this home.
func (hs *pageHome) satisfiedNeeds(need []writeNeed) bool {
	for _, nd := range need {
		if hs.applied[nd.writer] < nd.idx {
			return false
		}
	}
	return true
}

// homeState returns (creating on demand) the home bookkeeping for page.
func (r *Runtime) homeState(page int32) *pageHome {
	hs := r.homes[page]
	if hs == nil {
		hs = &pageHome{applied: make([]int32, r.nnodes)}
		r.homes[page] = hs
	}
	return hs
}

// satisfied reports whether the home has applied every diff the
// request requires.
func (hs *pageHome) satisfied(req *pageReqMsg) bool {
	return hs.satisfiedNeeds(req.need)
}
