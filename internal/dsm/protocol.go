package dsm

import (
	"fmt"
	"slices"

	"cni/internal/nic"
	"cni/internal/sim"
)

// This file holds the message handlers. They run in kernel-event
// context: on the CNI board they model Application Interrupt Handlers
// executing on the NIC's receive processor; on the standard interface
// the nic layer has already charged the interrupt, kernel receive and
// host protocol costs before invoking them on the host.

// handle is the board handler of every protocol op: the node joins
// the protocol, then the message is dispatched by op.
func (r *Runtime) handle(at sim.Time, m *nic.Message) {
	r.join()
	r.dispatch(at, m)
}

// dispatch routes a message to its op's handler. Besides handle, it
// serves messages addressed to this node that skip the fabric
// (manager-is-self fast path); their senders have joined already and
// synchronized, so at is the current kernel time.
func (r *Runtime) dispatch(at sim.Time, m *nic.Message) {
	switch m.Op {
	case OpDiff:
		r.onDiff(at, m)
	case OpPageReq:
		r.onPageReq(at, m)
	case OpPageReply:
		r.onPageReply(at, m)
	case OpLockAcq:
		r.onLockAcq(at, m)
	case OpLockGrant:
		r.onLockGrant(at, m)
	case OpLockRel:
		r.onLockRel(at, m)
	case OpBarEnter:
		r.onBarEnter(at, m)
	case OpBarRelease:
		r.onBarRelease(at, m)
	case OpTaskReq:
		r.onTaskReq(at, m)
	case OpTaskReply:
		r.onTaskReply(at, m)
	case OpTaskPush:
		r.onTaskPush(at, m)
	case OpUpdate:
		r.onUpdate(at, m)
	default:
		panic(fmt.Sprintf("dsm: dispatch of op %d", m.Op))
	}
}

// send routes m: a direct handler call for self-addressed messages, the
// board otherwise. Used from handler context (replies, grants).
func (r *Runtime) send(at sim.Time, m *nic.Message) {
	if m.To == r.node {
		r.dispatch(at, m)
		return
	}
	r.board.SendAt(at, m)
}

// --- diffs and pages ---

// parkOrForward handles a page request or diff that arrived at a
// non-owner under distributed ownership. With a write fetch of our own
// outstanding we are the probable future owner, so the message parks
// here until the fetch resolves; otherwise it is forwarded one hop
// down the probable-owner chain. Forwards are issued by the protocol
// handler — on the CNI that is the board's receive processor and the
// re-send is free to the host (HandlerSendCycles is zero); on
// OSIRIS/standard each hop pays the host interrupt + kernel/ADC path
// the arrival already charged plus the host send.
func (r *Runtime) parkOrForward(at sim.Time, m *nic.Message, page int32) {
	if r.fetchingW[page] {
		r.pendingOwn[page] = append(r.pendingOwn[page], m)
		return
	}
	r.forwardOwn(at, m)
}

// forwardOwn sends a misdelivered page request or diff one hop toward
// the current owner. Write requests compress the chain: the requester
// is about to become the owner, so this node's pointer is rewritten to
// it (Li/Hudak). A hop budget turns a non-converging chain into a loud
// bug instead of a livelock.
func (r *Runtime) forwardOwn(at sim.Time, m *nic.Message) {
	var page int32
	var hops *int
	compressTo := -1
	switch m.Op {
	case OpPageReq:
		req := m.Payload.(*pageReqMsg)
		page, hops = req.page, &req.hops
		if req.write {
			compressTo = req.from
		}
	case OpDiff:
		d := m.Payload.(*diffMsg)
		page, hops = d.page, &d.hops
	default:
		panic(fmt.Sprintf("dsm: node %d forwarding op %d", r.node, m.Op))
	}
	target := r.probOwnerOf(page)
	if target == r.node {
		panic(fmt.Sprintf("dsm: node %d forwarding page %d message to itself", r.node, page))
	}
	*hops++
	if *hops > 4*len(r.G.nodes)+8 {
		panic(fmt.Sprintf("dsm: node %d page %d probable-owner chain did not converge after %d hops",
			r.node, page, *hops))
	}
	if compressTo >= 0 {
		r.probOwner[page] = compressTo
	}
	r.Stats.Forwards++
	if page == DebugPage {
		fmt.Printf("DSMDBG t=%d node=%d forward op=%d page=%d -> node %d hops=%d\n",
			at, r.node, m.Op, page, target, *hops)
	}
	r.send(at, &nic.Message{
		From: r.node, To: target, Op: m.Op, Size: m.Size, Payload: m.Payload,
	})
}

// drainPendingOwn re-dispatches the messages parked across this node's
// write fetch: locally when the fetch won ownership, down the chain to
// the node that served us when the owner declined to migrate.
func (r *Runtime) drainPendingOwn(at sim.Time, page int32) {
	parked := r.pendingOwn[page]
	if parked == nil {
		return
	}
	r.pendingOwn[page] = nil
	for _, pm := range parked {
		if r.owner(page) {
			r.dispatch(at, pm)
		} else {
			r.forwardOwn(at, pm)
		}
	}
}

// onDiff applies a releaser's diff to the home copy and unparks any
// version-gated page requests it satisfies.
func (r *Runtime) onDiff(at sim.Time, m *nic.Message) {
	d := m.Payload.(*diffMsg)
	if !r.owner(d.page) {
		if !r.distributed {
			panic(fmt.Sprintf("dsm: node %d got diff for page %d homed at %d",
				r.node, d.page, r.G.homeOf(d.page)))
		}
		r.parkOrForward(at, m, d.page)
		return
	}
	r.Stats.OwnerMsgs++
	for _, e := range d.entries {
		r.data[e.word] = e.val
	}
	r.Stats.DiffsApplied++
	if d.page == DebugPage {
		fmt.Printf("DSMDBG t=%d node=%d applydiff page=%d writer=%d idx=%d words=%d\n",
			at, r.node, d.page, d.writer, d.idx, len(d.entries))
	}
	hs := r.homeState(d.page)
	if d.idx > hs.applied[d.writer] {
		hs.applied[d.writer] = d.idx
	}
	if r.cfg.UpdateProtocol {
		r.forwardUpdate(at, d)
	}
	r.drainWaiting(at, d.page)
}

// forwardUpdate pushes a just-applied diff to every copy holder (the
// eager-update protocol): their copies stay valid instead of going
// stale, at the price of one message per holder per release.
func (r *Runtime) forwardUpdate(at sim.Time, d *diffMsg) {
	hs := r.homeState(d.page)
	if d.page == DebugPage {
		fmt.Printf("DSMDBG t=%d node=%d forward page=%d writer=%d idx=%d copyset=%v\n",
			at, r.node, d.page, d.writer, d.idx, hs.copyset)
	}
	for member, holds := range hs.copyset {
		if !holds || member == d.writer || member == r.node {
			continue
		}
		diffBytes := 12 * len(d.entries)
		if diffBytes > r.cfg.PageBytes {
			diffBytes = r.cfg.PageBytes
		}
		r.send(at, &nic.Message{
			From: r.node, To: member, Op: OpUpdate,
			Size:         nic.HeaderBytes + 12 + diffBytes,
			VAddr:        r.vaddrOfPage(d.page),
			NoFlush:      true,
			DeliverVAddr: r.vaddrOfPage(d.page),
			DeliverBytes: diffBytes,
			Payload:      &updateMsg{diff: d, seenOfMember: hs.applied[member]},
		})
	}
}

// onUpdate applies a forwarded diff at a copy holder (update protocol)
// and releases any stalled access.
func (r *Runtime) onUpdate(at sim.Time, m *nic.Message) {
	u := m.Payload.(*updateMsg)
	d := u.diff
	if d.page == DebugPage {
		fmt.Printf("DSMDBG t=%d node=%d onupdate page=%d writer=%d idx=%d state=%d seen=%d\n",
			at, r.node, d.page, d.writer, d.idx, r.state[d.page], u.seenOfMember)
	}
	if r.state[d.page] == pageInvalid {
		// The copy was dropped; the next access refetches, so the
		// update is moot.
		return
	}
	// Write-ordering guard: if this node has written the page more
	// recently than the home had seen when it sent the push, or holds
	// uncommitted writes to it, the pushed values may roll this node's
	// own writes back. Drop the copy and fall back to the (version-
	// gated) fault path, which merges correctly.
	if u.seenOfMember < r.lastWrote[d.page] || r.dirty[d.page] {
		r.state[d.page] = pageInvalid
		r.Stats.Invalidates++
		r.noteNeed(d.page, d.writer, d.idx)
		hs := r.homeState(d.page)
		if hs.homeStalled {
			// The worker was waiting for this push; wake it so its
			// access loop refaults instead.
			hs.homeStalled = false
			r.wakeWorker(at, waitPage)
		}
		return
	}
	// A twin exists only on a dirty page, which took the branch above,
	// so there is no twin to keep in step with the pushed words.
	for _, e := range d.entries {
		r.data[e.word] = e.val
	}
	hs := r.homeState(d.page)
	if d.idx > hs.applied[d.writer] {
		hs.applied[d.writer] = d.idx
	}
	// The DMA rewrote host memory under the caches.
	if r.worker != nil {
		r.worker.pendingCharge += r.worker.mem.InvalidateRange(
			r.vaddrOfPage(d.page), r.cfg.PageBytes)
	}
	r.drainWaiting(at, d.page)
}

// drainWaiting replies to parked page requests that are now satisfied
// and unstalls the home's own worker if its requirements are met.
func (r *Runtime) drainWaiting(at sim.Time, page int32) {
	hs := r.homeState(page)
	var still []waitReq
	for _, w := range hs.waiting {
		if hs.satisfied(w.req) {
			r.sendPageReply(at, w.req)
		} else {
			still = append(still, w)
		}
	}
	hs.waiting = still
	if hs.homeStalled && hs.satisfiedNeeds(r.needs[page]) {
		hs.homeStalled = false
		r.state[page] = pageValid
		r.clearNeeds(page)
		r.wakeWorker(at, waitPage)
	}
}

// onPageReq serves (or parks) a page fetch at the home/owner; under
// distributed ownership a request that lands on a past owner is parked
// or forwarded down the probable-owner chain instead.
func (r *Runtime) onPageReq(at sim.Time, m *nic.Message) {
	req := m.Payload.(*pageReqMsg)
	if !r.owner(req.page) {
		if !r.distributed {
			panic(fmt.Sprintf("dsm: node %d got page request for page %d homed at %d",
				r.node, req.page, r.G.homeOf(req.page)))
		}
		r.parkOrForward(at, m, req.page)
		return
	}
	r.Stats.OwnerMsgs++
	hs := r.homeState(req.page)
	if hs.satisfied(req) {
		r.sendPageReply(at, req)
		return
	}
	hs.waiting = append(hs.waiting, waitReq{req: req, at: at})
}

// canGrant decides whether serving req should also migrate ownership
// to the requester (distributed ownership, write faults only). The
// grant requires a clean, quiescent owner copy: fully caught up on
// noticed diffs, no uncommitted local writes, no parked requests and
// no stalled worker — everything the page's manager state says is
// captured by the applied vector the reply already carries, so the
// grant adds no state transfer beyond the page itself.
func (r *Runtime) canGrant(req *pageReqMsg) bool {
	if !r.distributed || !req.write || req.from == r.node {
		return false
	}
	p := req.page
	hs := r.homeState(p)
	return r.state[p] == pageValid && !r.dirty[p] && !hs.homeStalled &&
		len(hs.waiting) == 0 && hs.satisfiedNeeds(r.needs[p])
}

// sendPageReply ships the owner's (flushed-at-release) copy of the
// page. The page buffer is Message Cache eligible on both ends: the
// home binds it on the transmit path and the requester binds the
// arrival (receive caching), which is what makes later page migrations
// and diff sends cheap. Under distributed ownership a clean write
// fault migrates ownership with the page.
func (r *Runtime) sendPageReply(at sim.Time, req *pageReqMsg) {
	r.Stats.PageFetches++
	r.trace.Addf(at, r.node, "serve", "page %d -> node %d", req.page, req.from)
	vaddr := r.vaddrOfPage(req.page)
	hs := r.homeState(req.page)
	if !hs.exported {
		// First export of this page: the home's CPU flushes it to
		// memory before the board can transfer it; from now on the
		// page is flushed at every release instead.
		hs.exported = true
		cost := r.board.FlushBuffer(vaddr, r.cfg.PageBytes)
		r.board.PenalizeHost(cost)
		at += cost
	}
	if r.cfg.UpdateProtocol {
		if hs.copyset == nil {
			hs.copyset = make([]bool, r.nnodes)
		}
		hs.copyset[req.from] = true
	}
	own := r.canGrant(req)
	if own {
		// The requester becomes the page's owner and manager; this
		// node keeps its (still current) copy as an ordinary holder
		// and points its chain at the new owner. The manager state
		// travels as the applied snapshot on the reply.
		r.owned[req.page] = false
		r.probOwner[req.page] = req.from
		r.G.noteOwner(req.page, req.from)
		if req.page == DebugPage {
			fmt.Printf("DSMDBG t=%d node=%d grant page=%d -> node %d\n", at, r.node, req.page, req.from)
		}
	}
	r.send(at, &nic.Message{
		From:         r.node,
		To:           req.from,
		Op:           OpPageReply,
		Size:         nic.HeaderBytes + r.cfg.PageBytes,
		VAddr:        vaddr,
		CacheTx:      true,
		NoFlush:      true, // home memory was flushed at the writer's release
		DeliverVAddr: vaddr,
		DeliverBytes: r.cfg.PageBytes,
		CacheRx:      req.write,
		Payload: &pageReplyMsg{
			page: req.page, to: req.from, from: r.node, own: own, req: req,
			applied: append([]int32(nil), hs.applied...),
		},
	})
}

// onPageReply installs an arriving page at the requester: copy the
// serving owner's words, reapply any preserved local modifications
// (multiple-writer merge), revalidate, and wake the faulting worker.
// Under distributed ownership the reply also resolves the requester's
// probable-owner pointer and, on a grant, makes it the page's owner.
func (r *Runtime) onPageReply(at sim.Time, m *nic.Message) {
	rep := m.Payload.(*pageReplyMsg)
	page := rep.page
	if page == DebugPage {
		fmt.Printf("DSMDBG t=%d node=%d pagereply page=%d from=%d own=%v twin=%v\n",
			at, r.node, page, rep.from, rep.own, r.twin[page] != nil)
	}
	r.installPage(page, rep.from)
	// Clear only the requirements this reply was gated on. Notices that
	// raced the fetch stay pending, the page stays invalid, and the
	// worker's access loop refaults with the updated requirements.
	r.needs[page] = dropCoveredNeeds(r.needs[page], rep.req.need)
	if r.cfg.UpdateProtocol {
		// Seed this member's applied tracking with the home's state at
		// reply time: diffs already folded into the fetched copy will
		// never be forwarded again.
		hs := r.homeState(page)
		for n, idx := range rep.applied {
			if idx > hs.applied[n] {
				hs.applied[n] = idx
			}
		}
	}
	if r.distributed {
		r.Stats.Chain.observe(rep.req.hops)
		r.fetchingW[page] = false
		r.probOwner[page] = rep.from
		if rep.own {
			// This node is the page's owner and manager now: merge the
			// old owner's applied vector into the local manager state
			// and keep flushing at releases (the old owner still holds
			// a copy, so transfers are impending).
			r.Stats.Migrations++
			r.owned[page] = true
			r.probOwner[page] = r.node
			hs := r.homeState(page)
			for n, idx := range rep.applied {
				if idx > hs.applied[n] {
					hs.applied[n] = idx
				}
			}
			hs.exported = true
		}
	}
	if len(r.needs[page]) == 0 {
		r.state[page] = pageValid
	} else if r.distributed && r.owned[page] {
		// A new owner never refaults: with noticed diffs still in
		// flight (they are chasing the chain toward us) the page goes
		// home-stale and the worker stalls until they land.
		hs := r.homeState(page)
		if hs.satisfiedNeeds(r.needs[page]) {
			r.state[page] = pageValid
			r.clearNeeds(page)
		} else {
			r.state[page] = pageHomeStale
		}
	}
	// The DMA overwrote host memory beneath the caches; the worker pays
	// the invalidation when it resumes.
	inval := r.worker.mem.InvalidateRange(r.vaddrOfPage(page), r.cfg.PageBytes)
	r.worker.pendingCharge += inval
	if r.distributed {
		r.drainPendingOwn(at, page)
	}
	r.wakeWorker(at, waitPage)
}

// --- locks ---

func (r *Runtime) onLockAcq(at sim.Time, m *nic.Message) {
	req := m.Payload.(*lockAcqMsg)
	r.Stats.OwnerMsgs++
	ls := r.locks[req.lock]
	if ls == nil {
		ls = &lockState{}
		r.locks[req.lock] = ls
	}
	if ls.held {
		ls.queue = append(ls.queue, req)
		return
	}
	ls.held = true
	ls.holder = req.from
	r.sendGrant(at, req)
}

func (r *Runtime) sendGrant(at sim.Time, req *lockAcqMsg) {
	bundle := r.newIntervalBundleSince(req.vc)
	nb := noticeBytes(bundle)
	mvc := append([]int32(nil), r.vc...)
	size := nic.HeaderBytes + 4*len(mvc) + nb
	msg := &nic.Message{
		From: r.node, To: req.from, Op: OpLockGrant, Size: size,
		Payload: &lockGrantMsg{lock: req.lock, to: req.from, notices: bundle, managerVC: mvc},
	}
	if nb > 0 && req.from != r.node {
		msg.DeliverVAddr = MailboxBase
		msg.DeliverBytes = nb
	}
	r.send(at, msg)
}

func (r *Runtime) onLockGrant(at sim.Time, m *nic.Message) {
	g := m.Payload.(*lockGrantMsg)
	fresh := r.absorbIntervals(g.notices)
	r.applyWriteNotices(fresh)
	r.grantVC[g.lock] = g.managerVC
	r.worker.pendingCharge += r.cfg.NoticeCycles * sim.Time(len(fresh))
	r.wakeWorker(at, waitLock)
}

func (r *Runtime) onLockRel(at sim.Time, m *nic.Message) {
	rel := m.Payload.(*lockRelMsg)
	r.Stats.OwnerMsgs++
	fresh := r.absorbIntervals(rel.notices)
	r.applyWriteNotices(fresh)
	ls := r.locks[rel.lock]
	if ls == nil || !ls.held || ls.holder != rel.from {
		panic(fmt.Sprintf("dsm: node %d got release of lock %d from non-holder %d",
			r.node, rel.lock, rel.from))
	}
	if len(ls.queue) == 0 {
		ls.held = false
		return
	}
	next := ls.queue[0]
	ls.queue = ls.queue[1:]
	ls.holder = next.from
	r.sendGrant(at, next)
}

// --- barriers ---

func (r *Runtime) onBarEnter(at sim.Time, m *nic.Message) {
	e := m.Payload.(*barEnterMsg)
	r.Stats.OwnerMsgs++
	fresh := r.absorbIntervals(e.notices)
	r.applyWriteNotices(fresh)
	bs := r.bars[e.barrier]
	if bs == nil {
		bs = &barrierState{}
		r.bars[e.barrier] = bs
	}
	bs.arrived++
	bs.enters = append(bs.enters, e)
	if bs.arrived < len(r.G.nodes) {
		return
	}
	// Everyone is here: redistribute what each participant is missing.
	mvc := append([]int32(nil), r.vc...)
	for _, enter := range bs.enters {
		bundle := r.newIntervalBundleSince(enter.vc)
		nb := noticeBytes(bundle)
		msg := &nic.Message{
			From: r.node, To: enter.from, Op: OpBarRelease,
			Size:    nic.HeaderBytes + 4*len(mvc) + nb,
			Payload: &barReleaseMsg{barrier: e.barrier, to: enter.from, notices: bundle, managerVC: mvc},
		}
		if nb > 0 && enter.from != r.node {
			msg.DeliverVAddr = MailboxBase
			msg.DeliverBytes = nb
		}
		r.send(at, msg)
	}
	delete(r.bars, e.barrier)
}

func (r *Runtime) onBarRelease(at sim.Time, m *nic.Message) {
	rel := m.Payload.(*barReleaseMsg)
	fresh := r.absorbIntervals(rel.notices)
	r.applyWriteNotices(fresh)
	copy(r.lastBarVC, rel.managerVC)
	r.worker.pendingCharge += r.cfg.NoticeCycles * sim.Time(len(fresh))
	r.wakeWorker(at, waitBarrier)
}

// --- bag of tasks ---

func (r *Runtime) onTaskReq(at sim.Time, m *nic.Message) {
	req := m.Payload.(*taskReqMsg)
	r.Stats.OwnerMsgs++
	r.trace.Addf(at, r.node, "task", "request from node %d", req.from)
	g := r.G
	switch {
	case g.taskNext < len(g.taskBag):
		task := g.taskBag[g.taskNext]
		g.taskNext++
		r.replyTask(at, req.from, task)
	case g.taskTotal == 0 || g.taskDone >= g.taskTotal:
		r.replyTask(at, req.from, -1)
	default:
		// Bag temporarily empty but work is still in flight: park the
		// requester until a push or the final completion.
		g.taskParked = append(g.taskParked, req)
	}
}

func (r *Runtime) replyTask(at sim.Time, to, task int) {
	r.send(at, &nic.Message{
		From: r.node, To: to, Op: OpTaskReply,
		Size:    nic.HeaderBytes + 8,
		Payload: &taskReplyMsg{to: to, task: task},
	})
}

// onTaskPush absorbs newly enabled tasks and completions, then feeds
// parked requesters.
func (r *Runtime) onTaskPush(at sim.Time, m *nic.Message) {
	push := m.Payload.(*taskPushMsg)
	r.Stats.OwnerMsgs++
	g := r.G
	g.taskBag = append(g.taskBag, push.tasks...)
	g.taskDone += push.done
	finished := g.taskTotal > 0 && g.taskDone >= g.taskTotal
	for len(g.taskParked) > 0 {
		if g.taskNext < len(g.taskBag) {
			req := g.taskParked[0]
			g.taskParked = g.taskParked[1:]
			task := g.taskBag[g.taskNext]
			g.taskNext++
			r.replyTask(at, req.from, task)
			continue
		}
		if finished {
			req := g.taskParked[0]
			g.taskParked = g.taskParked[1:]
			r.replyTask(at, req.from, -1)
			continue
		}
		break
	}
}

func (r *Runtime) onTaskReply(at sim.Time, m *nic.Message) {
	rep := m.Payload.(*taskReplyMsg)
	r.worker.taskResult = rep.task
	r.wakeWorker(at, waitTask)
}

// wakeWorker resumes this node's application thread. On the CNI the
// application learns of the completion by polling its device channel;
// on the standard interface the nic layer already included the
// interrupt and kernel receive latency before the handler ran.
func (r *Runtime) wakeWorker(at sim.Time, why waitKind) {
	w := r.worker
	if w == nil {
		panic(fmt.Sprintf("dsm: node %d woke with no worker", r.node))
	}
	// waiting == waitNone happens when the reply was produced
	// synchronously (local manager fast path) before the worker reached
	// its block; Proc.Block buffers the wake token for that case.
	if w.waiting != why && w.waiting != waitNone {
		panic(fmt.Sprintf("dsm: node %d woke worker for %v while it waits for %v",
			r.node, why, w.waiting))
	}
	at += r.board.WakeDelay()
	w.proc.WakeAt(at)
}

// sortedNeeds copies a page's pending write notices, already sorted by
// writer, into the requirement list of a version-gated fetch.
func (r *Runtime) sortedNeeds(page int32) []writeNeed {
	if len(r.needs[page]) == 0 {
		return nil
	}
	return slices.Clone(r.needs[page])
}

// dropCoveredNeeds removes from need, in place, every notice that a
// fetch gated on covered has observed: same writer, no newer interval.
// Both lists are sorted by writer.
func dropCoveredNeeds(need, covered []writeNeed) []writeNeed {
	kept, j := need[:0], 0
	for _, nd := range need {
		for j < len(covered) && covered[j].writer < nd.writer {
			j++
		}
		if j < len(covered) && covered[j].writer == nd.writer && nd.idx <= covered[j].idx {
			continue
		}
		kept = append(kept, nd)
	}
	return kept
}
