package dsm

import (
	"cni/internal/collective"
	"cni/internal/sim"
)

// This file carries the DSM barrier over the collective engine
// (Config.NICCollectives). The legacy path funnels 2(N-1) host-handled
// messages through a centralized manager at node 0; here the barrier is
// one engine episode whose opaque payload is the write-notice exchange
// itself, combined hop by hop — in board memory by the receive
// processor on the CNI — so the notices reach every node without the
// manager's host CPU ever serializing them (the NIC-combining move of
// Yu et al., PAPERS.md, applied to LRC metadata).

// barPayload is the engine payload of one barrier: the intervals this
// side knows beyond the last barrier, plus its vector clock.
type barPayload struct {
	notices []*Interval
	vc      []int32
}

// mergeBarPayloads combines two barrier payloads. Every node's bundle
// for a writer w is a contiguous run starting at lastBarVC[w]+1 —
// lastBarVC is copied from the same release vector on every node — and
// runs for the same writer are prefixes of one interval sequence, so
// the union is simply the run reaching furthest. That also makes the
// merge idempotent, which the dissemination schedule requires on
// non-power-of-two clusters (a contribution can arrive via two paths).
// Each bundle holds at most one run per writer, in ascending writer
// order (newIntervalBundleSince builds them so, and merging keeps it),
// so the union is a linear merge of the two writer-sorted sequences of
// runs. The result is order-insensitive, so every node ends the
// episode with an identical payload.
func mergeBarPayloads(a, b any) any {
	pa, pb := a.(*barPayload), b.(*barPayload)
	out := &barPayload{vc: make([]int32, len(pa.vc))}
	for i := range out.vc {
		out.vc[i] = max(pa.vc[i], pb.vc[i])
	}
	if len(pa.notices)+len(pb.notices) > 0 {
		out.notices = make([]*Interval, 0, len(pa.notices)+len(pb.notices))
	}
	as, bs := pa.notices, pb.notices
	for len(as) > 0 || len(bs) > 0 {
		var ra, rb []*Interval
		switch {
		case len(bs) == 0 || len(as) > 0 && as[0].Node < bs[0].Node:
			ra, as = splitRun(as)
		case len(as) == 0 || bs[0].Node < as[0].Node:
			rb, bs = splitRun(bs)
		default:
			ra, as = splitRun(as)
			rb, bs = splitRun(bs)
		}
		if ra == nil || rb != nil && rb[len(rb)-1].Idx > ra[len(ra)-1].Idx {
			ra = rb
		}
		out.notices = append(out.notices, ra...)
	}
	return out
}

// splitRun splits ivs after its leading run of one writer's intervals.
func splitRun(ivs []*Interval) (run, rest []*Interval) {
	end := 1
	for end < len(ivs) && ivs[end].Node == ivs[0].Node {
		end++
	}
	return ivs[:end], ivs[end:]
}

func barPayloadBytes(p any) int {
	bp := p.(*barPayload)
	return noticeBytes(bp.notices) + 4*len(bp.vc)
}

// SetCollective points the runtime's barrier at cn. The offload is
// still gated at call time on Config.NICCollectives, so a wired cluster
// can still run the legacy manager path for comparison.
func (r *Runtime) SetCollective(cn *collective.Node) {
	r.coll = cn
	cn.SetPayload(mergeBarPayloads, barPayloadBytes)
}

// barrierColl is Worker.Barrier on the engine. The numerical outcome is
// identical to the manager path: the merged payload holds exactly the
// cluster's intervals beyond lastBarVC, absorbing skips what this node
// already knows (so fresh matches the manager's redistribution), and
// the merged vector clock equals the manager clock the legacy release
// would have carried. Only the message pattern — and therefore the
// cycle accounting — changes.
func (w *Worker) barrierColl(id int) sim.Time {
	r := w.r
	r.Stats.BarrierOps++
	r.trace.Addf(w.proc.Local(), r.node, "barrier", "enter %d (engine)", id)
	w.release()
	bundle := r.newIntervalBundleSince(r.lastBarVC)
	pay := &barPayload{notices: bundle, vc: append([]int32(nil), r.vc...)}
	r.coll.Begin(w.proc, collective.KindBarrier, 0, 0, collective.OpSum, pay,
		func(at sim.Time, _ float64, payload any) {
			p := payload.(*barPayload)
			fresh := r.absorbIntervals(p.notices)
			r.applyWriteNotices(fresh)
			copy(r.lastBarVC, p.vc)
			w.pendingCharge += r.cfg.NoticeCycles * sim.Time(len(fresh))
			r.wakeWorker(at, waitBarrier)
		})
	return w.block(waitBarrier)
}
