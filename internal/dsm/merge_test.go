package dsm

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"cni/internal/nic"
)

// mergeBarPayloadsRef is the map-based barrier merge the linear one
// replaced: bucket every writer's run, keep the run reaching furthest
// (the first payload's on a tie), and emit writers in ascending order.
func mergeBarPayloadsRef(pa, pb *barPayload) *barPayload {
	out := &barPayload{vc: make([]int32, len(pa.vc))}
	for i := range out.vc {
		out.vc[i] = max(pa.vc[i], pb.vc[i])
	}
	runs := make(map[int][]*Interval)
	bucket := func(ivs []*Interval) {
		for start := 0; start < len(ivs); {
			end := start + 1
			for end < len(ivs) && ivs[end].Node == ivs[start].Node {
				end++
			}
			run := ivs[start:end]
			w := ivs[start].Node
			if cur := runs[w]; cur == nil || run[len(run)-1].Idx > cur[len(cur)-1].Idx {
				runs[w] = run
			}
			start = end
		}
	}
	bucket(pa.notices)
	bucket(pb.notices)
	writers := make([]int, 0, len(runs))
	for w := range runs {
		writers = append(writers, w)
	}
	sort.Ints(writers)
	for _, w := range writers {
		out.notices = append(out.notices, runs[w]...)
	}
	return out
}

// randomBarPayload draws a barrier payload the way nodes build them:
// for each writer, an optional run of its intervals starting just past
// the shared last-barrier clock base, the writers in ascending order.
func randomBarPayload(rng *rand.Rand, ivs [][]*Interval) *barPayload {
	p := &barPayload{vc: make([]int32, len(ivs))}
	for w, seq := range ivs {
		p.vc[w] = rng.Int31n(20)
		if n := rng.Intn(len(seq) + 1); rng.Intn(3) > 0 {
			p.notices = append(p.notices, seq[:n]...)
		}
	}
	return p
}

func samePayload(a, b *barPayload) bool {
	return slices.Equal(a.vc, b.vc) && slices.Equal(a.notices, b.notices)
}

func TestMergeBarPayloadsMatchesMapMerge(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		writers := 1 + rng.Intn(6)
		ivs := make([][]*Interval, writers)
		for w := range ivs {
			base, n := rng.Int31n(10), 1+rng.Int31n(6)
			for k := int32(1); k <= n; k++ {
				ivs[w] = append(ivs[w], &Interval{Node: w, Idx: base + k})
			}
		}
		a, b := randomBarPayload(rng, ivs), randomBarPayload(rng, ivs)
		ab := mergeBarPayloads(a, b).(*barPayload)
		if !samePayload(ab, mergeBarPayloadsRef(a, b)) {
			return false
		}
		// Order-insensitive, and idempotent on a self-merge.
		return samePayload(ab, mergeBarPayloads(b, a).(*barPayload)) &&
			samePayload(mergeBarPayloads(a, a).(*barPayload), mergeBarPayloadsRef(a, a)) &&
			samePayload(mergeBarPayloads(a, a).(*barPayload), a)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingHomeRequestsSampleIsStable parks version-gated requests
// at two home pages and messages awaiting ownership at a third: the
// deadlock sample must name the lowest page on every call.
func TestPendingHomeRequestsSampleIsStable(t *testing.T) {
	const pages = 16
	r := parkRuntime(3, true)
	r.homes = make([]*pageHome, pages)
	r.pendingOwn = make([][]*nic.Message, pages)
	for _, page := range []int{11, 5} {
		req := &pageReqMsg{page: int32(page), from: 1, need: []writeNeed{{writer: 0, idx: 2}}}
		r.homes[page] = &pageHome{applied: make([]int32, 3), waiting: []waitReq{{req: req}}}
	}
	r.pendingOwn[8] = []*nic.Message{{Op: OpPageReq}, {Op: OpDiff}}
	n0, sample0 := r.PendingHomeRequests()
	if n0 != 4 || !strings.HasPrefix(sample0, "page 5 ") {
		t.Fatalf("PendingHomeRequests = %d, %q; want 4 naming page 5", n0, sample0)
	}
	for i := 0; i < 20; i++ {
		if n, sample := r.PendingHomeRequests(); n != n0 || sample != sample0 {
			t.Fatalf("call %d: %d, %q; first call gave %d, %q", i, n, sample, n0, sample0)
		}
	}
}
