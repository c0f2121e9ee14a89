// Package stats holds the one log2 histogram of the simulator's
// latency accounting, plus the exact sample set behind percentiles.
// Request serving (internal/rpc, internal/kv), the tenant ledgers and
// the collective engine all record into it; it imports nothing but
// the simulation clock, so every layer can use it.
package stats

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"cni/internal/sim"
)

// Hist is a log2 latency histogram. It is a plain comparable value
// (fixed-size bucket array, no pointers) so whole histograms, and the
// Stats structs holding them, can be compared with == in determinism
// tests; 26 buckets cover latencies up to 2^25 cycles (~200 ms at
// 166 MHz), far beyond anything a loaded server or a collective
// episode produces.
type Hist struct {
	Count   uint64
	Sum     uint64 // total cycles, for the mean
	Min     uint64 // smallest sample (meaningful only when Count > 0)
	Max     uint64 // largest sample
	Buckets [26]uint64
}

// Add records one latency sample in cycles.
func (h *Hist) Add(c sim.Time) {
	if c < 0 {
		c = 0
	}
	v := uint64(c)
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	i := bits.Len64(v)
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
}

// Merge folds o into h.
func (h *Hist) Merge(o Hist) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean reports the mean sample in cycles (0 when empty).
func (h Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// String renders the occupied buckets, e.g. "4k:12 8k:3" meaning 12
// samples in [4096,8192) cycles.
func (h Hist) String() string {
	var b strings.Builder
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		lo := uint64(0)
		if i > 0 {
			lo = 1 << (i - 1)
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch {
		case lo >= 1<<20:
			fmt.Fprintf(&b, "%dM:%d", lo>>20, c)
		case lo >= 1<<10:
			fmt.Fprintf(&b, "%dk:%d", lo>>10, c)
		default:
			fmt.Fprintf(&b, "%d:%d", lo, c)
		}
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// Latencies records per-request latency twice over: into a log2 Hist
// for compact display and ==-comparison, and as the exact sample set so
// that p50/p99/p999 come out exact (nearest-rank over the recorded
// samples) rather than bucket-resolution estimates. One int64 per
// request is cheap at the request counts the workloads here run.
type Latencies struct {
	Hist    Hist
	Samples []sim.Time

	sorted bool
}

// Add records one latency sample in cycles.
func (l *Latencies) Add(c sim.Time) {
	l.Hist.Add(c)
	l.Samples = append(l.Samples, c)
	l.sorted = false
}

// Merge folds o into l.
func (l *Latencies) Merge(o Latencies) {
	l.Hist.Merge(o.Hist)
	l.Samples = append(l.Samples, o.Samples...)
	l.sorted = false
}

// Percentile returns the exact q-th percentile (q in (0,100]) of the
// recorded samples by the nearest-rank definition: the smallest sample
// such that at least q% of samples are <= it. Empty latencies report 0.
func (l *Latencies) Percentile(q float64) sim.Time {
	n := len(l.Samples)
	if n == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.Samples, func(i, j int) bool { return l.Samples[i] < l.Samples[j] })
		l.sorted = true
	}
	// Ceil with a tolerance so that float artifacts in q/100*n (e.g.
	// 99% of 1000 computing as 990.0000000000001) cannot shift the rank.
	t := q / 100 * float64(n)
	rank := int(t)
	if float64(rank) < t-1e-9 {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return l.Samples[rank-1]
}
