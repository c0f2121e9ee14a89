// Package tenant is the multi-tenant QoS layer of the serving stack:
// token-bucket rate limits, strict and weighted-fair priorities, and
// per-tenant latency accounting. It deliberately knows nothing about
// boards or wire formats — the request transport (internal/rpc)
// applies these policies at the existing enqueue-time protection
// point, where an arrival tries to claim a credit from its scheduling
// class's share of the node's device-channel free queue, so protection
// and QoS are enforced at the same place and the same moment, exactly
// as the ADC design argues they should be.
package tenant

import (
	"fmt"

	"cni/internal/sim"
	"cni/internal/stats"
)

// Class is one tenant's QoS contract.
type Class struct {
	// ID is the tenant's index; requests carry it on the wire.
	ID int
	// Name labels the tenant in reports ("victim", "aggressor").
	Name string
	// Rate is the token-bucket refill rate in requests per second;
	// 0 means uncontracted (never throttled).
	Rate float64
	// Burst is the bucket depth in requests (defaults to 16 when a
	// rate is set).
	Burst int
	// Priority is the strict level: a queued request of a lower
	// Priority value is always served before any request of a higher
	// one.
	Priority int
	// Weight is the weighted-fair share among tenants at the same
	// Priority (defaults to 1).
	Weight int
}

// WithDefaults fills the zero-value conveniences.
func (c Class) WithDefaults() Class {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Rate > 0 && c.Burst <= 0 {
		c.Burst = 16
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("tenant%d", c.ID)
	}
	return c
}

// Stats is one tenant's serving ledger. It is comparable and merges
// across nodes, like the transport's own counters.
type Stats struct {
	Issued    uint64 // requests the workload offered
	Completed uint64 // OK responses received by clients
	OnTime    uint64 // completed within the deadline
	Rejected  uint64 // shed by server admission (queue or buffers)
	Throttled uint64 // shed by the tenant's token bucket
	Expired   uint64 // dropped server-side past their deadline
	Lat       stats.Hist
}

// Merge folds o into s.
func (s *Stats) Merge(o Stats) {
	s.Issued += o.Issued
	s.Completed += o.Completed
	s.OnTime += o.OnTime
	s.Rejected += o.Rejected
	s.Throttled += o.Throttled
	s.Expired += o.Expired
	s.Lat.Merge(o.Lat)
}

// MergeSlices folds per-tenant stats b into a, growing a as needed.
func MergeSlices(a []Stats, b []Stats) []Stats {
	for len(a) < len(b) {
		a = append(a, Stats{})
	}
	for i := range b {
		a[i].Merge(b[i])
	}
	return a
}

// Bucket is a token bucket evaluated in simulated time. The zero
// bucket (or one built from a zero-rate Class) admits everything.
type Bucket struct {
	rate   float64 // tokens per cycle
	burst  float64
	tokens float64
	last   sim.Time
}

// NewBucket builds the bucket for c, full. cyclesPerSec converts the
// contract's requests-per-second into the simulation's cycle clock.
func NewBucket(c Class, cyclesPerSec float64) Bucket {
	c = c.WithDefaults()
	if c.Rate <= 0 || cyclesPerSec <= 0 {
		return Bucket{}
	}
	return Bucket{
		rate:   c.Rate / cyclesPerSec,
		burst:  float64(c.Burst),
		tokens: float64(c.Burst),
	}
}

// Take refills the bucket up to now and consumes one token, reporting
// whether one was available. An unlimited bucket always admits.
func (b *Bucket) Take(now sim.Time) bool {
	if b.rate <= 0 {
		return true
	}
	if now > b.last {
		b.tokens += float64(now-b.last) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Sched is the server work-queue scheduler: one bounded FIFO per
// tenant, drained by strict priority first and weighted-fair sharing
// (a virtual-time ledger over served counts) among equal priorities.
// All tie-breaks are by tenant ID, so a given push/pop sequence is
// fully deterministic.
type Sched[T any] struct {
	classes []Class
	queues  [][]T
	served  []float64 // weight-normalized work served per tenant
	cap     int       // per-tenant queue bound (0 = unbounded)
	n       int
}

// NewSched builds a scheduler over the given classes; queueCap bounds
// each tenant's queue (0 = unbounded).
func NewSched[T any](classes []Class, queueCap int) *Sched[T] {
	s := &Sched[T]{
		classes: make([]Class, len(classes)),
		queues:  make([][]T, len(classes)),
		served:  make([]float64, len(classes)),
		cap:     queueCap,
	}
	for i, c := range classes {
		s.classes[i] = c.WithDefaults()
	}
	return s
}

// Push queues v for tenant t, reporting false when t's queue is full.
func (s *Sched[T]) Push(t int, v T) bool {
	if s.cap > 0 && len(s.queues[t]) >= s.cap {
		return false
	}
	s.queues[t] = append(s.queues[t], v)
	s.n++
	return true
}

// Pop dequeues the next request: the lowest strict-priority level with
// work, and within it the tenant furthest behind its weighted share.
func (s *Sched[T]) Pop() (v T, t int, ok bool) {
	if s.n == 0 {
		return v, 0, false
	}
	best := -1
	for i := range s.queues {
		if len(s.queues[i]) == 0 {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		switch {
		case s.classes[i].Priority < s.classes[best].Priority:
			best = i
		case s.classes[i].Priority == s.classes[best].Priority &&
			s.served[i] < s.served[best]:
			best = i
		}
	}
	v = s.queues[best][0]
	s.queues[best] = s.queues[best][1:]
	s.served[best] += 1 / float64(s.classes[best].Weight)
	s.n--
	return v, best, true
}

// Len is the total queued work across tenants.
func (s *Sched[T]) Len() int { return s.n }

// QueueLen is tenant t's queued work.
func (s *Sched[T]) QueueLen(t int) int { return len(s.queues[t]) }
