package atm

// Golden parity: the route-walking fabric on topo=single must
// reproduce the pre-topology single-switch model bit-identically. The
// reference below is the original closed-form arithmetic — freeAt
// bookkeeping in place of sim.Resource, the original per-source-link
// fault injector — and seeded random traffic, fed to both in the
// fabric's canonical (send time, source node) order, must produce
// identical delivery times, identical port-wait totals and identical
// fault verdicts.

import (
	"cmp"
	"slices"
	"testing"

	"cni/internal/config"
	"cni/internal/sim"
)

// refFabric is the original single-switch model in closed form.
type refFabric struct {
	cfg      *config.Config
	txFree   []sim.Time
	portFree []sim.Time
	rng      []*sim.RNG // per source link, old injector layout

	portWaits sim.Time
	faults    FaultStats
}

func newRef(cfg *config.Config, n int) *refFabric {
	r := &refFabric{cfg: cfg, txFree: make([]sim.Time, n), portFree: make([]sim.Time, n)}
	if cfg.FaultsEnabled() {
		for i := 0; i < n; i++ {
			r.rng = append(r.rng, sim.NewRNG(cfg.FaultSeed*0x9e3779b97f4a7c15+uint64(i)+1))
		}
	}
	return r
}

func (r *refFabric) headCell() sim.Time {
	bits := int64(r.cfg.CellBytes) * 8
	ns := (bits*1000 + r.cfg.LinkMbps - 1) / r.cfg.LinkMbps
	return r.cfg.NSToCycles(ns)
}

func use(free *sim.Time, at, dur sim.Time) (sim.Time, sim.Time) {
	start := at
	if *free > start {
		start = *free
	}
	*free = start + dur
	return start, *free
}

// send walks one message and reports its first delivery time and how
// many times it is delivered (0 when lost, 2 when duplicated).
func (r *refFabric) send(at sim.Time, src, dst, bytes int) (sim.Time, int) {
	ser := r.cfg.SerializeCycles(bytes)
	cells := r.cfg.Cells(bytes)
	if src == dst {
		return at + r.headCell(), 1
	}
	txStart, _ := use(&r.txFree[src], at, ser)
	headAt := txStart + r.headCell() +
		r.cfg.NSToCycles(r.cfg.WirePropNS) +
		r.cfg.NSToCycles(r.cfg.SwitchLatencyNS)
	portStart, portEnd := use(&r.portFree[dst], headAt, ser)
	r.portWaits += portStart - headAt
	deliver := portEnd + r.cfg.NSToCycles(r.cfg.WirePropNS)
	if r.rng == nil {
		return deliver, 1
	}
	// The original per-packet judgement, verbatim.
	rng := r.rng[src]
	var lost, damaged, duped bool
	var delay sim.Time
	for i := 0; i < cells; i++ {
		if r.cfg.CellLossRate > 0 && rng.Float64() < r.cfg.CellLossRate {
			r.faults.CellsDropped++
			if i == cells-1 {
				lost = true
			} else {
				damaged = true
			}
			continue
		}
		if r.cfg.CellCorruptRate > 0 && rng.Float64() < r.cfg.CellCorruptRate {
			r.faults.CellsCorrupted++
			damaged = true
		}
		if r.cfg.CellDupRate > 0 && rng.Float64() < r.cfg.CellDupRate {
			r.faults.CellsDuped++
			duped = true
		}
	}
	if r.cfg.ReorderWindow > 0 {
		if slip := rng.Intn(r.cfg.ReorderWindow + 1); slip > 0 {
			delay = sim.Time(slip) * r.headCell()
			r.faults.PacketsDelayed++
		}
	}
	if lost {
		r.faults.PacketsLost++
		return deliver, 0
	}
	deliver += delay
	if damaged {
		r.faults.PacketsDamaged++
	}
	if duped {
		r.faults.PacketsDuped++
		return deliver, 2
	}
	return deliver, 1
}

func runParity(t *testing.T, cfg config.Config, trafficSeed uint64) {
	t.Helper()
	const n, messages = 16, 4000
	k := sim.NewKernel()
	nw := mustNew(k, &cfg, n)
	if nw.Topology().Kind() != config.TopoSingle {
		t.Fatalf("default topology = %q, want single", nw.Topology().Kind())
	}
	got := make([]sim.Time, messages)
	arrivals := make([]int, messages)
	for i := 0; i < n; i++ {
		nw.Attach(i, func(p *Packet, at sim.Time) {
			m := p.Meta.(int)
			if arrivals[m] == 0 {
				got[m] = at
			}
			arrivals[m]++
		})
	}

	type message struct {
		at              sim.Time
		src, dst, bytes int
	}
	rng := sim.NewRNG(trafficSeed)
	msgs := make([]message, messages)
	var at sim.Time
	for m := range msgs {
		at += sim.Time(rng.Intn(300))
		msgs[m] = message{at: at, src: rng.Intn(n), dst: rng.Intn(n), bytes: 1 + rng.Intn(6000)}
		m := m
		k.At(at, func() {
			mm := msgs[m]
			nw.Send(mm.at, &Packet{Src: mm.src, Dst: mm.dst, Size: mm.bytes, Meta: m})
		})
	}
	k.Run()

	// Same-timestamp sends walk in source-node order (stable, so a
	// node's own sends keep their call order).
	order := make([]int, messages)
	for m := range order {
		order[m] = m
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(msgs[a].at, msgs[b].at); c != 0 {
			return c
		}
		return cmp.Compare(msgs[a].src, msgs[b].src)
	})
	ref := newRef(&cfg, n)
	for _, m := range order {
		mm := msgs[m]
		want, times := ref.send(mm.at, mm.src, mm.dst, mm.bytes)
		if arrivals[m] != times || (times > 0 && got[m] != want) {
			t.Fatalf("message %d (%d->%d, %d B at %d): delivered %d time(s) first at %d, reference %d time(s) at %d",
				m, mm.src, mm.dst, mm.bytes, mm.at, arrivals[m], got[m], times, want)
		}
	}
	if nw.Stats.PortWaits != ref.portWaits {
		t.Fatalf("PortWaits %d, reference %d", nw.Stats.PortWaits, ref.portWaits)
	}
	if nw.Stats.LinkWaits != 0 {
		t.Fatalf("single topology accumulated LinkWaits %d", nw.Stats.LinkWaits)
	}
	if nw.Stats.Faults != ref.faults {
		t.Fatalf("fault stats %+v, reference %+v", nw.Stats.Faults, ref.faults)
	}
}

func TestSingleTopologyParityLossless(t *testing.T) {
	runParity(t, config.Default(), 11)
}

func TestSingleTopologyParityFaulty(t *testing.T) {
	cfg := config.Default()
	cfg.CellLossRate = 0.002
	cfg.CellCorruptRate = 0.001
	cfg.CellDupRate = 0.001
	cfg.ReorderWindow = 3
	cfg.FaultSeed = 42
	runParity(t, cfg, 17)
}
