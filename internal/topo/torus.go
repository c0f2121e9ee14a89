package topo

import (
	"fmt"

	"cni/internal/config"
	"cni/internal/sim"
)

// torus is a 3D torus of per-node routers — the APEnet-style direct
// network. Router (x, y, z) has six neighbor links (+x, -x, +y, -y,
// +z, -z) plus an ejection port toward its attached host; a dimension
// of extent 1 simply never routes. Routing is deadlock-free
// dimension-order: correct X fully, then Y, then Z, each dimension
// traversed in its shorter wrap direction (ties go positive), then
// eject at the destination router. Routes are minimal and a pure
// function of (src, dst).
type torus struct {
	nodes int
	dims  [3]int

	tx    []*sim.Resource
	ports []*sim.Resource // routers * 7, dense by (router, port)
}

// Router port numbering: directions 2*d (positive) and 2*d+1
// (negative) for dimension d, then the ejection port.
const (
	torusPorts = 7
	torusEject = 6
)

// TorusDimsFor picks a near-cubic geometry for n nodes: starting from
// 1x1x1, grow the smallest extent until the torus holds n routers.
func TorusDimsFor(n int) [3]int {
	d := [3]int{1, 1, 1}
	for d[0]*d[1]*d[2] < n {
		min := 0
		for i := 1; i < 3; i++ {
			if d[i] < d[min] {
				min = i
			}
		}
		d[min]++
	}
	return d
}

// Partition cuts the torus into balanced contiguous id blocks; node
// ids are x-major, so a block is a contiguous slab of whole (and
// partial boundary) z/y-planes and shard crossings follow the torus's
// own dimension boundaries.
func (t *torus) Partition(shards int) []int { return blockPartition(t.nodes, shards) }

func newTorus(cfg *config.Config, n int) (*torus, error) {
	dims := cfg.TorusDims
	if dims == [3]int{} {
		dims = TorusDimsFor(n)
	}
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("topo: torus dimensions %v must all be >= 1", dims)
		}
	}
	routers := dims[0] * dims[1] * dims[2]
	if n > routers {
		return nil, fmt.Errorf("topo: %d nodes exceed the %d routers of a %dx%dx%d torus", n, routers, dims[0], dims[1], dims[2])
	}
	t := &torus{nodes: n, dims: dims}
	for i := 0; i < n; i++ {
		t.tx = append(t.tx, sim.NewResource(fmt.Sprintf("txlink%d", i)))
	}
	t.ports = make([]*sim.Resource, routers*torusPorts)
	for r := 0; r < routers; r++ {
		for p := 0; p < torusPorts; p++ {
			t.ports[r*torusPorts+p] = sim.NewResource(fmt.Sprintf("torus%d.%d", r, p))
		}
	}
	return t, nil
}

func (t *torus) Kind() string { return config.TopoTorus }

func (t *torus) Nodes() int { return t.nodes }

func (t *torus) Edges() int {
	return t.nodes + t.dims[0]*t.dims[1]*t.dims[2]*torusPorts
}

func (t *torus) TxLink(node int) *sim.Resource { return t.tx[node] }

// Dims reports the configured (or auto-picked) torus extents.
func (t *torus) Dims() [3]int { return t.dims }

// coords decomposes a router id into torus coordinates.
func (t *torus) coords(id int) (c [3]int) {
	c[0] = id % t.dims[0]
	c[1] = (id / t.dims[0]) % t.dims[1]
	c[2] = id / (t.dims[0] * t.dims[1])
	return
}

func (t *torus) router(c [3]int) int {
	return c[0] + t.dims[0]*(c[1]+t.dims[1]*c[2])
}

// hop builds the Hop for the given router's output port.
func (t *torus) hop(router, port int) Hop {
	i := router*torusPorts + port
	return Hop{Port: t.ports[i], Edge: t.nodes + i}
}

func (t *torus) Route(src, dst int, buf []Hop) []Hop {
	cur := t.coords(src)
	want := t.coords(dst)
	for d := 0; d < 3; d++ {
		ext := t.dims[d]
		fwd := ((want[d]-cur[d])%ext + ext) % ext
		bwd := ext - fwd
		for cur[d] != want[d] {
			if fwd <= bwd {
				// Positive (shorter or tie) wrap direction.
				buf = append(buf, t.hop(t.router(cur), 2*d))
				cur[d] = (cur[d] + 1) % ext
			} else {
				buf = append(buf, t.hop(t.router(cur), 2*d+1))
				cur[d] = (cur[d] - 1 + ext) % ext
			}
		}
	}
	return append(buf, t.hop(t.router(want), torusEject))
}

func (t *torus) Diameter() int {
	return t.dims[0]/2 + t.dims[1]/2 + t.dims[2]/2 + 1
}

func (t *torus) Describe() string {
	return fmt.Sprintf("%dx%dx%d torus (dimension-order routing, diameter %d), %d nodes",
		t.dims[0], t.dims[1], t.dims[2], t.Diameter(), t.nodes)
}
