package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the repository's layers, cni/internal/<module>. A CPU
// sample whose leaf function lies in one is charged to
// "<module>.self_s"; sub-packages (apps/spmat) fold into their module.
var modules = []string{
	"adc", "apps", "atm", "cluster", "collective", "config", "dsm", "experiments",
	"kv", "memsys", "msgcache", "msgpass", "nic", "pathfinder", "rpc", "sim",
	"tenant", "topo", "trace", "workload",
}

// runtimeBuckets are the Go runtime's shares of host time. A sample
// whose leaf is in the runtime is charged to the first bucket whose
// marker function appears on its stack, searching from the leaf up.
var runtimeBuckets = []struct {
	name    string
	markers []string
}{
	{"runtime.gc_self_s", []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcDrainN",
		"runtime.scanobject", "runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.gcWriteBarrier", "runtime.wbBufFlush", "runtime.gcStart",
		"runtime.gcMarkTermination", "runtime.greyobject", "runtime.findObject",
	}},
	{"runtime.map_self_s", []string{
		"runtime.mapaccess", "runtime.mapassign", "runtime.mapdelete", "runtime.mapiter",
		"runtime.mapclear", "runtime.makemap", "internal/runtime/maps.",
	}},
	{"runtime.alloc_self_s", []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.newarray", "runtime.rawstring", "runtime.concatstring", "runtime.convT",
	}},
	{"runtime.sched_self_s", []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.mcall", "runtime.chansend",
		"runtime.chanrecv", "runtime.selectgo", "runtime.goexit", "runtime.newproc",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep",
		"runtime.notewakeup", "runtime.mstart", "runtime.gosched", "runtime.exitsyscall",
		"runtime.entersyscall", "runtime.runqgrab", "runtime.stealWork", "runtime.casgstatus",
		"runtime.futex",
	}},
}

// bucketOf names the self-time bucket of one sample's stack, leaf first.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other.self_s"
	}
	leaf := stack[0]
	if rest, ok := strings.CutPrefix(leaf, "cni/internal/"); ok {
		return rest[:strings.IndexAny(rest+".", "./")] + ".self_s"
	}
	if strings.HasPrefix(leaf, "main.") {
		return "bench.self_s"
	}
	if !strings.HasPrefix(leaf, "runtime.") && !strings.HasPrefix(leaf, "internal/runtime/") {
		return "other.self_s"
	}
	for _, fn := range stack {
		for _, b := range runtimeBuckets {
			for _, m := range b.markers {
				if strings.HasPrefix(fn, m) {
					return b.name
				}
			}
		}
	}
	return "runtime.other_self_s"
}

// foldProfile decodes a gzipped pprof CPU profile and sums its CPU
// seconds by the leaf bucket of each sample.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.strings[p.functions[fn]])
			}
		}
		if len(s.values) > 0 {
			// A CPU profile's last value is CPU nanoseconds.
			out[bucketOf(stack)] += float64(s.values[len(s.values)-1]) / 1e9
		}
	}
	return out, nil
}

// profile is the part of the pprof protobuf the fold needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// pb walks one protobuf message.
type pb struct{ b []byte }

var errTruncated = errors.New("profile: truncated protobuf")

func (p *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes.
func (p *pb) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", key&7)
	}
	return field, v, data, err
}

// uints appends a repeated integer field that may be packed (data
// non-nil) or a single varint.
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	q := pb{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	top := pb{raw}
	for len(top.b) > 0 {
		field, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			s, err := decodeSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			id, fns, err := decodeLocation(data)
			if err != nil {
				return nil, err
			}
			p.locations[id] = fns
		case 5: // Function
			id, name, err := decodeFunction(data)
			if err != nil {
				return nil, err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d out of range", name)
		}
	}
	return p, nil
}

func decodeSample(data []byte) (sample, error) {
	var s sample
	var vals []uint64
	m := pb{data}
	for len(m.b) > 0 {
		field, v, d, err := m.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			s.locs, err = uints(s.locs, v, d)
		case 2:
			vals, err = uints(vals, v, d)
		}
		if err != nil {
			return s, err
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, nil
}

func decodeLocation(data []byte) (id uint64, fns []uint64, err error) {
	m := pb{data}
	for len(m.b) > 0 {
		field, v, d, err := m.next()
		if err != nil {
			return 0, nil, err
		}
		switch field {
		case 1:
			id = v
		case 4: // Line
			l := pb{d}
			for len(l.b) > 0 {
				f, lv, _, err := l.next()
				if err != nil {
					return 0, nil, err
				}
				if f == 1 {
					fns = append(fns, lv)
				}
			}
		}
	}
	return id, fns, nil
}

func decodeFunction(data []byte) (id uint64, name int64, err error) {
	m := pb{data}
	for len(m.b) > 0 {
		field, v, _, err := m.next()
		if err != nil {
			return 0, 0, err
		}
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	return id, name, nil
}
