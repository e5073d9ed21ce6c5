package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuPackages are the repro packages whose self time the traced run
// reports as its own cpu.<name> share; every other package counts as
// cpu.other.
var cpuPackages = []string{
	"sim", "dma", "dram", "icap", "crcmon", "bitstream", "fabric",
	"core", "hll", "sched", "cluster", "workload", "plan",
}

// cpuBuckets lists every share cpuShares reports.
func cpuBuckets() []string {
	return append(append([]string(nil), cpuPackages...), "runtime_gc", "runtime_malloc", "other")
}

// The runtime frames that mark a sample as garbage-collector work (found
// anywhere on the stack) or as allocation (found below the first repro
// frame).
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.markroot", "runtime.wbBufFlush",
		"runtime.gcDrain",
	}
	mallocFrames = []string{
		"runtime.malloc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.rawstring", "runtime.rawbyteslice",
	}
)

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a symbol name such as
// "repro/internal/dma.(*Engine).pump".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// classify assigns a sample's stack (leaf first) to a bucket. The sample
// belongs to the package of its leaf frame; standard-library and runtime
// helpers (copy, map access, hashing) are charged to the nearest repro
// caller, except garbage collection and allocation, which have buckets
// of their own.
func classify(stack []string) string {
	for _, fn := range stack {
		if hasPrefixAny(fn, gcFrames) {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if hasPrefixAny(fn, mallocFrames) {
			return "runtime_malloc"
		}
		if pkg := packageOf(fn); strings.HasPrefix(pkg, "repro/") {
			name := pkg[strings.LastIndex(pkg, "/")+1:]
			for _, p := range cpuPackages {
				if p == name {
					return name
				}
			}
			return "other"
		}
	}
	return "other"
}

// cpuShares reads a gzipped pprof CPU profile and returns each bucket's
// share of the sampled CPU time (0 for buckets with no samples).
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	totals := map[string]float64{}
	var all float64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		totals[classify(stack)] += float64(s.value)
		all += float64(s.value)
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets() {
		if all > 0 {
			out[b] = totals[b] / all
		} else {
			out[b] = 0
		}
	}
	return out, nil
}

// profile holds the parts of a pprof profile.proto that cpuShares needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, leaf first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type profSample struct {
	locs  []uint64 // location ids, leaf first
	value int64    // the last sample value (CPU nanoseconds)
}

// protobuf is a minimal reader for the wire format.
type protobuf struct {
	b []byte
}

var errTruncated = errors.New("truncated protobuf")

func (p *protobuf) varint() (uint64, error) {
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
	return 0, errors.New("varint overflow")
}

// field reads the next field: its number, wire type, varint value (for
// wire type 0) or payload (for wire type 2).
func (p *protobuf) field() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return num, wire, v, payload, err
}

// uints decodes a repeated integer field that may be packed (wire type 2)
// or not (wire type 0).
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := protobuf{payload}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	top := protobuf{b}
	for len(top.b) > 0 {
		num, _, _, payload, err := top.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s profSample
			var values []uint64
			m := protobuf{payload}
			for len(m.b) > 0 {
				n, w, v, pl, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, pl)
				case 2:
					values, err = uints(values, w, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			m := protobuf{payload}
			for len(m.b) > 0 {
				n, _, v, pl, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					l := protobuf{pl}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			m := protobuf{payload}
			for len(m.b) > 0 {
				n, _, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcNames[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(payload))
		}
	}
	for _, f := range p.funcNames {
		if f < 0 || f >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d out of range", f)
		}
	}
	return p, nil
}
