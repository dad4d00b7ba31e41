package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped protobuf
// (github.com/google/pprof/proto/profile.proto). The decoder below reads
// only the fields the per-layer fold needs, with the standard library
// alone: samples (location ids, values), locations (lines), functions
// (name, file), the string table and the sample types.

// frame is one function in a sampled stack.
type frame struct{ fn, file string }

// sample is one stack (leaf first, inlined callees before their callers)
// and the CPU time it was charged.
type sample struct {
	stack []frame
	ns    int64
}

// parseProfile decodes a CPU profile into samples.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct{ locs, vals []uint64 }
	type rawFunc struct{ name, file uint64 }
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs       = map[uint64]rawFunc{}
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var f rawFunc
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// Charge the cpu/nanoseconds value; fall back to the last value.
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var st []frame
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				f := funcs[fid]
				st = append(st, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, sample{stack: st, ns: int64(s.vals[vi])})
	}
	return out, nil
}

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			n = 8
		case 2:
			l, m := uvarint(msg)
			if m <= 0 || uint64(len(msg)-m) < l {
				return errors.New("profile: bad length")
			}
			b, n = msg[m:m+int(l)], m+int(l)
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			n = 4
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		msg = msg[n:]
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder may
// write packed (b set) or one value per field.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layers lists the per-layer buckets of the fold, in report order.
var layers = []string{"sim", "netem", "tcp", "mptcp", "lp", "capture", "sweep", "runlog", "gc", "other"}

// modulePackageLayer maps the simulator's packages to their layer.
var modulePackageLayer = map[string]string{
	"mptcpsim/internal/sim":     "sim",
	"mptcpsim/internal/netem":   "netem",
	"mptcpsim/internal/route":   "netem",
	"mptcpsim/internal/packet":  "netem",
	"mptcpsim/internal/tcp":     "tcp",
	"mptcpsim/internal/cc":      "tcp",
	"mptcpsim/internal/mptcp":   "mptcp",
	"mptcpsim/internal/lp":      "lp",
	"mptcpsim/internal/capture": "capture",
	"mptcpsim/internal/trace":   "capture",
	"mptcpsim/internal/stats":   "capture",
}

// rootFileLayer splits the root package by file: the sweep dispatch
// (including Describe's expansion and digest) and the run-log with its
// sinks.
var rootFileLayer = map[string]string{
	"sweep.go":  "sweep",
	"shard.go":  "sweep",
	"runlog.go": "runlog",
	"sink.go":   "runlog",
}

// funcPackage returns the import path of a symbol such as
// "mptcpsim/internal/sim.(*Loop).RunUntil" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf names the layer that owns a frame, or "" for a standard-library
// frame, which is charged to the nearest caller that has a layer.
func layerOf(f frame) string {
	pkg := funcPackage(f.fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "gc"
	case pkg == "mptcpsim":
		if l, ok := rootFileLayer[path.Base(f.file)]; ok {
			return l
		}
		return "other"
	case strings.HasPrefix(pkg, "mptcpsim/"):
		if l, ok := modulePackageLayer[pkg]; ok {
			return l
		}
		return "other"
	case pkg == "main":
		return "other"
	}
	return ""
}

// foldByLayer charges each sample's time to the layer of its leaf-most
// frame that has one: the simulator's own code by package (root package
// by file), the Go runtime (GC, allocation, scheduling) to "gc", and
// standard-library code to the layer that called it. Stacks with no
// such frame land in "other".
func foldByLayer(samples []sample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		layer := "other"
		for _, f := range s.stack {
			if l := layerOf(f); l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.ns
	}
	return out
}
