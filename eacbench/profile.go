package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerTable maps every package of the eac module to the layer its CPU
// time is charged to. A package missing from the table is an error (see
// layerOf), so a new package cannot silently drop out of the split.
var layerTable = map[string]string{
	"eac/internal/sim":       "sim",
	"eac/internal/sim/shard": "sim",
	"eac/internal/netsim":    "netsim",
	"eac/internal/trafgen":   "trafgen",
	"eac/internal/tcp":       "trafgen",
	"eac/internal/admission": "admission",
	"eac/internal/mbac":      "mbac",
	"eac/internal/fluid":     "fluid",
	"eac/internal/scenario":  "scenario",
	"eac/internal/cache":     "scenario",
	"eac/internal/stats":     "stats",
	"eac/internal/obs":       "obs",
	// Drivers above the runner. The benchmark never calls them; they are
	// listed so that every package has a layer.
	"eac":                                 "scenario",
	"eac/internal/experiments":            "scenario",
	"eac/internal/conformance":            "scenario",
	"eac/internal/conformance/invariants": "scenario",
	"eac/internal/benchindex":             "scenario",
}

// layers are the named layers, in report order. CPU charged to none of
// them is reported as "other".
var layers = []string{"sim", "netsim", "trafgen", "admission", "mbac", "fluid", "scenario", "stats", "obs", "runtime"}

// funcPackage returns the import path of a Go function symbol such as
// "eac/internal/scenario.(*Runner).Run.func1".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// layerOf returns the layer a frame of function fn is charged to: its
// eac package's layer, "fluid" for netsim's FluidBackground, "runtime" for
// the Go runtime (scheduler, allocator, GC), or "" for a frame that is
// charged to its caller instead (the rest of the standard library). It
// fails for an eac package missing from layerTable.
func layerOf(fn string) (string, error) {
	pkg := funcPackage(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime", nil
	case pkg != "eac" && !strings.HasPrefix(pkg, "eac/"):
		return "", nil
	case pkg == "eac/internal/netsim" && strings.Contains(fn[len(pkg):], "FluidBackground"):
		return "fluid", nil
	}
	l, ok := layerTable[pkg]
	if !ok {
		return "", fmt.Errorf("package %s has no layer in layerTable", pkg)
	}
	return l, nil
}

// stackLayer returns the layer charged with a sample's self time: that of
// the innermost frame that has one. Frames of the benchmark itself
// (package main) and stacks with no charged frame give "other".
func stackLayer(stack []string) (string, error) {
	for _, fn := range stack {
		if funcPackage(fn) == "main" {
			return "other", nil
		}
		l, err := layerOf(fn)
		if err != nil || l != "" {
			return l, err
		}
	}
	return "other", nil
}

// cpuSample is one CPU profile sample: its call stack as function names,
// innermost first with inlined frames expanded, and its CPU time.
type cpuSample struct {
	stack []string
	ns    int64
}

// selfSeconds charges every sample's CPU time to its stack's layer.
func selfSeconds(samples []cpuSample) (map[string]float64, error) {
	self := map[string]float64{}
	for _, s := range samples {
		l, err := stackLayer(s.stack)
		if err != nil {
			return nil, err
		}
		self[l] += float64(s.ns) / 1e9
	}
	return self, nil
}

var errProto = errors.New("malformed profile")

// parseCPUProfile decodes the gzipped protocol buffer runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), keeping only what
// selfSeconds needs. The last sample value of a CPU profile is CPU time in
// nanoseconds.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		strs    []string
		fnName  = map[uint64]uint64{}   // function id → string index
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(num int, wire uint64, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2
			var s rawSample
			err := eachField(b, func(num int, wire uint64, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case 2:
					s.vals, err = appendVarints(s.vals, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire uint64, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, wire uint64, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := eachField(b, func(num int, wire uint64, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, errProto
		}
		cs := cpuSample{ns: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				i := fnName[fn]
				if i >= uint64(len(strs)) {
					return nil, errProto
				}
				cs.stack = append(cs.stack, strs[i])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField calls f for every field of one protocol buffer message with
// the field number, wire type, and the value of a varint field or the
// bytes of a length-delimited one.
func eachField(msg []byte, f func(num int, wire uint64, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(msg) < width {
				return errProto
			}
			msg = msg[width:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return errProto
		}
		if err := f(int(key>>3), key&7, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which the encoder may
// write packed (one length-delimited field) or as separate varints.
func appendVarints(dst []uint64, wire, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
