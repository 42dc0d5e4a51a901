package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The profiled repetition: one more run of a workload under the CPU
// profiler, its samples split over the stack's layers and the Go
// runtime. A sample belongs to the first frame, walking from the leaf
// outwards, that is garbage collection or allocation, goroutine
// scheduling, or a function of one of the repository's layers; so a
// layer's share includes the library code it calls (map access, copy,
// math/rand) but not the scheduling and allocation it causes.

var profileBuckets = []string{
	"sim.host_self_frac", "netsim.host_self_frac", "amoeba.host_self_frac", "group.host_self_frac",
	"rts.host_self_frac", "orca.host_self_frac", "apps.host_self_frac", "workload.host_self_frac",
	"go_runtime.sched_frac", "go_runtime.gc_alloc_frac", "go_runtime.other_frac",
}

var (
	gcFuncs = []string{"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcAssistAlloc", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcWriteBarrier", "runtime.wbBufFlush",
		"runtime.GC", "runtime.growslice", "runtime.newobject", "runtime.makeslice"}
	schedFuncs = []string{"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.schedule", "runtime.park_m",
		"runtime.mcall", "runtime.mstart", "runtime.chansend", "runtime.chanrecv", "runtime.closechan",
		"runtime.selectgo", "runtime.newproc", "runtime.goexit0", "runtime.Gosched", "runtime.Goexit",
		"runtime.semacquire", "runtime.semrelease", "runtime.notesleep", "runtime.notewakeup", "runtime.futex"}
)

// hasAny reports whether fn is one of the functions or a closure of one.
func hasAny(fn string, set []string) bool {
	for _, s := range set {
		if fn == s || strings.HasPrefix(fn, s+".") {
			return true
		}
	}
	return false
}

// bucketOf classifies one frame, "" when it decides nothing.
func bucketOf(fn string) string {
	const internal = "repro/internal/"
	switch {
	case hasAny(fn, gcFuncs):
		return "go_runtime.gc_alloc_frac"
	case hasAny(fn, schedFuncs):
		return "go_runtime.sched_frac"
	case strings.HasPrefix(fn, internal):
		layer := fn[len(internal):]
		layer = layer[:strings.IndexAny(layer, "/.")]
		return layer + ".host_self_frac"
	}
	return ""
}

// profileRun runs fn under the CPU profiler and returns each bucket's
// share of the samples (the shares sum to 1) and the sample count.
func profileRun(fn func() error) (map[string]float64, int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("start CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	stacks, err := parseProfile(&buf)
	if err != nil {
		return nil, 0, fmt.Errorf("parse CPU profile: %w", err)
	}
	shares := map[string]float64{}
	for _, b := range profileBuckets {
		shares[b] = 0
	}
	var total int64
	for _, s := range stacks {
		bucket := "go_runtime.other_frac"
		for _, fn := range s.funcs {
			if b := bucketOf(fn); b != "" {
				if _, known := shares[b]; known {
					bucket = b
				}
				break
			}
		}
		shares[bucket] += float64(s.count)
		total += s.count
	}
	if total == 0 {
		return nil, 0, errors.New("CPU profile has no samples")
	}
	for b := range shares {
		shares[b] /= float64(total)
	}
	return shares, total, nil
}

// stack is one profile sample: its function names from the leaf
// outwards (inlined callees first) and how many times it was seen.
type stack struct {
	funcs []string
	count int64
}

// parseProfile decodes the few fields of the gzipped pprof protobuf
// (github.com/google/pprof/proto/profile.proto) that bucketing needs.
func parseProfile(r io.Reader) ([]stack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string table index
		strs     []string
	)
	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var s sample
			first := true
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					if vals := appendPacked(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location: id = 1, line = 4 {function_id = 1}
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("truncated fixed field")
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, given either
// as one unpacked value or as packed bytes.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
