package amoeba

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Args is the parameter record of an operation: its arguments on the
// way out, its results on the way back. It plays the part of the small
// parameters in Amoeba's RPC header (h_offset, h_size, h_extra) with
// the buffer beside them: of the first ArgSlots values, those put as a
// bool, int, int64, float64 or sim.Time sit inline as words, and
// whatever else there is — a value of any other type, a value put as an
// interface, a third value — shares the one spill slot. The record is
// copied, never pointed to — through the runtimes, a Packet and a
// Request — so a copy that is retransmitted, cached or queued cannot
// be changed by whoever reuses the record it was copied from. A value
// keeps its type: what was put as an int64 comes back as an int64.
type Args struct {
	// Status is the header's h_status: zero for a plain result; the
	// layers above say what else a reply may report.
	Status uint8

	n      uint8 // values carried
	spills uint8 // how many of them are in spill
	kind   [ArgSlots]argKind
	word   [ArgSlots]uint64
	spill  any // the spilled value, or a []any of them in order when spills > 1
}

// ArgSlots is the number of values a record can hold inline.
const ArgSlots = 2

// argKind says what an inline slot holds; the zero kind means the value
// is the next one in the spill slot.
type argKind uint8

const (
	spilled argKind = iota
	kindBool
	kindInt
	kindInt64
	kindFloat64
	kindTime
)

// Put appends v to the record.
func Put[T any](a *Args, v T) {
	k, w := spilled, uint64(0)
	switch p := any(&v).(type) {
	case *bool:
		if k = kindBool; *p {
			w = 1
		}
	case *int:
		k, w = kindInt, uint64(*p)
	case *int64:
		k, w = kindInt64, uint64(*p)
	case *float64:
		k, w = kindFloat64, math.Float64bits(*p)
	case *sim.Time:
		k, w = kindTime, uint64(*p)
	}
	if a.n++; k != spilled && a.n <= ArgSlots {
		a.kind[a.n-1], a.word[a.n-1] = k, w
		return
	}
	switch a.spills++; a.spills {
	case 1:
		a.spill = any(v)
	case 2:
		a.spill = []any{a.spill, any(v)}
	default:
		a.spill = append(a.spill.([]any), any(v))
	}
}

// Get returns value i as a T. An inline value of exactly that type is
// read in place; anything else goes by way of Value and a type
// assertion, so a value of the wrong type panics as the assertion does,
// and nil is the zero value of an interface type only.
func Get[T any](a *Args, i int) (v T) {
	if i < int(a.n) && i < ArgSlots {
		want, w := spilled, a.word[i]
		switch p := any(&v).(type) {
		case *bool:
			want, *p = kindBool, w != 0
		case *int:
			want, *p = kindInt, int(w)
		case *int64:
			want, *p = kindInt64, int64(w)
		case *float64:
			want, *p = kindFloat64, math.Float64frombits(w)
		case *sim.Time:
			want, *p = kindTime, sim.Time(w)
		}
		if want == a.kind[i] && want != spilled {
			return v
		}
	}
	x := a.Value(i)
	if x == nil && any(v) == nil {
		return v // T is an interface type: nil is its zero value
	}
	return x.(T)
}

// Value returns value i boxed.
func (a *Args) Value(i int) any {
	if i < 0 || i >= int(a.n) {
		panic(fmt.Sprintf("amoeba: value %d of a record of %d", i, a.n))
	}
	if i < ArgSlots && a.kind[i] != spilled {
		switch w := a.word[i]; a.kind[i] {
		case kindBool:
			return w != 0
		case kindInt:
			return int(w)
		case kindInt64:
			return int64(w)
		case kindFloat64:
			return math.Float64frombits(w)
		}
		return sim.Time(a.word[i])
	}
	if a.spills == 1 {
		return a.spill
	}
	at := 0 // i's place among the spilled values
	for s := 0; s < i; s++ {
		if s >= ArgSlots || a.kind[s] == spilled {
			at++
		}
	}
	return a.spill.([]any)[at]
}

// Values returns the record's values boxed, nil for an empty record.
func (a *Args) Values() []any {
	if a.n == 0 {
		return nil
	}
	vs := make([]any, a.n)
	for i := range vs {
		vs[i] = a.Value(i)
	}
	return vs
}

// Size reports the record's wire size: four bytes, one per inline bool,
// eight per other inline value, and sizeOf of each spilled value.
func (a *Args) Size(sizeOf func(any) int) int {
	size := 4
	for i := 0; i < int(a.n) && i < ArgSlots; i++ {
		switch a.kind[i] {
		case spilled:
		case kindBool:
			size++
		default:
			size += 8
		}
	}
	switch a.spills {
	case 0:
	case 1:
		size += sizeOf(a.spill)
	default:
		for _, v := range a.spill.([]any) {
			size += sizeOf(v)
		}
	}
	return size
}
