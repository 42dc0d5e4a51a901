package amoeba

import (
	"fmt"
	"reflect"

	"repro/internal/sim"
)

// Args is the parameter record of an operation: its arguments on the
// way out, its results on the way back. It plays the part of the small
// parameters in Amoeba's RPC header (h_offset, h_size, h_extra) with
// the buffer beside them: of the first ArgSlots values, those put as a
// bool, int or int64 sit inline as words and those of any other
// concrete type travel by reference, as a *T carved from the run's
// tables (sim.Carve) that Get and Value read through; whatever else
// there is — a value put as an interface, a third value — travels as
// it was put, boxed. Carved and boxed values share the one spill slot.
// The record is copied, never pointed to — through the runtimes, a
// Packet and a Request — and nothing it refers to is ever written
// again: a carved value is never handed out twice, so a copy that is
// retransmitted, cached or queued long after its maker moved on reads
// what was put. A value keeps its type: what was put as an int64 comes
// back as an int64.
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

// argKind says what an inline slot holds; the first two kinds mean the
// value is the next one in the spill slot: boxed, or carved (a *T).
type argKind uint8

const (
	spilled argKind = iota
	carved
	kindBool
	kindInt
	kindInt64
)

// Put appends v to the record; a value that travels by reference is
// carved from e's tables (a nil e allocates it on its own).
func Put[T any](a *Args, e *sim.Env, v T) {
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
	}
	var x any
	switch i := a.n; {
	case i < ArgSlots && k != spilled:
		a.kind[i], a.word[i], a.n = k, w, i+1
		return
	case i < ArgSlots && reflect.TypeFor[T]().Kind() != reflect.Interface:
		a.kind[i], x = carved, sim.Carve(e, v)
	default:
		x = v
	}
	a.n++
	switch a.spills++; a.spills {
	case 1:
		a.spill = x
	case 2:
		a.spill = []any{a.spill, x}
	default:
		a.spill = append(a.spill.([]any), x)
	}
}

// Get returns value i as a T. An inline value of exactly that type is
// read in place and a carved one through its pointer; anything else
// goes by way of Value and a type assertion, so a value of the wrong
// type panics as the assertion does, and nil is the zero value of an
// interface type only.
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
		}
		if want == a.kind[i] && want != spilled {
			return v
		}
		if a.kind[i] == carved {
			return *a.spilled(i).(*T)
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
	if i >= ArgSlots || a.kind[i] == spilled {
		return a.spilled(i)
	}
	switch w := a.word[i]; a.kind[i] {
	case carved:
		return reflect.ValueOf(a.spilled(i)).Elem().Interface()
	case kindBool:
		return w != 0
	case kindInt:
		return int(w)
	}
	return int64(a.word[i])
}

// spilled returns value i, which is in the spill slot, as it is there.
func (a *Args) spilled(i int) any {
	if a.spills == 1 {
		return a.spill
	}
	at := 0 // i's place among the spilled values
	for s := 0; s < i; s++ {
		if s >= ArgSlots || a.kind[s] <= carved {
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
// eight per other inline value, and sizeOf of each spilled value — of
// its pointer, for a carved one.
func (a *Args) Size(sizeOf func(any) int) int {
	size := 4
	for i := range int(a.n) {
		switch {
		case i >= ArgSlots || a.kind[i] <= carved:
			size += sizeOf(a.spilled(i))
		case a.kind[i] == kindBool:
			size++
		default:
			size += 8
		}
	}
	return size
}
