package rts

import (
	"fmt"
	"reflect"

	"repro/internal/amoeba"
	"repro/internal/sim"
)

// ObjID identifies a shared object across all machines.
type ObjID int64

// OpKind classifies operations. Reads execute locally on a replica
// without network traffic; writes are propagated by the runtime.
type OpKind int

const (
	// Read is an operation that does not change the object state.
	Read OpKind = iota
	// Write is an operation that (potentially) changes the state.
	Write
)

// String names the operation kind.
func (k OpKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// State is an object's encapsulated data. Replicas never share State
// values: each machine holds its own copy, kept consistent by applying
// the same deterministic operations in the same order.
type State any

// Args is the record an operation's arguments travel in, and its
// results: a few scalars inline and the rest by reference or boxed in
// a spill slot, copied by value from the invoker to Apply and back (see
// amoeba.Args, which is the record in the kernel's packet header).
// Status marks a bounced invocation (see adapt.go).
type Args = amoeba.Args

// Put appends v to a record, carving it from e's tables when it travels
// by reference (see amoeba.Args).
func Put[T any](a *Args, e *sim.Env, v T) { amoeba.Put(a, e, v) }

// Get returns value i of a record as a T; a value of another type
// panics, and nil is the zero value of an interface type only.
func Get[T any](a *Args, i int) T { return amoeba.Get[T](a, i) }

// ArgsOf is the record of a positional value list. Values put as an
// interface travel boxed, as they arrived.
func ArgsOf(vs ...any) (a Args) {
	for _, v := range vs {
		Put(&a, nil, v)
	}
	return a
}

// OpDef defines one operation of an object type.
type OpDef struct {
	// Name is the operation name Call dispatches on.
	Name string
	// Kind classifies the operation; the runtime trusts it (as the
	// Orca compiler determined it statically).
	Kind OpKind
	// Guard, if non-nil, must return true for the operation to
	// execute; otherwise the invocation suspends until a write makes
	// the guard true. Guards must be side-effect free.
	Guard func(s State, in Args) bool
	// Apply executes the operation and returns its results, carving
	// what travels by reference from e's tables. Write operations may
	// mutate s; they must be deterministic, because the broadcast
	// runtime ships the operation (function shipping) and every
	// replica applies it independently.
	Apply func(e *sim.Env, s State, in Args) Args
	// NoResult declares that Apply always returns an empty record
	// (the typed DefUpdate* descriptors set it). Unguarded
	// no-result writes are the ops a batching runtime may submit
	// through a combining buffer, completing them asynchronously —
	// there is no result the invoker could observe.
	NoResult bool
}

// ObjectType is an abstract data type: a constructor plus operations.
type ObjectType struct {
	// Name identifies the type in the global registry.
	Name string
	// New creates the initial state from constructor arguments.
	New func(args []any) State
	// Clone deep-copies a state. The point-to-point runtime uses it
	// to transfer copies between machines; it must produce a state
	// disjoint from the original.
	Clone func(s State) State
	// SizeOf reports the state's wire size in bytes, used for
	// state-transfer message sizes. If nil, the state is sized by
	// SizeOfValue, which panics on a value of no known wire size.
	SizeOf func(s State) int
	// Ops maps operation names to definitions.
	Ops map[string]*OpDef
}

// Op returns the named operation or panics: invoking an undefined
// operation is a program bug, as it would be a compile error in Orca.
func (t *ObjectType) Op(name string) *OpDef {
	op, ok := t.Ops[name]
	if !ok {
		panic(fmt.Sprintf("rts: type %s has no operation %q", t.Name, name))
	}
	return op
}

// stateSize reports the wire size of s using the type's SizeOf or
// SizeOfValue.
func (t *ObjectType) stateSize(s State) int {
	if t.SizeOf != nil {
		return t.SizeOf(s)
	}
	return SizeOfValue(s)
}

// Registry maps type names to object types so every machine's runtime
// can instantiate replicas from wire messages.
type Registry struct {
	types map[string]*ObjectType
}

// NewRegistry creates an empty type registry.
func NewRegistry() *Registry { return &Registry{types: make(map[string]*ObjectType)} }

// Register adds a type. Registering a duplicate name panics.
func (r *Registry) Register(t *ObjectType) {
	if _, dup := r.types[t.Name]; dup {
		panic(fmt.Sprintf("rts: duplicate type %q", t.Name))
	}
	r.types[t.Name] = t
}

// Each calls fn for every registered type, in unspecified order.
func (r *Registry) Each(fn func(*ObjectType)) {
	for _, t := range r.types {
		fn(t)
	}
}

// Lookup returns the named type or panics.
func (r *Registry) Lookup(name string) *ObjectType {
	t, ok := r.types[name]
	if !ok {
		panic(fmt.Sprintf("rts: unknown type %q", name))
	}
	return t
}

// opCache is a two-entry MRU cache over an ObjectType's Ops map.
// Operation names at call sites are string constants, so a hit is a
// pointer-equality compare; two entries keep the classic
// read-then-write alternation (value/min, get/add) from thrashing.
// Purely a dispatch cache: the map stays the source of truth and the
// (deterministic) results are identical. The simulation is
// single-threaded, so no locking is needed even on shared records.
type opCache struct {
	name0, name1 string
	op0, op1     *OpDef
}

// lookup resolves an operation name through the cache, consulting t on
// a miss.
func (c *opCache) lookup(t *ObjectType, name string) *OpDef {
	if c.name0 == name {
		return c.op0
	}
	if c.name1 == name {
		c.name0, c.name1 = c.name1, c.name0
		c.op0, c.op1 = c.op1, c.op0
		return c.op0
	}
	op := t.Op(name)
	c.name1, c.op1 = c.name0, c.op0
	c.name0, c.op0 = name, op
	return op
}

// Sized lets values report their own wire size.
type Sized interface{ WireSize() int }

// SizeOfValue reports the wire size of v in bytes: known scalar and
// slice shapes are computed directly and a Sized value is asked. A
// pointer weighs what it points to, as a carved value does (see
// amoeba.Args). A value that is none of these has no wire size, and
// sizing it panics.
func SizeOfValue(v any) int {
	switch x := v.(type) {
	case nil:
		return 1
	case Sized:
		return x.WireSize()
	case bool, *bool:
		return 1
	case int, int64, uint64, float64, sim.Time, *int, *int64, *uint64, *float64, *sim.Time:
		return 8
	case int32, uint32, float32:
		return 4
	case string:
		return 4 + len(x)
	case *string:
		return 4 + len(*x)
	case []byte:
		return 4 + len(x)
	case *[]byte:
		return 4 + len(*x)
	case *[]int:
		return 4 + 8*len(*x)
	case []int:
		return 4 + 8*len(x)
	case []int64:
		return 4 + 8*len(x)
	case []bool:
		return 4 + len(x)
	case []any:
		n := 4
		for _, e := range x {
			n += SizeOfValue(e)
		}
		return n
	}
	if p := reflect.ValueOf(v); p.Kind() == reflect.Pointer && !p.IsNil() {
		return SizeOfValue(p.Elem().Interface())
	}
	panic(fmt.Sprintf("rts: no wire size for a %T: give it a WireSize method (rts.Sized)", v))
}

// GobSizings reports how many values were sized by encoding them with
// gob: none, since the fallback that did so is gone. The benchmark
// still asks.
func GobSizings() int64 { return 0 }

// retryBytes is what a bounce (see adapt.go) weighs in a result record:
// the 64 bytes the gob fallback used to charge its sentinel value.
const retryBytes = 64

// SizeOfArgs reports the wire size of a record.
func SizeOfArgs(a *Args) int {
	if a.Status == statusRetry {
		return 4 + retryBytes
	}
	return a.Size(SizeOfValue)
}

// opSize is the wire size of an operation record: its arguments, its
// name and a fixed 16 bytes. Every record that names an operation —
// a write, a batched write, a fenced write, a forwarded or primary-copy
// request — is charged by it.
func opSize(name string, a *Args) int { return SizeOfArgs(a) + len(name) + 16 }

// Costs are the runtime-system CPU overheads, separate from kernel
// costs. They represent the object-manager bookkeeping around each
// operation. There is one set, DefaultCosts.
type Costs struct {
	readLocal  sim.Time // a local read (lock check, dispatch)
	writeApply sim.Time // at every machine that applies a write
	guardCheck sim.Time // per guard evaluation
	create     sim.Time // instantiating a replica
	defaultOp  sim.Time // the execution of an operation
}

// DefaultCosts returns RTS overheads for the 68030-class testbed.
func DefaultCosts() Costs {
	return Costs{
		readLocal:  5 * sim.Microsecond,
		writeApply: 15 * sim.Microsecond,
		guardCheck: 3 * sim.Microsecond,
		create:     40 * sim.Microsecond,
		defaultOp:  5 * sim.Microsecond,
	}
}
