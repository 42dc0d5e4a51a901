package rts

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync/atomic"

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

// OpDef defines one operation of an object type.
type OpDef struct {
	// Name is the operation name used in Invoke.
	Name string
	// Kind classifies the operation; the runtime trusts it (as the
	// Orca compiler determined it statically).
	Kind OpKind
	// Guard, if non-nil, must return true for the operation to
	// execute; otherwise the invocation suspends until a write makes
	// the guard true. Guards must be side-effect free.
	Guard func(s State, args []any) bool
	// Apply executes the operation and returns its results. Write
	// operations may mutate s; they must be deterministic, because
	// the broadcast runtime ships the operation (function shipping)
	// and every replica applies it independently.
	Apply func(s State, args []any) []any
	// ApplyInto, when non-nil, is Apply in append form: it appends the
	// results to dst and returns the extended slice. The runtimes use
	// it on local-read fast paths with a per-worker scratch buffer, so
	// a read costs no result allocation. Optional; the typed builder
	// layer always provides it.
	ApplyInto func(s State, args []any, dst []any) []any
	// ApplyDiscard, when non-nil, is Apply for a caller that drops the
	// results: a replica applying a write invoked on another machine.
	// An operation that knows its results are not wanted never converts
	// them to any, which for most values is an allocation each.
	// Optional; the typed builder layer provides it for every write
	// that has results.
	ApplyDiscard func(s State, args []any)
	// NoResult declares that Apply always returns an empty result
	// list (the typed DefUpdate* descriptors set it). Unguarded
	// no-result writes are the ops a batching runtime may submit
	// through a combining buffer, completing them asynchronously —
	// there is no result the invoker could observe.
	NoResult bool
	// CPUCost is the virtual CPU time one execution takes, beyond the
	// runtime's fixed overheads. Zero means DefaultOpCost.
	CPUCost sim.Time
}

// applyDiscard applies a write whose results nobody reads.
func (op *OpDef) applyDiscard(s State, args []any) {
	if op.ApplyDiscard != nil {
		op.ApplyDiscard(s, args)
		return
	}
	op.Apply(s, args)
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
	// SizeOf reports the state's wire/storage size in bytes, used for
	// replica segments and state-transfer message sizes. If nil, a
	// gob-based estimate is used.
	SizeOf func(s State) int
	// SizeFixed declares that SizeOf is constant over the object's
	// lifetime, letting the runtimes skip per-write segment resizing.
	SizeFixed bool
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

// stateSize reports the storage size of s using the type's SizeOf or
// the generic estimator.
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

// Sized lets values report their own wire size, avoiding the gob
// estimator on hot paths.
type Sized interface{ WireSize() int }

// SizeOfValue estimates the wire size of v in bytes. Known scalar and
// slice shapes are computed directly; other values fall back to gob
// encoding, which is accurate but slower.
func SizeOfValue(v any) int {
	switch x := v.(type) {
	case nil:
		return 1
	case Sized:
		return x.WireSize()
	case bool:
		return 1
	case int, int64, uint64, float64, sim.Time:
		return 8
	case int32, uint32, float32:
		return 4
	case string:
		return 4 + len(x)
	case []byte:
		return 4 + len(x)
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
	return gobSize(v)
}

// gobSize is SizeOfValue's fallback. It is a function of its own
// because the encoder takes the value's address: inside SizeOfValue
// that would move the parameter to the heap on every call, the sized
// shapes included.
func gobSize(v any) int {
	gobSizings.Add(1)
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(&v); err != nil {
		// Unencodable exotic value: charge a conservative default.
		return 64
	}
	return buf.Len()
}

// gobSizings counts how often SizeOfValue fell back to gob encoding.
// The fallback is accurate but ~100× slower than a direct size, so the
// hot-path types all carry WireSize implementations; the counter lets
// tests prove they never miss.
var gobSizings atomic.Int64

// GobSizings reports how many SizeOfValue calls reached the gob
// fallback since process start.
func GobSizings() int64 { return gobSizings.Load() }

// SizeOfArgs sums the wire sizes of an argument list.
func SizeOfArgs(args []any) int {
	n := 4
	for _, a := range args {
		n += SizeOfValue(a)
	}
	return n
}

// Costs are the runtime-system CPU overheads, separate from kernel
// costs. They represent the object-manager bookkeeping around each
// operation.
type Costs struct {
	// ReadLocal is charged for a local read (lock check, dispatch).
	ReadLocal sim.Time
	// WriteApply is charged at every machine that applies a write.
	WriteApply sim.Time
	// GuardCheck is charged per guard evaluation.
	GuardCheck sim.Time
	// Create is charged when instantiating a replica.
	Create sim.Time
	// DefaultOp is the default operation execution cost when an OpDef
	// does not specify one.
	DefaultOp sim.Time
}

// DefaultCosts returns RTS overheads for the 68030-class testbed.
func DefaultCosts() Costs {
	return Costs{
		ReadLocal:  5 * sim.Microsecond,
		WriteApply: 15 * sim.Microsecond,
		GuardCheck: 3 * sim.Microsecond,
		Create:     40 * sim.Microsecond,
		DefaultOp:  5 * sim.Microsecond,
	}
}

// opCost resolves an operation's execution cost.
func (c Costs) opCost(op *OpDef) sim.Time {
	if op.CPUCost > 0 {
		return op.CPUCost
	}
	return c.DefaultOp
}
