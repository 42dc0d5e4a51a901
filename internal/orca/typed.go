// API v2: the typed shared-object surface.
//
// What travels between machines (internal/rts) is an operation name and
// one rts.Args record each way: the arguments out, the results back,
// scalars inline and any other value by reference, carved once from the
// run's tables. Orca
// itself never exposed that to the programmer — the compiler checked
// every operation against the object's abstract type. This file plays
// the compiler's role for the embedded API: a TypeBuilder[S] declares
// an object type over its concrete state S, typed operation
// descriptors (ReadOp, WriteOp, UpdateOp, AwaitOp and their arity
// variants) carry the argument and result types in their type
// parameters, and Handle[S] ties an object instance to its state
// type. Invoking a descriptor on a handle of the wrong type, with the
// wrong argument types, or expecting the wrong results is a compile
// error, exactly as it would be in Orca.
//
// A descriptor fills the record from its typed arguments, hands it by
// value to the runtime (rts.Router.Call), and reads its typed results
// out of the record that comes back; the operation it registered reads
// its arguments out of the same record on whichever machine applies it,
// and carves its results from the run's tables it is handed.
// Descriptors are the only way a program creates (TypeBuilder.New),
// invokes (Call) and fences (Fenced) a shared object: there is no
// untyped escape hatch, so a misspelt operation or a wrong argument
// type cannot reach the runtime.
package orca

import (
	"fmt"

	"repro/internal/rts"
	"repro/internal/sim"
)

// Handle is a typed handle to a shared data-object whose replicated
// state is S. A Handle is passed to forked processes by closure,
// mirroring Orca's shared call-by-reference parameters; the object's
// replicas live inside the runtime system. The zero Handle is invalid
// until assigned from New/NewWith.
type Handle[S rts.State] struct {
	id rts.ObjID
}

// ID exposes the runtime object id (for harness statistics).
func (h Handle[S]) ID() rts.ObjID { return h.id }

// TypeBuilder declares an object type whose state is S. Build one with
// NewType, chain the state-management hooks fluently, attach typed
// operations with the Def* functions, and register the result with
// Register. The builder owns an ordinary *rts.ObjectType underneath,
// whose operations are exactly the descriptors defined on it.
type TypeBuilder[S rts.State] struct {
	t *rts.ObjectType
}

// NewType starts a type definition. ctor builds the initial state from
// the (positional, untyped) constructor arguments — constructor calls
// originate locally in New, so the typed wrapper layer gives them
// typed signatures.
func NewType[S rts.State](name string, ctor func(args []any) S) *TypeBuilder[S] {
	return &TypeBuilder[S]{t: &rts.ObjectType{
		Name: name,
		New:  func(args []any) rts.State { return ctor(args) },
		Ops:  make(map[string]*rts.OpDef),
	}}
}

// CloneWith sets the deep-copy hook the point-to-point runtime uses to
// transfer replicas; fn must return a state disjoint from its input.
func (b *TypeBuilder[S]) CloneWith(fn func(S) S) *TypeBuilder[S] {
	b.t.Clone = func(s rts.State) rts.State { return fn(s.(S)) }
	return b
}

// SizedBy sets the state's wire size in bytes, which state-transfer
// messages (a fetched copy, a migration snapshot) weigh. A state type
// with a WireSize method passes it: SizedBy((*T).WireSize).
func (b *TypeBuilder[S]) SizedBy(fn func(S) int) *TypeBuilder[S] {
	b.t.SizeOf = func(s rts.State) int { return fn(s.(S)) }
	return b
}

// Type returns the underlying rts type definition.
func (b *TypeBuilder[S]) Type() *rts.ObjectType { return b.t }

// Register adds the built type to a registry.
func (b *TypeBuilder[S]) Register(reg *rts.Registry) { reg.Register(b.t) }

// New creates a shared object of this type, returning a typed handle.
// It follows Config.RTS.
func (b *TypeBuilder[S]) New(p *Proc, args ...any) Handle[S] {
	return b.NewWith(p, nil, args...)
}

// NewWith creates a shared object of this type under the given
// creation options (see Policy), returning a typed handle. With no
// options it is exactly New. A placement needs its domain built — a
// PrimaryCopy or Adaptive object needs the point-to-point domain (a
// point-to-point RTS, or Config.Mixed), a Replicated one needs a
// sequencer group (RTS: Broadcast, or Config.Mixed) — and creation
// panics with the router's error otherwise, naming the missing domain.
// The creation broadcast carries args, so it weighs what they weigh.
func (b *TypeBuilder[S]) NewWith(p *Proc, opts []Option, args ...any) Handle[S] {
	return Handle[S]{id: p.rt.create(p.w, b.t.Name, opts, args)}
}

// addOp registers apply under name. All descriptors funnel through
// here, so an object type's operations are exactly its descriptors.
func addOp[S rts.State](b *TypeBuilder[S], name string, kind rts.OpKind, apply func(e *sim.Env, s rts.State, in rts.Args) rts.Args) *rts.OpDef {
	if _, dup := b.t.Ops[name]; dup {
		panic(fmt.Sprintf("orca: type %s redefines operation %q", b.t.Name, name))
	}
	def := &rts.OpDef{Name: name, Kind: kind, Apply: apply}
	b.t.Ops[name] = def
	return def
}

// fenced is the fence entry of a write descriptor's operation on h.
func fenced[S rts.State](h Handle[S], def *rts.OpDef, in rts.Args) FencedOp {
	return FencedOp{rts.FencedOp{ID: h.id, Op: def.Name, Args: in}}
}

// rec1 and rec2 are the record of one and of two values, carved from
// e's tables where they travel by reference: a descriptor's arguments
// on the way in, an operation's results on the way out.
func rec1[T any](e *sim.Env, v T) (a rts.Args) {
	rts.Put(&a, e, v)
	return a
}

func rec2[T1, T2 any](e *sim.Env, v1 T1, v2 T2) (a rts.Args) {
	rts.Put(&a, e, v1)
	rts.Put(&a, e, v2)
	return a
}

// get1 and get2 read them back. Decoding is strict: a value of the
// wrong type panics, and a nil is only legal where T itself can hold
// nil (results legitimately carry nil in "not found" slots, e.g. a
// drained queue's (nil, false)).
func get1[T any](a rts.Args) T { return rts.Get[T](&a, 0) }

func get2[T1, T2 any](a rts.Args) (T1, T2) { return rts.Get[T1](&a, 0), rts.Get[T2](&a, 1) }

// ---------------------------------------------------------------------
// Read operations. Reads never change the state; the runtime executes
// them on the local replica when one exists.

// ReadOp0 is a read taking no arguments and returning R. Read
// descriptors keep their raw typed apply so unguarded local reads can
// skip the record entirely (see Proc.readState).
type ReadOp0[S rts.State, R any] struct {
	def   *rts.OpDef
	apply func(S) R
}

// DefRead0 attaches a no-argument read to a type.
func DefRead0[S rts.State, R any](b *TypeBuilder[S], name string, apply func(S) R) ReadOp0[S, R] {
	return ReadOp0[S, R]{def: addOp(b, name, rts.Read, func(e *sim.Env, s rts.State, _ rts.Args) rts.Args {
		return rec1(e, apply(s.(S)))
	}), apply: apply}
}

// Guard makes the read blocking: it suspends until g is true.
func (op ReadOp0[S, R]) Guard(g func(S) bool) ReadOp0[S, R] {
	op.def.Guard = func(s rts.State, _ rts.Args) bool { return g(s.(S)) }
	return op
}

// Call performs the operation on h.
func (op ReadOp0[S, R]) Call(p *Proc, h Handle[S]) R {
	if s, ok := p.readState(h.id, op.def); ok {
		return op.apply(s.(S))
	}
	return get1[R](p.call(h.id, op.def, rts.Args{}))
}

// ReadOp is a read taking one argument A and returning R — the
// canonical typed operation shape.
type ReadOp[S rts.State, A, R any] struct {
	def   *rts.OpDef
	apply func(S, A) R
}

// DefRead attaches a one-argument read to a type.
func DefRead[S rts.State, A, R any](b *TypeBuilder[S], name string, apply func(S, A) R) ReadOp[S, A, R] {
	return ReadOp[S, A, R]{def: addOp(b, name, rts.Read, func(e *sim.Env, s rts.State, in rts.Args) rts.Args {
		return rec1(e, apply(s.(S), get1[A](in)))
	}), apply: apply}
}

// Guard makes the read blocking; the guard sees the argument.
func (op ReadOp[S, A, R]) Guard(g func(S, A) bool) ReadOp[S, A, R] {
	op.def.Guard = func(s rts.State, in rts.Args) bool { return g(s.(S), get1[A](in)) }
	return op
}

// Call performs the operation on h.
func (op ReadOp[S, A, R]) Call(p *Proc, h Handle[S], arg A) R {
	if s, ok := p.readState(h.id, op.def); ok {
		return op.apply(s.(S), arg)
	}
	return get1[R](p.call(h.id, op.def, rec1(p.rt.env, arg)))
}

// ReadOp1x2 is a read taking one argument and returning two results
// (the lookup-style (value, ok) shape).
type ReadOp1x2[S rts.State, A, R1, R2 any] struct {
	def   *rts.OpDef
	apply func(S, A) (R1, R2)
}

// DefRead1x2 attaches a one-argument, two-result read to a type.
func DefRead1x2[S rts.State, A, R1, R2 any](b *TypeBuilder[S], name string, apply func(S, A) (R1, R2)) ReadOp1x2[S, A, R1, R2] {
	return ReadOp1x2[S, A, R1, R2]{def: addOp(b, name, rts.Read, func(e *sim.Env, s rts.State, in rts.Args) rts.Args {
		r1, r2 := apply(s.(S), get1[A](in))
		return rec2(e, r1, r2)
	}), apply: apply}
}

// Call performs the operation on h.
func (op ReadOp1x2[S, A, R1, R2]) Call(p *Proc, h Handle[S], arg A) (R1, R2) {
	if s, ok := p.readState(h.id, op.def); ok {
		return op.apply(s.(S), arg)
	}
	return get2[R1, R2](p.call(h.id, op.def, rec1(p.rt.env, arg)))
}

// ReadOp2x2 is a read taking two arguments and returning two results.
type ReadOp2x2[S rts.State, A1, A2, R1, R2 any] struct {
	def   *rts.OpDef
	apply func(S, A1, A2) (R1, R2)
}

// DefRead2x2 attaches a two-argument, two-result read to a type.
func DefRead2x2[S rts.State, A1, A2, R1, R2 any](b *TypeBuilder[S], name string, apply func(S, A1, A2) (R1, R2)) ReadOp2x2[S, A1, A2, R1, R2] {
	return ReadOp2x2[S, A1, A2, R1, R2]{def: addOp(b, name, rts.Read, func(e *sim.Env, s rts.State, in rts.Args) rts.Args {
		a1, a2 := get2[A1, A2](in)
		r1, r2 := apply(s.(S), a1, a2)
		return rec2(e, r1, r2)
	}), apply: apply}
}

// Guard makes the read blocking; the guard sees both arguments.
func (op ReadOp2x2[S, A1, A2, R1, R2]) Guard(g func(S, A1, A2) bool) ReadOp2x2[S, A1, A2, R1, R2] {
	op.def.Guard = func(s rts.State, in rts.Args) bool {
		a1, a2 := get2[A1, A2](in)
		return g(s.(S), a1, a2)
	}
	return op
}

// Call performs the operation on h.
func (op ReadOp2x2[S, A1, A2, R1, R2]) Call(p *Proc, h Handle[S], a1 A1, a2 A2) (R1, R2) {
	if s, ok := p.readState(h.id, op.def); ok {
		return op.apply(s.(S), a1, a2)
	}
	return get2[R1, R2](p.call(h.id, op.def, rec2(p.rt.env, a1, a2)))
}

// AwaitOp is a guarded read with no arguments and no results: pure
// condition synchronization (a barrier wait, a flag await). The guard
// is given at definition time because it is the whole operation.
type AwaitOp[S rts.State] struct{ def *rts.OpDef }

// DefAwait attaches a blocking no-op read whose only effect is to
// suspend the caller until guard holds.
func DefAwait[S rts.State](b *TypeBuilder[S], name string, guard func(S) bool) AwaitOp[S] {
	op := AwaitOp[S]{def: addOp(b, name, rts.Read, func(*sim.Env, rts.State, rts.Args) rts.Args { return rts.Args{} })}
	op.def.Guard = func(s rts.State, _ rts.Args) bool { return guard(s.(S)) }
	return op
}

// Call blocks until the guard holds.
func (op AwaitOp[S]) Call(p *Proc, h Handle[S]) {
	p.call(h.id, op.def, rts.Args{})
}

// ---------------------------------------------------------------------
// Write operations. Writes may change the state; the runtime
// propagates them to every replica (broadcast RTS) or applies them at
// the primary (point-to-point RTS). UpdateOp is the no-result variant.

// WriteOp0 is a write taking no arguments and returning R.
type WriteOp0[S rts.State, R any] struct{ def *rts.OpDef }

// DefWrite0 attaches a no-argument write to a type.
func DefWrite0[S rts.State, R any](b *TypeBuilder[S], name string, apply func(S) R) WriteOp0[S, R] {
	return WriteOp0[S, R]{def: addOp(b, name, rts.Write, func(e *sim.Env, s rts.State, _ rts.Args) rts.Args {
		return rec1(e, apply(s.(S)))
	})}
}

// Guard makes the write blocking.
func (op WriteOp0[S, R]) Guard(g func(S) bool) WriteOp0[S, R] {
	op.def.Guard = func(s rts.State, _ rts.Args) bool { return g(s.(S)) }
	return op
}

// Call performs the operation on h.
func (op WriteOp0[S, R]) Call(p *Proc, h Handle[S]) R {
	return get1[R](p.call(h.id, op.def, rts.Args{}))
}

// Fenced names the operation on h as one write of Proc.InvokeFenced;
// its result is discarded.
func (op WriteOp0[S, R]) Fenced(h Handle[S]) FencedOp { return fenced(h, op.def, rts.Args{}) }

// WriteOp is a write taking one argument A and returning R — the
// canonical typed operation shape.
type WriteOp[S rts.State, A, R any] struct{ def *rts.OpDef }

// DefWrite attaches a one-argument write to a type.
func DefWrite[S rts.State, A, R any](b *TypeBuilder[S], name string, apply func(S, A) R) WriteOp[S, A, R] {
	return WriteOp[S, A, R]{def: addOp(b, name, rts.Write, func(e *sim.Env, s rts.State, in rts.Args) rts.Args {
		return rec1(e, apply(s.(S), get1[A](in)))
	})}
}

// Guard makes the write blocking; the guard sees the argument.
func (op WriteOp[S, A, R]) Guard(g func(S, A) bool) WriteOp[S, A, R] {
	op.def.Guard = func(s rts.State, in rts.Args) bool { return g(s.(S), get1[A](in)) }
	return op
}

// Call performs the operation on h.
func (op WriteOp[S, A, R]) Call(p *Proc, h Handle[S], arg A) R {
	return get1[R](p.call(h.id, op.def, rec1(p.rt.env, arg)))
}

// Fenced names the operation on h as one write of Proc.InvokeFenced;
// its result is discarded.
func (op WriteOp[S, A, R]) Fenced(h Handle[S], arg A) FencedOp {
	return fenced(h, op.def, rec1(nil, arg))
}

// WriteOp0x2 is a write taking no arguments and returning two results
// (the guarded dequeue shape: (item, ok)).
type WriteOp0x2[S rts.State, R1, R2 any] struct{ def *rts.OpDef }

// DefWrite0x2 attaches a no-argument, two-result write to a type.
func DefWrite0x2[S rts.State, R1, R2 any](b *TypeBuilder[S], name string, apply func(S) (R1, R2)) WriteOp0x2[S, R1, R2] {
	return WriteOp0x2[S, R1, R2]{def: addOp(b, name, rts.Write, func(e *sim.Env, s rts.State, _ rts.Args) rts.Args {
		r1, r2 := apply(s.(S))
		return rec2(e, r1, r2)
	})}
}

// Guard makes the write blocking.
func (op WriteOp0x2[S, R1, R2]) Guard(g func(S) bool) WriteOp0x2[S, R1, R2] {
	op.def.Guard = func(s rts.State, _ rts.Args) bool { return g(s.(S)) }
	return op
}

// Call performs the operation on h.
func (op WriteOp0x2[S, R1, R2]) Call(p *Proc, h Handle[S]) (R1, R2) {
	return get2[R1, R2](p.call(h.id, op.def, rts.Args{}))
}

// WriteOp1x2 is a write taking one argument and returning two results
// (the crash-aware dequeue shape: take(worker) -> (job, ok)).
type WriteOp1x2[S rts.State, A, R1, R2 any] struct{ def *rts.OpDef }

// DefWrite1x2 attaches a one-argument, two-result write to a type.
func DefWrite1x2[S rts.State, A, R1, R2 any](b *TypeBuilder[S], name string, apply func(S, A) (R1, R2)) WriteOp1x2[S, A, R1, R2] {
	return WriteOp1x2[S, A, R1, R2]{def: addOp(b, name, rts.Write, func(e *sim.Env, s rts.State, in rts.Args) rts.Args {
		r1, r2 := apply(s.(S), get1[A](in))
		return rec2(e, r1, r2)
	})}
}

// Guard makes the write blocking; the guard sees the argument.
func (op WriteOp1x2[S, A, R1, R2]) Guard(g func(S, A) bool) WriteOp1x2[S, A, R1, R2] {
	op.def.Guard = func(s rts.State, in rts.Args) bool { return g(s.(S), get1[A](in)) }
	return op
}

// Call performs the operation on h.
func (op WriteOp1x2[S, A, R1, R2]) Call(p *Proc, h Handle[S], arg A) (R1, R2) {
	return get2[R1, R2](p.call(h.id, op.def, rec1(p.rt.env, arg)))
}

// WriteOp2x2 is a write taking two arguments and returning two
// results (the claim-style shape of termination protocols).
type WriteOp2x2[S rts.State, A1, A2, R1, R2 any] struct{ def *rts.OpDef }

// DefWrite2x2 attaches a two-argument, two-result write to a type.
func DefWrite2x2[S rts.State, A1, A2, R1, R2 any](b *TypeBuilder[S], name string, apply func(S, A1, A2) (R1, R2)) WriteOp2x2[S, A1, A2, R1, R2] {
	return WriteOp2x2[S, A1, A2, R1, R2]{def: addOp(b, name, rts.Write, func(e *sim.Env, s rts.State, in rts.Args) rts.Args {
		a1, a2 := get2[A1, A2](in)
		r1, r2 := apply(s.(S), a1, a2)
		return rec2(e, r1, r2)
	})}
}

// Guard makes the write blocking; the guard sees both arguments.
func (op WriteOp2x2[S, A1, A2, R1, R2]) Guard(g func(S, A1, A2) bool) WriteOp2x2[S, A1, A2, R1, R2] {
	op.def.Guard = func(s rts.State, in rts.Args) bool {
		a1, a2 := get2[A1, A2](in)
		return g(s.(S), a1, a2)
	}
	return op
}

// Call performs the operation on h.
func (op WriteOp2x2[S, A1, A2, R1, R2]) Call(p *Proc, h Handle[S], a1 A1, a2 A2) (R1, R2) {
	return get2[R1, R2](p.call(h.id, op.def, rec2(p.rt.env, a1, a2)))
}

// UpdateOp0 is a write with no arguments and no results (close,
// finish, reset — pure state transitions).
type UpdateOp0[S rts.State] struct{ def *rts.OpDef }

// DefUpdate0 attaches a no-argument, no-result write to a type.
func DefUpdate0[S rts.State](b *TypeBuilder[S], name string, apply func(S)) UpdateOp0[S] {
	op := UpdateOp0[S]{def: addOp(b, name, rts.Write, func(e *sim.Env, s rts.State, _ rts.Args) rts.Args {
		apply(s.(S))
		return rts.Args{}
	})}
	op.def.NoResult = true
	return op
}

// Call performs the operation on h.
func (op UpdateOp0[S]) Call(p *Proc, h Handle[S]) {
	p.call(h.id, op.def, rts.Args{})
}

// UpdateOp is a write taking one argument and returning nothing.
type UpdateOp[S rts.State, A any] struct{ def *rts.OpDef }

// DefUpdate attaches a one-argument, no-result write to a type.
func DefUpdate[S rts.State, A any](b *TypeBuilder[S], name string, apply func(S, A)) UpdateOp[S, A] {
	op := UpdateOp[S, A]{def: addOp(b, name, rts.Write, func(e *sim.Env, s rts.State, in rts.Args) rts.Args {
		apply(s.(S), get1[A](in))
		return rts.Args{}
	})}
	op.def.NoResult = true
	return op
}

// Call performs the operation on h.
func (op UpdateOp[S, A]) Call(p *Proc, h Handle[S], arg A) {
	p.call(h.id, op.def, rec1(p.rt.env, arg))
}

// Fenced names the operation on h as one write of Proc.InvokeFenced.
func (op UpdateOp[S, A]) Fenced(h Handle[S], arg A) FencedOp {
	return fenced(h, op.def, rec1(nil, arg))
}

// UpdateOp2 is a write taking two arguments and returning nothing.
type UpdateOp2[S rts.State, A1, A2 any] struct{ def *rts.OpDef }

// DefUpdate2 attaches a two-argument, no-result write to a type.
func DefUpdate2[S rts.State, A1, A2 any](b *TypeBuilder[S], name string, apply func(S, A1, A2)) UpdateOp2[S, A1, A2] {
	op := UpdateOp2[S, A1, A2]{def: addOp(b, name, rts.Write, func(e *sim.Env, s rts.State, in rts.Args) rts.Args {
		a1, a2 := get2[A1, A2](in)
		apply(s.(S), a1, a2)
		return rts.Args{}
	})}
	op.def.NoResult = true
	return op
}

// Call performs the operation on h.
func (op UpdateOp2[S, A1, A2]) Call(p *Proc, h Handle[S], a1 A1, a2 A2) {
	p.call(h.id, op.def, rec2(p.rt.env, a1, a2))
}
