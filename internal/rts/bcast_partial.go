package rts

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/sim"
)

// Partial replication — the optimization the paper reports as under
// development ("In the initial implementation, every object is
// replicated on all machines that need it (an optimizing scheme using
// partial replication is under development)").
//
// CreateOn places an object's replicas on a subset of the machines.
// Machines inside the placement behave exactly as with full
// replication: local reads, broadcast writes. Machines outside the
// placement forward their operations over RPC to a replica holder,
// whose object service executes the operation at its replica and
// returns the results (see serveForward). Write-heavy objects (like
// TSP's job queue, which the paper notes would be better off
// unreplicated) can thus be pinned to one machine, trading everyone's
// update-application cost for the forwarders' round trips.

// replicatedOn reports whether node holds a replica of id: it lies in
// the group's span and in the object's replica set, if it has one.
func (r *BroadcastRTS) replicatedOn(node int, id ObjID) bool {
	nodes := r.router.objs[id].nodes
	return r.mgr(node) != nil && (nodes == nil || slices.Contains(nodes, node))
}

// CreateOn creates a shared object replicated only on the given
// machines (nil or empty means the whole span, i.e. plain Create):
// creation is broadcast so every holder instantiates a replica, and
// the call waits until the local one exists. The creating machine must
// be in the placement so creation can complete locally.
func (r *BroadcastRTS) CreateOn(w *Worker, typeName string, nodes []int, args ...any) ObjID {
	mgr := r.mgr(w.Node())
	if mgr == nil || len(nodes) > 0 && !slices.Contains(nodes, w.Node()) {
		panic(fmt.Sprintf("rts: create from node %d outside placement %v of span %v", w.Node(), nodes, r.span))
	}
	t := r.reg.Lookup(typeName) // validate before broadcasting
	var set []int
	if len(nodes) > 0 {
		set = append(set, nodes...)
	}
	id := r.router.alloc(r.k, set)
	w.SyncShared() // creation is ordered after the worker's buffered writes
	w.Flush()
	body := wireCreate{Obj: id, Type: t.Name, Args: args}
	mgr.sequenced(w.P, group.Msg{Kind: "rts-create", Body: body, Size: SizeOfValue(args) + len(typeName) + 16})
	return id
}

// forward executes an operation at a replica holder on behalf of a
// machine that has none — outside the object's replica set, or outside
// this group's span altogether — through the machine's object service.
// The holders are the replica set, or else the span. Dead holders are
// skipped, and a holder that dies mid-operation fails the RPC with
// ErrCrashed; the operation is then retried at the next surviving
// holder. A retried write may
// therefore execute twice if the dead holder applied it before
// crashing and the write had already been broadcast — the
// at-least-once caveat every crash-recovery path of the runtime
// shares (see DESIGN.md).
func (r *BroadcastRTS) forward(w *Worker, id ObjID, opName string, in Args) Args {
	holders := r.router.objs[id].nodes
	if holders == nil {
		holders = r.span
	}
	cl := r.router.svc[w.Node()].cl
	w.Flush()
	r.stats.Forwarded++
	first := true
	for _, holder := range holders {
		if w.M.Net().Down(holder) {
			continue
		}
		if !first {
			r.stats.OpsRetried++
		}
		first = false
		rep, err := cl.Call(w.P, holder, amoeba.Packet{Port: svcPort, Op: opName, Obj: int64(id), Args: in,
			Body: fwdReq{}, Size: opSize(opName, &in)})
		if err == nil {
			return rep.Args
		}
		if !errors.Is(err, amoeba.ErrCrashed) {
			panic(fmt.Sprintf("rts: forwarded op %s on object %d failed: %v", opName, id, err))
		}
	}
	panic(fmt.Sprintf("rts: no live replica holder for object %d (holders %v)", id, holders))
}

// fwdReq marks a forwarded operation's request to the object service,
// which carries the operation in the packet header.
type fwdReq struct{}

// fwdOp is a forwarded operation in service at its holder, in the name
// of the machine's object service (see serveForward), and the CPU it
// has accrued, charged as a worker's would be: before each guard
// re-check and before the reply.
type fwdOp struct {
	mgr     *bcastManager
	s       *objService
	req     *amoeba.Request
	inst    *replica
	op      *OpDef
	pending sim.Time
}

// serveForward serves a forwarded operation at this holder, in
// continuation form, taking the steps a thread running the whole Call
// took: an unguarded read is charged, applied and answered; a guarded
// read, or a write to a single-copy object, first waits on the replica's
// condition (see guard); any other write is sequenced and answered at
// its local application. A replica that moved away answers the retry
// status, and the forwarder's Router.Call waits for the flip. The
// service goes on to its next request at once: the operation starts
// from an event of its own, where the thread started.
func (r *BroadcastRTS) serveForward(s *objService, req *amoeba.Request) {
	f := &fwdOp{mgr: r.mgr(s.m.ID()), s: s, req: req}
	env := s.m.Env()
	env.Schedule(env.Now(), f.start)
	s.srv.Done()
}

// start waits for the replica, which a creation still in flight may
// not have made yet, and runs the operation.
func (f *fwdOp) start() {
	if f.s.c.Killed() {
		return
	}
	mgr, id := f.mgr, ObjID(f.req.Obj)
	until(&mgr.instCond, f.s.c, func() bool { return mgr.inst(id) != nil }, sim.Func(func() {
		r := mgr.rts
		e := r.router.entry(id)
		f.inst = mgr.inst(id)
		f.op = f.inst.op(f.req.Op)
		if f.op.Kind == Read || len(e.nodes) == 1 {
			f.guard()
			return
		}
		if r.router.batch.Enabled() && f.op.NoResult && f.op.Guard == nil && e.nodes == nil && e.adapt == nil {
			// A write the forwarder would have combined, had it a replica:
			// a batch of one.
			r.stats.BatchedOps++
			r.stats.Frames++
		} else {
			r.stats.BcastWrites++
		}
		a := &f.req.Args
		mgr.sequence(f.s.c, group.Msg{Kind: opKind, Obj: f.req.Obj, Op: f.req.Op, Args: *a, Size: opSize(f.req.Op, a)}, f)
	}))
}

// guard is awaitGuard in continuation form, followed by the operation:
// it waits until the guard holds on the replica, accruing each check
// and charging it before the next, and then applies a read, or a write
// to a single-copy object, which nothing else applies.
func (f *fwdOp) guard() {
	r, inst, op, in := f.mgr.rts, f.inst, f.op, f.req.Args
	if inst.moved {
		f.answer(retry)
		return
	}
	if op.Guard != nil {
		f.pending += r.costs.guardCheck
		if !op.Guard(inst.state, in) {
			r.stats.GuardWaits++
			inst.cond.WaitOn(f.s.c, sim.Func(func() { f.charge(f.guard) }))
			return
		}
	}
	if op.Kind == Read {
		r.stats.LocalReads++
		f.pending += r.costs.readLocal + r.costs.defaultOp
		f.answer(op.Apply(f.mgr.m.Env(), inst.state, in))
		return
	}
	f.pending += r.costs.writeApply + r.costs.defaultOp
	res := op.Apply(f.mgr.m.Env(), inst.state, in)
	inst.cond.Broadcast()
	f.answer(res)
}

// charge charges the accrued CPU and then runs k.
func (f *fwdOp) charge(k func()) {
	d := f.pending
	f.pending = 0
	f.mgr.m.ComputeOn(f.s.c, d, sim.Func(k))
}

// Fire answers a sequenced write with its results: an operation is its
// record's continuation (see bcastManager.sequence).
func (f *fwdOp) Fire() { f.answer(f.mgr.res) }

// answer replies to the forwarder with res once the accrued CPU has
// been charged.
func (f *fwdOp) answer(res Args) {
	f.charge(func() { f.s.srv.PutReplyOn(f.s.c, f.req, res, nil, SizeOfArgs(&res), sim.Func(func() {})) })
}

// directWrite applies a write to a single-copy object at its only
// holder, bypassing the broadcast entirely: with exactly one replica
// there is nothing to keep consistent, and the holder's execution
// order is the object's total order. Guarded writes wait on the
// replica's condition like guarded reads do.
func (mgr *bcastManager) directWrite(w *Worker, inst *replica, op *OpDef, in Args) Args {
	r := mgr.rts
	// Nothing moves, locks or invalidates a single-copy object's
	// replica, so the wait ends only with the guard holding.
	awaitGuard(w, inst, op, in, r.costs.guardCheck, &r.stats.GuardWaits)
	w.Accrue(r.costs.writeApply + r.costs.defaultOp)
	res := op.Apply(mgr.m.Env(), inst.state, in)
	inst.cond.Broadcast()
	return res
}
