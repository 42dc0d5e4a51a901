package rts

import (
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
// createOn places an object's replicas on a subset of the machines.
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
func (g *seqGroup) replicatedOn(node int, id ObjID) bool {
	nodes := g.r.objs[id].nodes
	return g.mgr(node) != nil && (nodes == nil || slices.Contains(nodes, node))
}

// createOn creates a shared object replicated only on the given
// machines (nil or empty means the whole span): creation is broadcast
// so every holder instantiates a replica, and the call waits until the
// local one exists. The creating machine is in the span and in the
// placement (CreateAt checks), so creation completes locally.
func (g *seqGroup) createOn(w *Worker, typeName string, nodes []int, args []any) ObjID {
	t := g.r.reg.Lookup(typeName) // validate before broadcasting
	id := g.r.alloc(g.k, t, slices.Clone(nodes), nil)
	w.SyncShared() // creation is ordered after the worker's buffered writes
	w.Flush()
	body := wireCreate{Obj: id, Args: args}
	g.mgr(w.Node()).sequenced(w.P, group.Msg{Kind: "rts-create", Body: body, Size: SizeOfValue(args) + len(typeName) + 16})
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
func (g *seqGroup) forward(w *Worker, id ObjID, opName string, in Args) Args {
	holders := g.r.objs[id].nodes
	if holders == nil {
		holders = g.span
	}
	cl := g.r.nodes[w.Node()].cl
	w.Flush()
	g.stats.Forwarded++
	req := amoeba.Packet{Port: svcPort, Op: opName, Obj: int64(id), Args: in, Body: fwdReq{}, Size: opSize(opName, &in)}
	first := true
	for _, holder := range holders {
		if w.M.Net().Down(holder) {
			continue
		}
		if !first {
			g.stats.OpsRetried++
		}
		first = false
		if rep, err := cl.Call(w.P, holder, req); !failed(err, &req) {
			return rep.Args
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
	req     *amoeba.Request
	inst    *replica
	op      *OpDef
	pending sim.Time
}

// serveForward serves a forwarded operation at this holder, in
// continuation form, taking the steps a thread running the whole call
// took: an unguarded read is charged, applied and answered; a guarded
// read, or a write to a single-copy object, first waits on the replica's
// condition (see guard); any other write is sequenced and answered at
// its local application. A replica that moved away answers the retry
// status, and the forwarder's Router.Call waits for the flip. The
// service goes on to its next request at once: the operation starts
// from an event of its own, where the thread started.
func (g *seqGroup) serveForward(mg *objMgr, req *amoeba.Request) {
	f := &fwdOp{mgr: g.mgr(mg.m.ID()), req: req}
	env := mg.m.Env()
	env.Schedule(env.Now(), f.start)
	mg.srv.Done()
}

// start waits for the replica, which a creation still in flight may
// not have made yet, and runs the operation.
func (f *fwdOp) start() {
	mg := f.mgr.mg
	if mg.c.Killed() {
		return
	}
	id := ObjID(f.req.Obj)
	until(&mg.cond, mg.c, func() bool { return mg.seqCopy(id) != nil }, sim.Func(func() {
		g := f.mgr.sg
		e := g.r.entry(id)
		f.inst = mg.seqCopy(id)
		f.op = g.r.op(id, f.req.Op)
		if f.op.Kind == Read || len(e.nodes) == 1 {
			f.guard()
			return
		}
		if g.r.batch.Enabled() && f.op.NoResult && f.op.Guard == nil && e.nodes == nil && e.adapt == nil {
			// A write the forwarder would have combined, had it a replica:
			// a batch of one.
			g.stats.BatchedOps++
			g.stats.Frames++
		} else {
			g.stats.BcastWrites++
		}
		a := &f.req.Args
		f.mgr.sequence(mg.c, group.Msg{Kind: opKind, Obj: f.req.Obj, Op: f.req.Op, Args: *a, Size: opSize(f.req.Op, a)}, f)
	}))
}

// guard is awaitGuard in continuation form, followed by the operation:
// it waits until the guard holds on the replica, accruing each check
// and charging it before the next, and then applies a read, or a write
// to a single-copy object, which nothing else applies.
func (f *fwdOp) guard() {
	g, inst, op, in := f.mgr.sg, f.inst, f.op, f.req.Args
	c := &g.r.costs
	if inst.moved {
		f.answer(retry)
		return
	}
	if op.Guard != nil {
		f.pending += c.guardCheck
		if !op.Guard(inst.state, in) {
			g.stats.GuardWaits++
			inst.cond.WaitOn(f.mgr.mg.c, sim.Func(func() { f.charge(f.guard) }))
			return
		}
	}
	if op.Kind == Read {
		g.stats.LocalReads++
		f.pending += c.readLocal + c.defaultOp
		f.answer(op.Apply(f.mgr.m.Env(), inst.state, in))
		return
	}
	f.pending += c.apply()
	f.answer(inst.apply(f.mgr.m.Env(), op, in))
}

// charge charges the accrued CPU and then runs k.
func (f *fwdOp) charge(k func()) {
	d := f.pending
	f.pending = 0
	f.mgr.m.ComputeOn(f.mgr.mg.c, d, sim.Func(k))
}

// Fire answers a sequenced write with its results: an operation is its
// record's continuation (see bcastManager.sequence).
func (f *fwdOp) Fire() { f.answer(f.mgr.res) }

// answer replies to the forwarder with res once the accrued CPU has
// been charged.
func (f *fwdOp) answer(res Args) {
	mg := f.mgr.mg
	f.charge(func() { mg.srv.PutReplyOn(mg.c, f.req, res, nil, SizeOfArgs(&res), sim.Func(func() {})) })
}
