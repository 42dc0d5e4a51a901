package rts

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/amoeba"
	"repro/internal/sim"
)

// Server side of the point-to-point runtime: the per-machine RPC
// dispatcher, the one-way control port, and each object's queue at its
// primary, which runs the invalidation and update protocols. The
// dispatcher and the queues are consumers with no process behind them
// (see sim.Queue.Serve): each serves its items one after another on the
// dispatch lane, in the name of its claimant, taking the steps a thread
// looping on its queue would take, in continuation form.

// route is the machine's RPC dispatcher (see amoeba.Server.Serve). It
// hands an operation, fetch or migration request to the queue of the
// object whose primary this machine is, so that one object waiting on
// its secondaries cannot stall the machine's service, and answers the
// rest itself: it bounces a request for an object that has moved or
// re-homed, and takes the quick secondary-side protocol steps.
func (n *p2pNode) route(req *amoeba.Request) {
	id := ObjID(req.Obj)
	kind, from, to := "", req.From, 0
	switch body := req.Body.(type) {
	case nil:
	case p2pFetchReq:
		kind, from = "fetch", body.Node
	case p2pMigrateReq:
		kind, to = body.Kind, body.Target
	case p2pUpdateReq:
		// Phase one at a secondary: lock, apply, ack, stay locked.
		n.applyUpdate(req)
		return
	case p2pInvalReq:
		// Invalidate the local copy and acknowledge.
		n.rts.stats.Invalidations++
		n.dropLocal(id)
		n.srv.PutResultFn(n.svc, req, Args{}, 4, n.srv.Done)
		return
	default:
		panic(fmt.Sprintf("rts: unexpected RPC body %T", req.Body))
	}
	meta := n.rts.meta(id)
	if meta.moved || meta.primary != n.m.ID() {
		// The object migrated or re-homed while the request was in
		// flight: bounce so the client re-resolves — unless a migration
		// finds the cut made already.
		res, size := retry, 8
		if _, migrate := req.Body.(p2pMigrateReq); migrate && meta.moved {
			res, size = Args{}, 4
		}
		n.srv.PutResultFn(n.svc, req, res, size, n.srv.Done)
		return
	}
	t := n.task()
	t.kind, t.from, t.to, t.req = kind, from, to, req
	if kind == "" {
		t.op, t.args, t.kind = meta.op(req.Op), req.Args, "write"
		if t.op.Kind == Read {
			t.kind = "read"
		}
	}
	n.queues[id].q.Put(t)
	n.srv.Done()
}

// task returns a blank record for a remote request's task; reply takes
// it back once the request is answered. (A local task is its invoker's,
// who reads the result out of it.)
func (n *p2pNode) task() *p2pTask {
	if k := len(n.tfree); k > 0 {
		t := n.tfree[k-1]
		n.tfree = n.tfree[:k-1]
		return t
	}
	return &p2pTask{}
}

// applyUpdate performs phase one of the update protocol at a
// secondary.
func (n *p2pNode) applyUpdate(req *amoeba.Request) {
	r := n.rts
	inst, ok := n.insts[ObjID(req.Obj)]
	if !ok || !inst.valid {
		// The copy was discarded while the update was in flight; the
		// drop notice will reach the primary. Acknowledge vacuously.
		n.srv.PutResultFn(n.svc, req, Args{}, 4, n.srv.Done)
		return
	}
	op := inst.typ.Op(req.Op)
	inst.locked = true
	n.m.ComputeFn(n.svc, r.costs.writeApply+r.costs.defaultOp, func() {
		op.Apply(inst.state, req.Args)
		n.srv.PutResultFn(n.svc, req, Args{}, 4, n.srv.Done)
	})
}

// handleCtl services the one-way control port: unlocks (phase two),
// copyset drops, and pushed installs. It runs in interrupt context and
// never blocks.
func (n *p2pNode) handleCtl(p *sim.Proc, from int, pkt amoeba.Packet) {
	switch body := pkt.Body.(type) {
	case p2pUnlock:
		if inst, ok := n.insts[body.Obj]; ok {
			inst.locked = false
			inst.cond.Broadcast()
		}
	case p2pDrop:
		if inst, ok := n.insts[body.Obj]; ok && inst.primary {
			delete(inst.copyset, body.Node)
		}
	case p2pInstall:
		meta := n.rts.meta(body.Obj)
		n.installCopy(body.Obj, meta.typ, body.State)
	}
}

// objQueue is an object's task queue on a machine that is, or has been,
// its primary, and the consumer that serves it (see serve).
type objQueue struct {
	n       *p2pNode
	id      ObjID
	q       *sim.Queue[*p2pTask]
	c       *sim.Proc  // the claimant the queue is served as
	pending []*p2pTask // guarded tasks whose guard was false, in arrival order

	// The task in service (t), the primary copy it runs on, the result
	// and secondaries of a write, what follows a read or a write (then),
	// and drain's place; the continuations are bound once.
	t                                  *p2pTask
	inst                               *p2pInstance
	res                                Args
	secs                               []int
	then                               func()
	di                                 int
	doneFn, guardedFn, readFn, writeFn func()
	committedFn, drainFn, checkedFn    func()
}

// startPrimary gives the object its queue on this machine, unless it
// has been primary here before and still has it.
func (n *p2pNode) startPrimary(id ObjID) {
	if _, ok := n.queues[id]; ok {
		return
	}
	o := &objQueue{n: n, id: id, q: sim.NewQueue[*p2pTask](n.m.Env())}
	o.doneFn, o.guardedFn, o.readFn, o.writeFn = o.q.Done, o.guarded, o.read, o.write
	o.committedFn, o.drainFn, o.checkedFn = o.committed, o.drain, o.checked
	n.queues[id] = o
	o.c = n.m.Claimant(fmt.Sprintf("obj%d", id))
	o.q.Serve(o.c, o.serve)
}

// serve is the primary's per-object protocol. It serializes all writes,
// remote reads, and fetches on the object, and holds guarded tasks until
// a committed write enables them. A task for an object that migrated
// away or re-homed between enqueue and execution bounces back to its
// invoker.
func (o *objQueue) serve(t *p2pTask) {
	n, r := o.n, o.n.rts
	inst := n.insts[o.id]
	if r.meta(o.id).moved || inst == nil || !inst.primary {
		n.finishTaskFn(o.c, t, retry, o.doneFn)
		return
	}
	o.t, o.inst = t, inst
	if t.op != nil && t.op.Guard != nil {
		// An operation whose guard is false waits for a write to enable it.
		n.m.ComputeFn(o.c, r.costs.guardCheck, o.guardedFn)
		return
	}
	o.run()
}

// guarded continues serve once the guard check has been charged.
func (o *objQueue) guarded() {
	if t := o.t; !t.op.Guard(o.inst.state, t.args) {
		o.n.rts.stats.GuardWaits++
		o.pending = append(o.pending, t)
		o.q.Done()
		return
	}
	o.run()
}

// run runs the task in service, whose guard, if any, has held.
func (o *objQueue) run() {
	n, t, inst := o.n, o.t, o.inst
	switch t.kind {
	case "fetch":
		state := inst.typ.Clone(inst.state)
		inst.copyset[t.from] = true
		n.srv.PutReplyFn(o.c, t.req, state, inst.typ.stateSize(state)+16, o.doneFn)
		n.recycle(t)
	case "read":
		o.then = o.doneFn
		n.m.ComputeFn(o.c, n.rts.costs.readLocal+n.rts.costs.defaultOp, o.readFn)
	case "write":
		o.commit(o.drainFn)
	case "moveout":
		o.migrateOut()
	case "rehome":
		o.migratePrimary()
	default:
		panic("rts: unknown task kind " + t.kind)
	}
}

// read continues a read once it has been charged: apply, answer, and go
// on with o.then.
func (o *objQueue) read() {
	t := o.t
	o.n.finishTaskFn(o.c, t, t.op.Apply(o.inst.state, t.args), o.then)
}

// migrateOut hands the object to the broadcast runtime (see adapt.go).
// The primary's queue serializes it behind every task enqueued before
// it — the queue position is the point-to-point side of the cut; the
// sequenced migrate record it emits is the broadcast side. The snapshot
// is published through moveSnap before the cut, with no blocking point
// in between, so a machine crash can never strand the object without a
// recoverable snapshot.
func (o *objQueue) migrateOut() {
	n, r, t := o.n, o.n.rts, o.t
	if r.mover == nil || r.moveSnap == nil {
		panic("rts: moveout without a broadcast runtime attached")
	}
	meta := r.meta(o.id)
	clone := meta.typ.Clone(o.inst.state)
	r.moveSnap(n.m.ID(), o.id, clone)
	meta.moved = true
	// Bounce parked guarded tasks; they re-register as broadcast ops.
	o.bounce(0, func() {
		// Drop every copy; suspended readers wake and bounce on meta.moved.
		for _, node := range r.nodes {
			if !node.m.Crashed() {
				node.dropLocal(o.id)
			}
		}
		// Sequence the migrate record; its globally-first delivery flips
		// ownership to the broadcast runtime.
		r.mover(o.c, n.m.ID(), o.id, clone, func() { n.finishTaskFn(o.c, t, Args{}, o.doneFn) })
	})
}

// migratePrimary moves the primary copy onto a new machine — the
// controller chasing the hottest writer. The primary's task queue
// serializes it against all earlier operations; like rehome, the
// promotion mutates the global object table directly, charging the
// state-transfer work to this machine's CPU.
func (o *objQueue) migratePrimary() {
	n, r, t := o.n, o.n.rts, o.t
	meta := r.meta(o.id)
	target := t.to
	if target == n.m.ID() || r.nodeDown(target) {
		n.finishTaskFn(o.c, t, Args{}, o.doneFn) // nothing to move, or the target died
		return
	}
	tn := r.nodes[target]
	st := meta.typ.Clone(o.inst.state)
	n.m.ComputeFn(o.c, r.costs.writeApply, func() {
		tn.installCopy(o.id, meta.typ, st)
		ti := tn.insts[o.id]
		ti.primary = true
		ti.copyset = make(map[int]bool)
		// Adopt surviving secondaries (none under SingleCopy placement,
		// but the protocol does not depend on that).
		for _, on := range r.nodes {
			if on.m.Crashed() || on.m.ID() == target || on.m.ID() == n.m.ID() {
				continue
			}
			if sec, ok := on.insts[o.id]; ok && sec.valid {
				ti.copyset[on.m.ID()] = true
				sec.primary = false
			}
		}
		tn.startPrimary(o.id)
		meta.primary = target
		n.dropLocal(o.id)
		// Bounce parked guarded tasks; they re-issue at the new primary.
		o.bounce(0, func() {
			n.m.Env().Tracef("rts: object %d primary migrated %d -> %d", o.id, n.m.ID(), target)
			n.finishTaskFn(o.c, t, Args{}, o.doneFn)
		})
	})
}

// bounce finishes the parked guarded tasks from the i-th on with the
// retry status, one after another, and then runs k.
func (o *objQueue) bounce(i int, k func()) {
	if i == len(o.pending) {
		o.pending = o.pending[:0]
		k()
		return
	}
	o.n.finishTaskFn(o.c, o.pending[i], retry, func() { o.bounce(i+1, k) })
}

// finishTaskFn completes a task toward its (local or remote) invoker and
// runs then: once a remote invoker's reply has been sent, charged to p,
// or at once when the invoker is a thread of this machine.
func (n *p2pNode) finishTaskFn(p *sim.Proc, t *p2pTask, res Args, then func()) {
	if t.req != nil {
		n.srv.PutResultFn(p, t.req, res, SizeOfArgs(&res), then)
		n.recycle(t)
		return
	}
	t.res = res
	t.done = true
	t.cond.Broadcast()
	then()
}

// recycle takes back a finished remote task's record (see task).
func (n *p2pNode) recycle(t *p2pTask) {
	*t = p2pTask{}
	n.tfree = append(n.tfree, t)
}

// commit runs the object's write protocol at the primary for the task
// in service, and then runs k.
func (o *objQueue) commit(k func()) {
	r, inst := o.n.rts, o.inst
	inst.locked = true
	// Crashed secondaries leave the copyset: their copies died with
	// their machines and must not be waited on.
	for node := range inst.copyset {
		if r.nodeDown(node) {
			delete(inst.copyset, node)
		}
	}
	o.secs, o.then = slices.Sorted(maps.Keys(inst.copyset)), k
	if len(o.secs) == 0 {
		o.write()
		return
	}
	switch t := o.t; r.meta(o.id).protocol {
	case Invalidation:
		// Lock, invalidate every secondary, collect acks.
		o.fanout("inval", amoeba.Packet{Op: "inval", Obj: int64(o.id), Body: p2pInvalReq{}, Size: 8}, func() {
			inst.copyset = make(map[int]bool)
			o.write()
		})
	case Update:
		// Phase one: ship the operation, collect acks; copies stay
		// locked.
		r.stats.Updates += int64(len(o.secs))
		o.fanout("update", amoeba.Packet{Op: t.op.Name, Obj: int64(o.id), Args: t.args, Body: p2pUpdateReq{},
			Size: opSize(t.op.Name, &t.args)}, o.writeFn)
	}
}

// write applies the write at the primary once its secondaries have
// acknowledged.
func (o *objQueue) write() {
	o.n.m.ComputeFn(o.c, o.n.rts.costs.writeApply+o.n.rts.costs.defaultOp, o.committedFn)
}

// committed applies the charged write, unlocks every copy (phase two of
// the update protocol) and answers the invoker.
func (o *objQueue) committed() {
	t := o.t
	o.res = t.op.Apply(o.inst.state, t.args)
	if o.n.rts.meta(o.id).protocol == Update {
		o.unlock(0)
		return
	}
	o.unlocked()
}

// unlock sends phase two to the secondaries from the i-th on, one after
// another.
func (o *objQueue) unlock(i int) {
	if i == len(o.secs) {
		o.unlocked()
		return
	}
	o.n.m.SendFn(o.c, o.secs[i], amoeba.Packet{Port: p2pCtlPort, Kind: "rts-unlock", Body: p2pUnlock{Obj: o.id}, Size: 12},
		func() { o.unlock(i + 1) })
}

func (o *objQueue) unlocked() {
	o.inst.locked = false
	o.inst.cond.Broadcast()
	o.n.finishTaskFn(o.c, o.t, o.res, o.then)
}

// drain retries guarded tasks after a committed write, from the first
// on, each guard check charged, until a pass finds none that can run;
// then the task in service is done.
func (o *objQueue) drain() {
	o.di = 0
	o.check()
}

// check charges the guard check of the di-th guarded task, or ends the
// task in service when none is left.
func (o *objQueue) check() {
	if o.di == len(o.pending) {
		o.q.Done()
		return
	}
	o.n.m.ComputeFn(o.c, o.n.rts.costs.guardCheck, o.checkedFn)
}

// checked runs a guarded task whose guard holds now, and then drains
// again from the first; or goes on with the next.
func (o *objQueue) checked() {
	t := o.pending[o.di]
	inst := o.n.insts[o.id]
	if !t.op.Guard(inst.state, t.args) {
		o.di++
		o.check()
		return
	}
	o.pending = append(o.pending[:o.di], o.pending[o.di+1:]...)
	o.t, o.inst = t, inst
	if t.kind == "write" {
		o.commit(o.drainFn)
		return
	}
	o.then = o.drainFn
	o.n.m.ComputeFn(o.c, o.n.rts.costs.readLocal+o.n.rts.costs.defaultOp, o.readFn)
}

// fanout issues the same request to the secondaries in parallel, each
// from a thread of its own, since an RPC blocks its caller, and runs k
// once all have acknowledged. A target that crashes mid-protocol
// acknowledges vacuously — its copy died with it, so there is nothing
// left to keep consistent — and the next commit prunes it from the
// copyset.
func (o *objQueue) fanout(step string, req amoeba.Packet, k func()) {
	n := o.n
	req.Port = p2pRPCPort
	remaining := len(o.secs)
	cond := sim.NewCond(n.m.Env())
	for _, dst := range o.secs {
		n.m.SpawnThread("fan-"+step, func(pp *sim.Proc) {
			if _, err := n.client.Call(pp, dst, req); err != nil {
				if !errors.Is(err, amoeba.ErrCrashed) {
					panic(fmt.Sprintf("rts: %s to node %d failed: %v", step, dst, err))
				}
			}
			remaining--
			cond.Broadcast()
		})
	}
	until(cond, o.c, func() bool { return remaining == 0 }, k)
}
