package rts

import (
	"errors"
	"fmt"
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
		n.srv.PutReplyOn(n.c, req, Args{}, nil, 4, n.servedFn)
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
		n.srv.PutReplyOn(n.c, req, res, nil, size, n.servedFn)
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

// task returns a blank record for a task: a remote request's, which
// finishTaskOn takes back once the request is answered, or a local
// invoker's, which runLocal takes back once it has read the result.
func (n *p2pNode) task() *p2pTask {
	if k := len(n.tfree); k > 0 {
		t := n.tfree[k-1]
		n.tfree = n.tfree[:k-1]
		return t
	}
	return &p2pTask{}
}

// applyUpdate performs phase one of the update protocol at a
// secondary. The dispatcher serves one request at a time, so the one in
// service waits for its charge in n.upd.
func (n *p2pNode) applyUpdate(req *amoeba.Request) {
	inst, ok := n.insts[ObjID(req.Obj)]
	if !ok || !inst.valid {
		// The copy was discarded while the update was in flight; the
		// drop notice will reach the primary. Acknowledge vacuously.
		n.srv.PutReplyOn(n.c, req, Args{}, nil, 4, n.servedFn)
		return
	}
	inst.locked = true
	n.upd, n.updInst = req, inst
	n.m.ComputeOn(n.c, n.rts.costs.writeApply+n.rts.costs.defaultOp, n.updatedFn)
}

// updated applies the charged update and acknowledges it.
func (n *p2pNode) updated() {
	req, inst := n.upd, n.updInst
	n.upd, n.updInst = nil, nil
	inst.op(req.Op).Apply(n.m.Env(), inst.state, req.Args)
	n.srv.PutReplyOn(n.c, req, Args{}, nil, 4, n.servedFn)
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
// its primary, and the consumer that serves it (see Consume). Its record
// is carved from the run's (see Router.queueRecs).
type objQueue struct {
	n     *p2pNode
	id    ObjID
	q     sim.Queue[*p2pTask]
	c     *sim.Proc       // the claimant the queue is served as, claim's
	claim amoeba.Claimant // c's record
	pass  retrier         // guarded tasks park on the primary copy (see guarded)

	// The task in service (t), the primary copy it runs on, the result
	// and secondaries of a write, what follows a read or a write (after),
	// and the fan-out in progress: its request, the secondaries it has
	// yet to start (from fi) and to hear from, and what follows it. next
	// is the step the queue runs when it fires (see then); the fan-out's
	// transactions, which are outstanding together, have continuations
	// of their own, bound once, and the unlock packet is made at the
	// first unlock.
	t              *p2pTask
	inst           *replica
	res            Args
	secs           []int
	after, fanned  func(*objQueue)
	req, unlockPkt amoeba.Packet
	fi, ui, acks   int
	waiting        bool
	next           func(*objQueue)
	startFn        func()
	countedFn      func()
	ackFn          sim.Func
}

// startPrimary gives the object its queue on this machine, unless it
// has been primary here before and still has it.
func (n *p2pNode) startPrimary(id ObjID) {
	q := slot(&n.queues, id)
	if *q != nil {
		return
	}
	o := n.rts.router.queueRecs.new()
	o.n, o.id = n, id
	o.startFn, o.countedFn, o.ackFn = o.start, o.counted, o.ack
	*q = o
	o.c = o.claim.Init(n.m, "obj", int(id))
	o.pass.init(n.m, o.c, n.rts.costs.guardCheck, o)
	o.q.Serve(o.c, o)
}

// then returns the queue's continuation, set to run step k: the one
// continuation the queue's service has outstanding. It is the queue
// itself, and a step is a method expression, as bcastManager's are.
func (o *objQueue) then(k func(*objQueue)) sim.Firer {
	o.next = k
	return o
}

// Fire runs the step the continuation was last handed out for.
func (o *objQueue) Fire() { o.next(o) }

// thenCheck is the retrier's step (see retryHost).
func (o *objQueue) thenCheck() sim.Firer {
	return o.then(func(o *objQueue) { o.pass.checked() })
}

// done ends the task in service.
func (o *objQueue) done() { o.q.Done() }

// Consume is the primary's per-object protocol, the queue being its own
// consumer. It serializes all writes, remote reads, and fetches on the
// object, and holds guarded tasks until a committed write enables them.
// A task for an object that migrated away or re-homed between enqueue
// and execution bounces back to its invoker.
func (o *objQueue) Consume(t *p2pTask) {
	n, r := o.n, o.n.rts
	inst := n.insts[o.id]
	if r.meta(o.id).moved || inst == nil || !inst.primary {
		n.finishTaskOn(o.c, t, retry, o.then((*objQueue).done))
		return
	}
	o.t, o.inst = t, inst
	if t.op != nil && t.op.Guard != nil {
		// An operation whose guard is false waits for a write to enable it.
		n.m.ComputeOn(o.c, r.costs.guardCheck, o.then((*objQueue).guarded))
		return
	}
	o.run((*objQueue).done, (*objQueue).drain)
}

// guarded continues Consume once the guard check has been charged.
func (o *objQueue) guarded() {
	if t := o.t; !t.op.Guard(o.inst.state, t.args) {
		o.n.rts.stats.GuardWaits++
		o.inst.pending = append(o.inst.pending, pendingOp{op: t.op, args: t.args, task: t})
		o.q.Done()
		return
	}
	o.run((*objQueue).done, (*objQueue).drain)
}

// run runs the task in service, whose guard, if any, has held; a read
// goes on with afterRead, a write with afterWrite.
func (o *objQueue) run(afterRead, afterWrite func(*objQueue)) {
	n, t, inst := o.n, o.t, o.inst
	switch t.kind {
	case "fetch":
		state := inst.typ.Clone(inst.state)
		inst.copyset[t.from] = true
		n.srv.PutReplyOn(o.c, t.req, Args{}, state, inst.typ.stateSize(state)+16, o.then((*objQueue).done))
		n.recycle(t)
	case "read":
		o.after = afterRead
		n.m.ComputeOn(o.c, n.rts.costs.readLocal+n.rts.costs.defaultOp, o.then((*objQueue).read))
	case "write":
		o.commit(afterWrite)
	case "moveout":
		o.migrateOut()
	case "rehome":
		o.migratePrimary()
	default:
		panic("rts: unknown task kind " + t.kind)
	}
}

// drain retries the parked tasks after a committed write.
func (o *objQueue) drain() { o.pass.start(o.inst) }

// fire runs a parked task whose guard holds now (see retrier), and the
// round goes on after it.
func (o *objQueue) fire(inst *replica, po pendingOp) {
	o.t, o.inst = po.task, inst
	next := func(o *objQueue) { o.pass.next() }
	o.run(next, next)
}

// retried ends the task in service once the retries it enabled are done.
func (o *objQueue) retried() { o.q.Done() }

// read continues a read once it has been charged: apply, answer, and go
// on with o.then.
func (o *objQueue) read() {
	t := o.t
	o.n.finishTaskOn(o.c, t, t.op.Apply(o.n.m.Env(), o.inst.state, t.args), o.then(o.after))
}

// migrateOut hands the object to the broadcast runtime (see adapt.go).
// The primary's queue serializes it behind every task enqueued before
// it — the queue position is the point-to-point side of the cut; the
// sequenced migrate record it emits is the broadcast side. The snapshot
// is published through Router.moveSnap before the cut, with no blocking
// point in between, so a machine crash can never strand the object
// without a recoverable snapshot.
func (o *objQueue) migrateOut() {
	n, r, t := o.n, o.n.rts, o.t
	meta := r.meta(o.id)
	clone := meta.typ.Clone(o.inst.state)
	r.router.moveSnap(n.m.ID(), o.id, clone)
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
		r.router.moveout(o.c, n.m.ID(), o.id, clone, sim.Func(func() { n.finishTaskOn(o.c, t, Args{}, o.then((*objQueue).done)) }))
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
		n.finishTaskOn(o.c, t, Args{}, o.then((*objQueue).done)) // nothing to move, or the target died
		return
	}
	st := meta.typ.Clone(o.inst.state)
	n.m.ComputeOn(o.c, r.costs.writeApply, sim.Func(func() {
		r.promote(meta, target, st)
		n.dropLocal(o.id)
		// Bounce parked guarded tasks; they re-issue at the new primary.
		o.bounce(0, func() {
			n.m.Env().Tracef("rts: object %d primary migrated %d -> %d", o.id, n.m.ID(), target)
			n.finishTaskOn(o.c, t, Args{}, o.then((*objQueue).done))
		})
	}))
}

// bounce finishes the parked guarded tasks from the i-th on with the
// retry status, one after another, and then runs k.
func (o *objQueue) bounce(i int, k func()) {
	if i == len(o.inst.pending) {
		o.inst.pending = o.inst.pending[:0]
		k()
		return
	}
	o.n.finishTaskOn(o.c, o.inst.pending[i].task, retry, sim.Func(func() { o.bounce(i+1, k) }))
}

// finishTaskOn completes a task toward its (local or remote) invoker and
// fires then: once a remote invoker's reply has been sent, charged to p,
// or at once when the invoker is a thread of this machine.
func (n *p2pNode) finishTaskOn(p *sim.Proc, t *p2pTask, res Args, then sim.Firer) {
	if t.req != nil {
		n.srv.PutReplyOn(p, t.req, res, nil, SizeOfArgs(&res), then)
		n.recycle(t)
		return
	}
	t.res = res
	t.done = true
	t.cond.Broadcast()
	then.Fire()
}

// recycle takes back a finished task's record (see task).
func (n *p2pNode) recycle(t *p2pTask) {
	*t = p2pTask{cond: t.cond} // keeps the condition's waiter buffer
	n.tfree = append(n.tfree, t)
}

// commit runs the object's write protocol at the primary for the task
// in service, and then runs k.
func (o *objQueue) commit(k func(*objQueue)) {
	r, inst := o.n.rts, o.inst
	inst.locked = true
	// Crashed secondaries leave the copyset: their copies died with
	// their machines and must not be waited on. The rest are o.secs, in
	// ascending order, refilled in place: the last commit's fan-out and
	// unlock walk, which read it, ended before this task was served.
	o.secs, o.after = o.secs[:0], k
	for node := range inst.copyset {
		if r.nodeDown(node) {
			delete(inst.copyset, node)
			continue
		}
		o.secs = append(o.secs, node)
	}
	slices.Sort(o.secs)
	if len(o.secs) == 0 {
		o.write()
		return
	}
	switch t := o.t; r.meta(o.id).protocol {
	case Invalidation:
		// Lock, invalidate every secondary (the copyset empties now: the
		// queue serves nothing that reads it before the acks are in),
		// collect acks.
		clear(inst.copyset)
		o.req = amoeba.Packet{Op: "inval", Obj: int64(o.id), Body: p2pInvalReq{}, Size: 8}
		o.fanout((*objQueue).write)
	case Update:
		// Phase one: ship the operation, collect acks; copies stay
		// locked.
		r.stats.Updates += int64(len(o.secs))
		o.req = amoeba.Packet{Op: t.op.Name, Obj: int64(o.id), Args: t.args, Body: p2pUpdateReq{},
			Size: opSize(t.op.Name, &t.args)}
		o.fanout((*objQueue).write)
	}
}

// write applies the write at the primary once its secondaries have
// acknowledged.
func (o *objQueue) write() {
	o.n.m.ComputeOn(o.c, o.n.rts.costs.writeApply+o.n.rts.costs.defaultOp, o.then((*objQueue).committed))
}

// committed applies the charged write, unlocks every copy (phase two of
// the update protocol) and answers the invoker.
func (o *objQueue) committed() {
	t := o.t
	o.res = t.op.Apply(o.n.m.Env(), o.inst.state, t.args)
	o.ui = 0
	if o.n.rts.meta(o.id).protocol == Update {
		o.unlock()
		return
	}
	o.unlocked()
}

// unlock sends phase two to the next secondary, one after another.
func (o *objQueue) unlock() {
	if o.ui == len(o.secs) {
		o.unlocked()
		return
	}
	if o.unlockPkt.Body == nil {
		o.unlockPkt = amoeba.Packet{Port: p2pCtlPort, Kind: "rts-unlock", Body: p2pUnlock{Obj: o.id}, Size: 12}
	}
	o.ui++
	o.n.m.SendOn(o.c, o.secs[o.ui-1], o.unlockPkt, o.then((*objQueue).unlock))
}

func (o *objQueue) unlocked() {
	o.inst.locked = false
	o.inst.cond.Broadcast()
	o.n.finishTaskOn(o.c, o.t, o.res, o.then(o.after))
}

// fanout issues o.req to the secondaries in parallel, a transaction
// each in the queue's name, and runs k once all have acknowledged. Each
// transaction starts from an event of its own, scheduled now, in the
// slot the thread that made it once started in; and each
// acknowledgement wakes the queue from an event of its own, if it is
// waiting, where that thread's wake-up of it ran. A target that crashes
// mid-protocol acknowledges vacuously — its copy died with it, so there
// is nothing left to keep consistent — and the next commit prunes it
// from the copyset.
func (o *objQueue) fanout(k func(*objQueue)) {
	env := o.n.m.Env()
	o.req.Port, o.fanned = svcPort, k
	o.fi, o.acks, o.waiting = 0, len(o.secs), true
	for range o.secs {
		env.Schedule(env.Now(), o.startFn)
	}
}

// start begins the transaction to the next secondary.
func (o *objQueue) start() {
	if !o.c.Killed() {
		o.fi++
		o.n.cl.CallOn(o.c, o.secs[o.fi-1], o.req, o.ackFn)
	}
}

// ack counts one secondary's acknowledgement.
func (o *objQueue) ack() {
	if _, err := o.n.cl.Result(); err != nil && !errors.Is(err, amoeba.ErrCrashed) {
		panic(fmt.Sprintf("rts: %s failed: %v", o.req.Op, err))
	}
	o.acks--
	if o.waiting {
		o.waiting = false
		env := o.n.m.Env()
		env.Schedule(env.Now(), o.countedFn)
	}
}

// counted goes on with the fan-out's continuation once every
// secondary has acknowledged, or waits for the rest.
func (o *objQueue) counted() {
	switch {
	case o.c.Killed():
	case o.acks > 0:
		o.waiting = true
	default:
		o.then(o.fanned).Fire()
	}
}
