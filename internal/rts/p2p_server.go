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
		n.srv.PutResultFn(n.svc, req, Args{}, 4, n.servedFn)
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
		n.srv.PutResultFn(n.svc, req, res, size, n.servedFn)
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
// secondary. The dispatcher serves one request at a time, so the one in
// service waits for its charge in n.upd.
func (n *p2pNode) applyUpdate(req *amoeba.Request) {
	inst, ok := n.insts[ObjID(req.Obj)]
	if !ok || !inst.valid {
		// The copy was discarded while the update was in flight; the
		// drop notice will reach the primary. Acknowledge vacuously.
		n.srv.PutResultFn(n.svc, req, Args{}, 4, n.servedFn)
		return
	}
	inst.locked = true
	n.upd, n.updInst = req, inst
	n.m.ComputeFn(n.svc, n.rts.costs.writeApply+n.rts.costs.defaultOp, n.updatedFn)
}

// updated applies the charged update and acknowledges it.
func (n *p2pNode) updated() {
	req, inst := n.upd, n.updInst
	n.upd, n.updInst = nil, nil
	inst.op(req.Op).Apply(inst.state, req.Args)
	n.srv.PutResultFn(n.svc, req, Args{}, 4, n.servedFn)
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
	n    *p2pNode
	id   ObjID
	q    *sim.Queue[*p2pTask]
	c    *sim.Proc // the claimant the queue is served as
	pass retrier   // guarded tasks park on the primary copy (see guarded)

	// The task in service (t), the primary copy it runs on, the result
	// and secondaries of a write, what follows a read or a write (then),
	// and the fan-out in progress: its request, the secondaries it has
	// yet to start (from fi) and to hear from, and what follows it. The
	// continuations and the unlock packet are bound once.
	t                                  *p2pTask
	inst                               *replica
	res                                Args
	secs                               []int
	then, fanned                       func()
	req, unlockPkt                     amoeba.Packet
	fi, ui, acks                       int
	waiting                            bool
	doneFn, guardedFn, readFn, writeFn func()
	committedFn, drainFn, nextFn       func()
	startFn, countedFn, unlockFn       func()
	ackFn                              func(amoeba.Packet, error)
}

// startPrimary gives the object its queue on this machine, unless it
// has been primary here before and still has it.
func (n *p2pNode) startPrimary(id ObjID) {
	if _, ok := n.queues[id]; ok {
		return
	}
	o := &objQueue{n: n, id: id, q: sim.NewQueue[*p2pTask](n.m.Env())}
	o.doneFn, o.guardedFn, o.readFn, o.writeFn = o.q.Done, o.guarded, o.read, o.write
	o.committedFn, o.drainFn = o.committed, o.drain
	o.startFn, o.countedFn, o.unlockFn, o.ackFn = o.start, o.counted, o.unlock, o.ack
	o.unlockPkt = amoeba.Packet{Port: p2pCtlPort, Kind: "rts-unlock", Body: p2pUnlock{Obj: id}, Size: 12}
	n.queues[id] = o
	o.c = n.m.Claimant(fmt.Sprintf("obj%d", id))
	o.pass.init(n.m, o.c, n.rts.costs.guardCheck, o)
	o.nextFn = o.pass.next
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
	o.run(o.doneFn, o.drainFn)
}

// guarded continues serve once the guard check has been charged.
func (o *objQueue) guarded() {
	if t := o.t; !t.op.Guard(o.inst.state, t.args) {
		o.n.rts.stats.GuardWaits++
		o.inst.pending = append(o.inst.pending, pendingOp{op: t.op, args: t.args, task: t})
		o.q.Done()
		return
	}
	o.run(o.doneFn, o.drainFn)
}

// run runs the task in service, whose guard, if any, has held; a read
// goes on with afterRead, a write with afterWrite.
func (o *objQueue) run(afterRead, afterWrite func()) {
	n, t, inst := o.n, o.t, o.inst
	switch t.kind {
	case "fetch":
		state := inst.typ.Clone(inst.state)
		inst.copyset[t.from] = true
		n.srv.PutReplyFn(o.c, t.req, state, inst.typ.stateSize(state)+16, o.doneFn)
		n.recycle(t)
	case "read":
		o.then = afterRead
		n.m.ComputeFn(o.c, n.rts.costs.readLocal+n.rts.costs.defaultOp, o.readFn)
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
	o.run(o.nextFn, o.nextFn)
}

// retried ends the task in service once the retries it enabled are done.
func (o *objQueue) retried() { o.q.Done() }

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
		r.router.moveout(o.c, n.m.ID(), o.id, clone, func() { n.finishTaskFn(o.c, t, Args{}, o.doneFn) })
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
	st := meta.typ.Clone(o.inst.state)
	n.m.ComputeFn(o.c, r.costs.writeApply, func() {
		r.promote(meta, target, st)
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
	if i == len(o.inst.pending) {
		o.inst.pending = o.inst.pending[:0]
		k()
		return
	}
	o.n.finishTaskFn(o.c, o.inst.pending[i].task, retry, func() { o.bounce(i+1, k) })
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
	// their machines and must not be waited on. The rest are o.secs, in
	// ascending order, refilled in place: the last commit's fan-out and
	// unlock walk, which read it, ended before this task was served.
	o.secs, o.then = o.secs[:0], k
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
		o.fanout(o.writeFn)
	case Update:
		// Phase one: ship the operation, collect acks; copies stay
		// locked.
		r.stats.Updates += int64(len(o.secs))
		o.req = amoeba.Packet{Op: t.op.Name, Obj: int64(o.id), Args: t.args, Body: p2pUpdateReq{},
			Size: opSize(t.op.Name, &t.args)}
		o.fanout(o.writeFn)
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
	o.ui++
	o.n.m.SendFn(o.c, o.secs[o.ui-1], o.unlockPkt, o.unlockFn)
}

func (o *objQueue) unlocked() {
	o.inst.locked = false
	o.inst.cond.Broadcast()
	o.n.finishTaskFn(o.c, o.t, o.res, o.then)
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
func (o *objQueue) fanout(k func()) {
	env := o.n.m.Env()
	o.req.Port, o.fanned = p2pRPCPort, k
	o.fi, o.acks, o.waiting = 0, len(o.secs), true
	for range o.secs {
		env.Schedule(env.Now(), o.startFn)
	}
}

// start begins the transaction to the next secondary.
func (o *objQueue) start() {
	if !o.c.Killed() {
		o.fi++
		o.n.client.CallFn(o.c, o.secs[o.fi-1], o.req, o.ackFn)
	}
}

// ack counts one secondary's acknowledgement.
func (o *objQueue) ack(_ amoeba.Packet, err error) {
	if err != nil && !errors.Is(err, amoeba.ErrCrashed) {
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
		o.fanned()
	}
}
