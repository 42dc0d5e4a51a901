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
// dispatcher, the one-way control port, and the per-object primary
// thread that runs the invalidation and update protocols.

// serve is the machine's RPC dispatcher thread. Potentially blocking
// work (operations at the primary, fetches) is routed to per-object
// threads so one blocked object cannot stall the machine's service.
// Secondary-side protocol steps (update apply, invalidation) are quick
// and handled here.
//
// Routing never blocks, so it runs to completion on the dispatch lane
// (route is the server's inline consumer, see amoeba.Server.Serve) and
// the thread is left with the requests it answers itself: bounces and
// the secondary-side steps, which charge CPU and send.
//
// The goroutine exists because a served queue is a queue with a
// consuming process (sim.Queue.Serve): it is who the requests' context
// switches and a secondary's phase-one apply are charged to. With no
// secondaries it does nothing — 0 of 3617 requests of a single-copy kv
// run reach it (go test -run TestRouteShares -v ./internal/orca, which
// asserts that) — and dropping it would take a second kind of served
// queue, one without a process, for a thread that already costs nothing
// while it is parked.
func (n *p2pNode) serve(p *sim.Proc) {
	r := n.rts
	for {
		req, ok := n.srv.GetRequest(p)
		if !ok {
			return
		}
		if n.route(req) == sim.Finished {
			continue
		}
		id := ObjID(req.Obj)
		switch req.Body.(type) {
		case nil, p2pFetchReq:
			// The object migrated or re-homed while the request was in
			// flight: bounce so the client re-resolves.
			n.srv.PutResult(p, req, retry, 8)

		case p2pMigrateReq:
			if r.meta(id).moved {
				n.srv.PutReply(p, req, nil, 4) // already cut over
			} else {
				n.srv.PutResult(p, req, retry, 8)
			}

		case p2pUpdateReq:
			// Phase one at a secondary: lock, apply, ack, stay locked.
			n.applyUpdate(p, req)

		case p2pInvalReq:
			// Invalidate the local copy and acknowledge.
			r.stats.Invalidations++
			n.dropLocal(id)
			n.srv.PutReply(p, req, nil, 4)

		default:
			panic(fmt.Sprintf("rts: unexpected RPC body %T", req.Body))
		}
	}
}

// route queues an operation, fetch or migration request for the thread
// of the object whose primary this machine is, and reports Finished.
// Every other request it declines untouched: one for an object that has
// moved or re-homed, which serve bounces, and the secondary-side steps.
func (n *p2pNode) route(req *amoeba.Request) sim.Verdict {
	id := ObjID(req.Obj)
	kind, from, to := "", req.From, 0
	switch body := req.Body.(type) {
	case nil:
	case p2pFetchReq:
		kind, from = "fetch", body.Node
	case p2pMigrateReq:
		kind, to = body.Kind, body.Target
	default:
		return sim.Decline
	}
	meta := n.rts.meta(id)
	if meta.moved || meta.primary != n.m.ID() {
		return sim.Decline
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
	return sim.Finished
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
func (n *p2pNode) applyUpdate(p *sim.Proc, req *amoeba.Request) {
	r := n.rts
	inst, ok := n.insts[ObjID(req.Obj)]
	if !ok || !inst.valid {
		// The copy was discarded while the update was in flight; the
		// drop notice will reach the primary. Acknowledge vacuously.
		n.srv.PutReply(p, req, nil, 4)
		return
	}
	op := inst.typ.Op(req.Op)
	inst.locked = true
	n.m.Compute(p, r.costs.writeApply+r.costs.defaultOp)
	op.Apply(inst.state, req.Args)
	n.srv.PutReply(p, req, nil, 4)
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
// its primary, with the thread that consumes it and that consumer's
// half on the dispatch lane.
type objQueue struct {
	n      *p2pNode
	id     ObjID
	q      *sim.Queue[*p2pTask]
	thread *sim.Proc

	// The read in service (see read), with the copy it found and what
	// follows its reply, and the two continuations bound once: o.apply
	// and o.q.Done.
	cur     *p2pTask
	inst    *p2pInstance
	then    func()
	applyFn func()
	doneFn  func()
}

// startPrimary gives the object its queue and thread on this machine,
// unless it has been primary here before and still has them.
func (n *p2pNode) startPrimary(id ObjID) {
	if _, ok := n.queues[id]; ok {
		return
	}
	o := &objQueue{n: n, id: id, q: sim.NewQueue[*p2pTask](n.m.Env())}
	o.applyFn, o.doneFn = o.apply, o.q.Done
	o.q.Serve(o.serve)
	n.queues[id] = o
	o.thread = n.m.SpawnThread(fmt.Sprintf("obj%d", id), o.loop)
}

// loop is the primary's per-object protocol thread. It serializes all
// writes, remote reads, and fetches on the object, and holds guarded
// tasks until a committed write enables them.
//
// The goroutine exists because a write waits for replies: commitWrite
// invalidates or updates the secondaries and collects their
// acknowledgements before it applies, and a migration sequences a
// record. serve leaves it 5.6 % of a primary-copy kv run's tasks, the
// writes: go test -run TestRouteShares -v ./internal/orca.
func (o *objQueue) loop(p *sim.Proc) {
	var pending []*p2pTask
	for {
		t, ok := o.q.Get(p)
		if !ok {
			return
		}
		o.n.execTask(p, o.id, t, &pending)
	}
}

// serve is the object thread on the dispatch lane (see sim.Queue.Serve).
// It takes the one task that makes up nearly all of a primary's work and
// cannot block on anything but the CPU: a remote, unguarded read of a
// copy that is present and still the primary. Everything else (guards,
// writes, fetches, migrations, an object that has gone) it declines
// untouched, and loop handles it as ever.
func (o *objQueue) serve(t *p2pTask) sim.Verdict {
	n := o.n
	if t.kind != "read" || t.op.Guard != nil || t.req == nil || n.m.Env().AllThreads {
		return sim.Decline
	}
	inst := n.insts[o.id]
	if n.rts.meta(o.id).moved || inst == nil || !inst.primary {
		return sim.Decline
	}
	o.read(t, inst, o.doneFn)
	return sim.Pending
}

// read runs the read t of the primary copy inst whose guard, if any, has
// held — charge, apply, answer — and then runs then: the queue's Done
// when serve stands in for the thread, the thread's resume when it reads
// for itself (see execTask).
func (o *objQueue) read(t *p2pTask, inst *p2pInstance, then func()) {
	o.cur, o.inst, o.then = t, inst, then
	costs := &o.n.rts.costs
	o.n.m.ComputeFn(o.thread, costs.readLocal+costs.defaultOp, o.applyFn)
}

// apply continues read once the read has been charged.
func (o *objQueue) apply() {
	t, inst, then := o.cur, o.inst, o.then
	o.cur, o.inst, o.then = nil, nil, nil
	o.n.finishTaskFn(o.thread, t, t.op.Apply(inst.state, t.args), then)
}

// execTask runs one task, parking it if its guard is false.
func (n *p2pNode) execTask(p *sim.Proc, id ObjID, t *p2pTask, pending *[]*p2pTask) {
	r := n.rts
	meta := r.meta(id)
	inst := n.insts[id]
	if meta.moved || inst == nil || !inst.primary {
		// The object migrated away or re-homed between enqueue and
		// execution: bounce the task back to its invoker.
		n.finishTask(p, t, retry)
		return
	}
	if t.op != nil && t.op.Guard != nil {
		// An operation whose guard is false waits for a write to enable it.
		n.m.Compute(p, r.costs.guardCheck)
		if !t.op.Guard(inst.state, t.args) {
			r.stats.GuardWaits++
			*pending = append(*pending, t)
			return
		}
	}
	switch t.kind {
	case "fetch":
		state := inst.typ.Clone(inst.state)
		inst.copyset[t.from] = true
		n.srv.PutReply(p, t.req, state, inst.typ.stateSize(state)+16)
		n.recycle(t)

	case "read":
		n.queues[id].read(t, inst, p.Resume())
		p.Park()

	case "write":
		n.commitWrite(p, id, inst, t)
		n.drainPending(p, id, pending)

	case "moveout":
		n.migrateOut(p, id, t, pending)

	case "rehome":
		n.migratePrimary(p, id, t, pending)

	default:
		panic("rts: unknown task kind " + t.kind)
	}
}

// migrateOut hands the object to the broadcast runtime (see
// adapt.go). It runs on the primary's object thread, so every task
// enqueued before it has completed — the queue position is the
// point-to-point side of the cut; the sequenced migrate record it
// emits is the broadcast side. The snapshot is published through
// moveSnap before the cut, with no blocking point in between, so a
// machine crash can never strand the object without a recoverable
// snapshot.
func (n *p2pNode) migrateOut(p *sim.Proc, id ObjID, t *p2pTask, pending *[]*p2pTask) {
	r := n.rts
	if r.mover == nil || r.moveSnap == nil {
		panic("rts: moveout without a broadcast runtime attached")
	}
	meta := r.meta(id)
	inst := n.insts[id]
	clone := meta.typ.Clone(inst.state)
	r.moveSnap(n.m.ID(), id, clone)
	meta.moved = true
	// Bounce parked guarded tasks; they re-register as broadcast ops.
	for _, pt := range *pending {
		n.finishTask(p, pt, retry)
	}
	*pending = (*pending)[:0]
	// Drop every copy; suspended readers wake and bounce on meta.moved.
	for _, node := range r.nodes {
		if node.m.Crashed() {
			continue
		}
		node.dropLocal(id)
	}
	// Sequence the migrate record; its globally-first delivery flips
	// ownership to the broadcast runtime.
	r.mover(p, n.m.ID(), id, clone)
	n.finishTask(p, t, Args{})
}

// migratePrimary moves the primary copy onto a new machine — the
// controller chasing the hottest writer. The primary's task queue
// serializes it against all earlier operations; like rehome, the
// promotion mutates the global object table directly, charging the
// state-transfer work to this machine's CPU.
func (n *p2pNode) migratePrimary(p *sim.Proc, id ObjID, t *p2pTask, pending *[]*p2pTask) {
	r := n.rts
	meta := r.meta(id)
	inst := n.insts[id]
	target := t.to
	if target == n.m.ID() || r.nodeDown(target) {
		n.finishTask(p, t, Args{}) // nothing to move, or the target died
		return
	}
	tn := r.nodes[target]
	st := meta.typ.Clone(inst.state)
	n.m.Compute(p, r.costs.writeApply)
	tn.installCopy(id, meta.typ, st)
	ti := tn.insts[id]
	ti.primary = true
	ti.copyset = make(map[int]bool)
	// Adopt surviving secondaries (none under SingleCopy placement,
	// but the protocol does not depend on that).
	for _, on := range r.nodes {
		if on.m.Crashed() || on.m.ID() == target || on.m.ID() == n.m.ID() {
			continue
		}
		if sec, ok := on.insts[id]; ok && sec.valid {
			ti.copyset[on.m.ID()] = true
			sec.primary = false
		}
	}
	tn.startPrimary(id)
	meta.primary = target
	n.dropLocal(id)
	// Bounce parked guarded tasks; they re-issue at the new primary.
	for _, pt := range *pending {
		n.finishTask(p, pt, retry)
	}
	*pending = (*pending)[:0]
	n.m.Env().Tracef("rts: object %d primary migrated %d -> %d", id, n.m.ID(), target)
	n.finishTask(p, t, Args{})
}

// finishTask completes a task toward its (local or remote) invoker.
func (n *p2pNode) finishTask(p *sim.Proc, t *p2pTask, res Args) {
	n.finishTaskFn(p, t, res, p.Resume())
	p.Park()
}

// finishTaskFn is finishTask in continuation form: then runs once a
// remote invoker's reply has been sent, charged to p, or at once when
// the invoker is a thread of this machine.
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

// commitWrite runs the object's write protocol at the primary.
func (n *p2pNode) commitWrite(p *sim.Proc, id ObjID, inst *p2pInstance, t *p2pTask) {
	r := n.rts
	meta := r.meta(id)
	inst.locked = true
	// Crashed secondaries leave the copyset: their copies died with
	// their machines and must not be waited on.
	for node := range inst.copyset {
		if r.nodeDown(node) {
			delete(inst.copyset, node)
		}
	}
	secs := slices.Sorted(maps.Keys(inst.copyset))
	if len(secs) > 0 {
		switch meta.protocol {
		case Invalidation:
			// Lock, invalidate every secondary, collect acks.
			n.fanoutRPC(p, secs, "inval", amoeba.Packet{Op: "inval", Obj: int64(id), Body: p2pInvalReq{}, Size: 8})
			inst.copyset = make(map[int]bool)
		case Update:
			// Phase one: ship the operation, collect acks; copies
			// stay locked.
			r.stats.Updates += int64(len(secs))
			n.fanoutRPC(p, secs, "update", amoeba.Packet{Op: t.op.Name, Obj: int64(id), Args: t.args, Body: p2pUpdateReq{},
				Size: opSize(t.op.Name, &t.args)})
		}
	}
	// Apply at the primary.
	n.m.Compute(p, r.costs.writeApply+r.costs.defaultOp)
	res := t.op.Apply(inst.state, t.args)
	if meta.protocol == Update {
		// Phase two: unlock all copies.
		for _, dst := range secs {
			n.m.Send(p, dst, amoeba.Packet{
				Port: p2pCtlPort, Kind: "rts-unlock", Body: p2pUnlock{Obj: id}, Size: 12,
			})
		}
	}
	inst.locked = false
	inst.cond.Broadcast()
	n.finishTask(p, t, res)
}

// drainPending retries guarded tasks after each committed write until
// no more can run.
func (n *p2pNode) drainPending(p *sim.Proc, id ObjID, pending *[]*p2pTask) {
	for progress := true; progress; {
		progress = false
		for i, t := range *pending {
			n.m.Compute(p, n.rts.costs.guardCheck)
			inst := n.insts[id]
			if !t.op.Guard(inst.state, t.args) {
				continue
			}
			*pending = append((*pending)[:i], (*pending)[i+1:]...)
			if t.kind == "write" {
				n.commitWrite(p, id, inst, t)
			} else {
				n.queues[id].read(t, inst, p.Resume())
				p.Park()
			}
			progress = true
			break
		}
	}
}

// fanoutRPC issues the same request to several machines in parallel and
// waits for all acknowledgements. A target that crashes mid-protocol
// acknowledges vacuously — its copy died with it, so there is nothing
// left to keep consistent — and the next commitWrite prunes it from
// the copyset.
func (n *p2pNode) fanoutRPC(p *sim.Proc, targets []int, step string, req amoeba.Packet) {
	req.Port = p2pRPCPort
	remaining := len(targets)
	cond := sim.NewCond(n.m.Env())
	for _, dst := range targets {
		dst := dst
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
	for remaining > 0 {
		cond.Wait(p)
	}
}
