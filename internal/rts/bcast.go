package rts

import (
	"fmt"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/sim"
)

// seqGroup is a sequencer group of its Router, the orderer of the
// paper's §3.2.1 runtime system, used when the network supports
// (reliable, totally-ordered) broadcasting. Every object of the group
// is replicated on all machines of its span (or of its replica set).
// Reads are performed directly on the local replica, bypassing the
// object manager. Writes ship the operation code and parameters through
// the group layer; every machine's delivery consumer (bcastManager)
// applies incoming writes in strict sequence order to the machine's
// copies, which enforces sequential consistency.
//
// Guarded writes whose guard is false at their position in the total
// order are queued and deterministically retried after each subsequent
// write — identically on every replica, so replicas never diverge.
//
// A group keeps only its own state; the Router holds the object table
// and the settings every group shares, and each machine's objMgr holds
// its copies.
type seqGroup struct {
	r    *Router
	k    int
	mgrs []bcastManager // one per machine of the span

	// replicas is what the group's replicas are carved from, a span's
	// worth of records per run (see slab).
	replicas slab[replica]

	// span lists the global node ids hosting a manager (ascending), and
	// mgrAt maps a global node id to its index in mgrs (-1 outside the
	// span). Each sequencer group may span a subset of the machines (its
	// replication domain), and machines outside it forward their
	// operations to a holder inside it (see call).
	span  []int
	mgrAt []int

	// stats counts the group's own work, which ShardStats reports;
	// counters adds the group layer's recovery figures.
	stats RTSStats
}

// opKind is the kind of a write's group message, which carries the
// operation inline (group.Msg's Obj, Op and Args) and has no body.
const opKind = "rts-op"

// Wire bodies for the group stream.
type (
	wireCreate struct {
		Obj  ObjID
		Args []any
	}
	// wireMigrate is a sequenced change of an object's orderer: the
	// delivery position is the migration's cut point. Target is the new
	// primary machine, or -1 when the object migrates into its group, in
	// which case State carries the snapshot every member clones into a
	// fresh replica.
	wireMigrate struct {
		Obj    ObjID
		Target int
		State  State
	}
)

// bcastManager is a group's consumer of its delivery stream on one
// machine, with no process behind it (see Consume): it applies the
// totally-ordered write stream to the machine's copies (objMgr.copies)
// and keeps only the delivery, sequencing and frame state.
type bcastManager struct {
	sg    *seqGroup
	mg    *objMgr // the machine's manager, holding the copies
	m     *amoeba.Machine
	g     *group.Member
	c     *sim.Proc       // the claimant the manager serves as, claim's
	claim amoeba.Claimant // c's record

	// The waits for this machine's sequenced records (see sequence), by
	// uid: waiters, completions that beat their waiter (early), and
	// combined batches in flight (see batch.go). Each map is made at its
	// first insert; most managers never forward or combine.
	waiters map[int64]*seqWait
	early   map[int64]Args
	flights map[int64]*writeBuf
	sfree   []*seqWait // see sequence
	res     Args       // the last sequenced record's results (see sequence)

	// touched collects the replicas written since the last frame
	// boundary, and the boundary runs a guard-retry pass over each (see
	// Consume), which is what batching amortizes: ti is the next to go.
	touched []*replica
	ti      int
	pass    retrier

	// inFrame and pendCharge amortize the apply-cost accounting over
	// a packed frame: mid-frame ops accrue their CPU cost and the
	// frame's last op charges the sum in ONE Compute (one busy
	// interval, one timer event) instead of one per op. Unbatched
	// messages are single-op frames — nothing accrues and the charge
	// happens exactly where it always did.
	inFrame    bool
	pendCharge sim.Time

	// The delivery in service (see Consume): d itself, and the write being
	// applied, cur on curInst; and the manager's continuation (see steps).
	d       group.Delivery
	curInst *replica
	cur     pendingOp
	steps[bcastManager]
}

// newSeqGroup builds sequencer group k of the router over a (possibly
// partial) machine span. members[i] must be joined on node span[i];
// span must be ascending.
func newSeqGroup(r *Router, k int, members []*group.Member, span []int) *seqGroup {
	g := &seqGroup{r: r, k: k, span: span, replicas: slab[replica]{run: len(span)}}
	g.mgrAt = make([]int, r.machines[0].Net().Nodes())
	for i := range g.mgrAt {
		g.mgrAt[i] = -1
	}
	g.mgrs = make([]bcastManager, len(span))
	for i, node := range span {
		g.mgrAt[node] = i
		mgr := &g.mgrs[i]
		mgr.sg, mgr.mg, mgr.m, mgr.g, mgr.self = g, r.nodes[node], r.machines[node], members[i], mgr
		mgr.c = mgr.claim.Init(mgr.m, "objmgr", -1)
		mgr.pass.init(mgr.m, mgr.c, r.costs.guardCheck, mgr)
		mgr.g.Deliveries().Serve(mgr.c, mgr)
	}
	return g
}

// steps is a consumer's one outstanding continuation, part of the
// consumer's record (self), and a step is a method expression of it, so
// neither making a consumer nor handing its continuation out binds
// anything. The group's delivery consumers, the object service and a
// primary copy's queue each have one.
type steps[T any] struct {
	self *T
	next func(*T)
}

// then returns the continuation, set to run step k.
func (s *steps[T]) then(k func(*T)) sim.Firer {
	s.next = k
	return s
}

// Fire runs the step the continuation was last handed out for.
func (s *steps[T]) Fire() { s.next(s.self) }

// mgr returns the group's manager on a node, nil outside the span.
func (g *seqGroup) mgr(node int) *bcastManager {
	if node < 0 || node >= len(g.mgrAt) || g.mgrAt[node] < 0 {
		return nil
	}
	return &g.mgrs[g.mgrAt[node]]
}

// counters returns the group's counter snapshot. Sequencer-recovery
// counters live in the group members below the runtime: elections and
// takeovers by max (survivors observe the same logical recovery),
// re-proposals by sum, recovery time as the worst member's outage.
func (g *seqGroup) counters() RTSStats {
	st := g.stats
	for i := range g.mgrs {
		gs := g.mgrs[i].g.Stats()
		if gs.Elections > st.Elections {
			st.Elections = gs.Elections
		}
		if gs.Takeovers > st.Takeovers {
			st.Takeovers = gs.Takeovers
		}
		st.Reproposals += gs.Reproposals
		if us := float64(gs.RecoveryTime) / float64(sim.Microsecond); us > st.RecoveryVirtualUS {
			st.RecoveryVirtualUS = us
		}
	}
	return st
}

// call performs an operation on an object of the group: it blocks for
// guards and write completion. It is the one place that decides where
// the operation runs: a machine holding no replica — outside the
// group's span or outside the object's replica set — forwards it to a
// holder.
func (g *seqGroup) call(w *Worker, id ObjID, opName string, in Args) Args {
	r := g.r
	e := r.entry(id)
	nodes, adapt := e.nodes, e.adapt // copied: the table may grow while this blocks
	if !g.replicatedOn(w.Node(), id) {
		w.SyncShared()
		return g.forward(w, id, opName, in)
	}
	mgr := g.mgr(w.Node())
	inst := mgr.mg.instance(w.P, id, false)
	op := r.op(id, opName)
	if r.batch.Enabled() && op.Kind == Write && op.NoResult && op.Guard == nil && nodes == nil && adapt == nil {
		// Unguarded no-result write to a fully replicated object under
		// batching: combine. The invoker continues immediately. An
		// adaptive object never combines: a combined write parked in a
		// worker's buffer across a migration cut would be dropped by the
		// moved replica.
		mgr.bufferWrite(w, id, opName, in)
		return Args{}
	}
	// Every other operation first waits until the worker's buffered
	// writes are applied locally (the ordering rule in batch.go).
	w.SyncShared()
	if op.Kind == Read && op.Guard == nil {
		// A local read: no network traffic, just accumulated CPU.
		if inst.moved {
			// The object migrated away and this replica is frozen at
			// the cut. A first-migration read here would still be a
			// consistent prefix, but after the object has round-tripped
			// the frozen state is arbitrarily stale — bounce, and let
			// the Router wait for the live placement.
			return retry
		}
		g.stats.LocalReads++
		w.Charge(r.costs.readLocal + r.costs.defaultOp)
		return op.Apply(w.M.Env(), inst.state, in)
	}
	if op.Kind == Read || len(nodes) == 1 {
		return g.atReplica(w, inst, op, in)
	}
	// Write: ship the operation through the total order and wait for
	// it to be applied on this machine.
	w.Flush()
	g.stats.BcastWrites++
	return mgr.sequenced(w.P, group.Msg{Kind: opKind, Obj: int64(id), Op: opName, Args: in, Size: opSize(opName, &in)})
}

// atReplica runs a guarded read, or a write to a single-copy object at
// its only holder, on the machine's replica: it waits on the replica's
// condition until the guard holds, re-checking after every applied
// write, and applies the operation, its cost accrued. Such a write
// bypasses the broadcast: with one replica there is nothing to keep
// consistent, and the holder's execution order is the object's total
// order. An object that migrated away while a reader waited bounces it:
// no further writes will ever wake it here.
func (g *seqGroup) atReplica(w *Worker, inst *replica, op *OpDef, in Args) Args {
	c := &g.r.costs
	if !awaitGuard(w, inst, op, in, c.guardCheck, &g.stats.GuardWaits) {
		return retry
	}
	if op.Kind == Read {
		g.stats.LocalReads++
		w.Accrue(c.readLocal + c.defaultOp)
		return op.Apply(w.M.Env(), inst.state, in)
	}
	w.Accrue(c.apply())
	return inst.apply(w.M.Env(), op, in)
}

// seqWait is the wait of one sequenced record for its local
// application (see sequence). Records are pooled per manager, and the
// continuations are part of the record, so a wait allocates nothing.
type seqWait struct {
	mgr    *bcastManager
	p      *sim.Proc
	msg    [1]group.Msg
	uids   []int64
	res    Args
	k      sim.Firer // p itself, in sequenced
	wokeFn func()
}

// sequence broadcasts m through the group in p's name and fires k, with
// the results in mgr.res, once the manager has applied m's local
// delivery: the one wait for the total order. The apply can race ahead
// of the broadcast's return (broadcasting blocks on the CPU, and the
// manager may apply the local delivery meanwhile), so a completion that
// finds no waiter is kept in mgr.early for it. If p is killed first, k
// never fires.
func (mgr *bcastManager) sequence(p *sim.Proc, m group.Msg, k sim.Firer) {
	var s *seqWait
	if n := len(mgr.sfree); n > 0 {
		s, mgr.sfree = mgr.sfree[n-1], mgr.sfree[:n-1]
	} else {
		s = &seqWait{mgr: mgr}
		s.wokeFn = s.woke
	}
	s.p, s.k, s.msg[0], s.uids = p, k, m, s.uids[:0]
	mgr.g.BroadcastBatchOn(p, s.msg[:], &s.uids, s)
}

// Fire registers the wait once the broadcast has returned (a wait is its
// broadcast's continuation), or ends it if the completion came first.
func (s *seqWait) Fire() {
	mgr, uid := s.mgr, s.uids[0]
	if res, done := mgr.early[uid]; done {
		delete(mgr.early, uid)
		s.res = res
		s.woke()
		return
	}
	put(&mgr.waiters, uid, s)
}

// woke ends the wait, where a thread parked on it would wake: the
// record goes back to the pool and k fires with the results.
func (s *seqWait) woke() {
	mgr, p, k, res := s.mgr, s.p, s.k, s.res
	if p.Killed() {
		return // abandoned with its machine, record and all
	}
	s.p, s.k, s.msg[0], s.res = nil, nil, group.Msg{}, Args{}
	mgr.sfree = append(mgr.sfree, s)
	mgr.res = res
	k.Fire()
}

// sequenced is sequence and a park: it returns the results once m's
// local delivery has been applied.
func (mgr *bcastManager) sequenced(p *sim.Proc, m group.Msg) Args {
	mgr.sequence(p, m, p)
	p.Park()
	return mgr.res
}

// until runs k in p's name once done() holds, re-checking it at every
// wake-up of c: the continuation form of
//
//	for !done() {
//		c.Wait(p)
//	}
func until(c *sim.Cond, p *sim.Proc, done func() bool, k sim.Firer) {
	if done() {
		k.Fire()
		return
	}
	c.WaitOn(p, sim.Func(func() { until(c, p, done, k) }))
}

// complete finishes a waiting invocation. src is the originating node,
// the only one where anybody waits for uid: a completion with no
// registered waiter yet is kept there until its wait registers (see
// sequence). Async
// (combined) ops complete through their batch flight instead of a
// waiter; complete returns the combining buffer whose next batch the
// completion of its flight lets go, if any, and the caller sends it
// (see written). Only an unguarded write of a combining worker has a
// flight.
func (mgr *bcastManager) complete(uid int64, src int, res Args) *writeBuf {
	if src != mgr.m.ID() {
		return nil
	}
	if b, ok := mgr.flights[uid]; ok {
		return mgr.completeFlight(uid, b)
	}
	if s, ok := mgr.waiters[uid]; ok {
		delete(mgr.waiters, uid)
		s.res = res
		env := mgr.m.Env()
		env.Schedule(env.Now(), s.wokeFn)
		return nil
	}
	put(&mgr.early, uid, res)
	return nil
}

// Consume is the object manager: the consumer of the totally-ordered
// delivery stream, with no process behind it (see sim.Queue.Serve). It
// applies creations and writes on the dispatch lane, in mgr.c's name,
// taking at every step the steps an object-manager thread took — the
// same CPU claims, sends and wake-ups in the same slots — through
// continuations: a CPU charge (charge), the next combined batch a
// completion lets go (written), a pausing fence (Router.handleFence), a
// migration record (Router.handleMigrate). The last of them calls Done.
//
// Guard retries run once per frame, not per op: a write only marks its
// replica touched, and the retry sweep over the touched replicas fires
// at the frame boundary (d.More == false). Frame boundaries are
// assigned by the sequencer and travel with each message, so every
// replica drains at identical points in the total order — which is
// what keeps replicated guard queues deterministic. Unbatched messages
// are single-op frames, reproducing the drain-after-every-write
// behavior exactly.
func (mgr *bcastManager) Consume(d group.Delivery) {
	mgr.d, mgr.inFrame = d, d.More
	if d.Dup {
		// A re-sequenced duplicate the group layer suppressed: nothing to
		// apply (it completed at its first delivery), but its
		// frame-boundary flag still counts.
		mgr.boundary()
		return
	}
	if d.Kind == opKind {
		mgr.applyWrite(ObjID(d.Obj), d.Op, d.Args)
		return
	}
	switch body := d.Body.(type) {
	case wireCreate:
		mgr.applyCreate(d.UID, d.Src, body)
	case *wireFence:
		mgr.sg.r.handleFence(mgr, d, body, mgr.then((*bcastManager).boundary))
	case wireMigrate:
		mgr.sg.r.handleMigrate(mgr, d.UID, d.Src, body, mgr.then((*bcastManager).boundary))
	default:
		extra := mgr.sg.r.extra
		if extra == nil {
			panic(fmt.Sprintf("rts: unexpected group message %T", d.Body))
		}
		extra(mgr.m.ID(), d.Body)
		mgr.boundary()
	}
}

// boundary closes the delivery in service, which has been applied. At a
// frame boundary, a frame whose tail op took a non-charging path (a
// guard queued it, a non-holder skipped it) settles the accrued cost,
// if any, and the guard-retry passes run then.
func (mgr *bcastManager) boundary() {
	if mgr.inFrame {
		mgr.g.Deliveries().Done()
		return
	}
	mgr.charge(0, mgr.then((*bcastManager).retried))
}

// charge accounts CPU cost for one delivered op and then runs k:
// mid-frame costs accrue, and the frame's last op charges the accrued
// sum at once.
func (mgr *bcastManager) charge(d sim.Time, k sim.Firer) {
	if mgr.inFrame {
		mgr.pendCharge += d
		k.Fire()
		return
	}
	d += mgr.pendCharge
	mgr.pendCharge = 0
	mgr.m.ComputeOn(mgr.c, d, k)
}

// applyCreate instantiates the replica (on replica holders only, for
// partially replicated objects).
func (mgr *bcastManager) applyCreate(uid int64, src int, c wireCreate) {
	if !mgr.sg.replicatedOn(mgr.m.ID(), c.Obj) {
		mgr.complete(uid, src, Args{})
		mgr.boundary()
		return
	}
	mgr.charge(mgr.sg.r.costs.create, mgr.then((*bcastManager).created))
}

// created continues applyCreate once the creation has been charged.
func (mgr *bcastManager) created() {
	c := mgr.d.Body.(wireCreate)
	mgr.mg.setSeq(c.Obj, newReplica(&mgr.sg.replicas, mgr.sg.r.objs[c.Obj].typ.New(c.Args)))
	mgr.complete(mgr.d.UID, mgr.d.Src, Args{})
	mgr.boundary()
}

// applyWrite executes the write the delivery in service carries, obj's
// operation opName with args, from the total order: check the guard
// (park it if false), apply, complete the local invoker, and wake
// guard-blocked readers. The guard-retry pass over parked writes runs
// at the frame boundary (see Consume), not here.
func (mgr *bcastManager) applyWrite(obj ObjID, opName string, args Args) {
	inst := mgr.mg.seqCopy(obj)
	if inst == nil {
		if !mgr.sg.replicatedOn(mgr.m.ID(), obj) {
			mgr.boundary() // not a replica holder: the write does not apply here
			return
		}
		panic(fmt.Sprintf("rts: write to unknown object %d on node %d", obj, mgr.m.ID()))
	}
	d := &mgr.d
	if inst.moved {
		// The object migrated away at an earlier position in the total
		// order: bounce, so the invoker re-issues under the new
		// placement (see adapt.go).
		mgr.complete(d.UID, d.Src, retry)
		mgr.boundary()
		return
	}
	po := pendingOp{op: mgr.sg.r.op(obj, opName), args: args, uid: d.UID, src: d.Src}
	if po.op.Guard == nil {
		mgr.fire(inst, po)
		return
	}
	mgr.curInst, mgr.cur = inst, po
	mgr.charge(mgr.sg.r.costs.guardCheck, mgr.then((*bcastManager).guarded))
}

// guarded continues applyWrite once the guard check has been charged.
func (mgr *bcastManager) guarded() {
	if mgr.curInst.parked(mgr.cur) {
		mgr.boundary()
		return
	}
	mgr.fire(mgr.curInst, mgr.cur)
}

// fire applies a write whose guard, if any, holds: one from the total
// order, or a parked one a retry pass fires (see retrier), whose round
// goes on after it (see wake).
func (mgr *bcastManager) fire(inst *replica, po pendingOp) {
	mgr.curInst, mgr.cur = inst, po
	mgr.charge(mgr.sg.r.costs.apply(), mgr.then((*bcastManager).written))
}

// written applies mgr.cur, whose cost has been accounted, and completes
// its invoker if that waits on this machine. A completion that
// ends a combined batch's flight sends the worker's next batch, the
// pipeline's steady state (see completeFlight), before the write's
// guard-blocked readers wake.
func (mgr *bcastManager) written() {
	w := &mgr.cur
	res := w.op.Apply(mgr.m.Env(), mgr.curInst.state, w.args)
	if b := mgr.complete(w.uid, w.src, res); b != nil {
		b.flushOn(mgr.c, mgr.then((*bcastManager).wake))
		return
	}
	mgr.wake()
}

// wake wakes the guard-blocked readers of the replica just written and
// goes on: with the retry pass that fired the write, or else by entering
// the replica into the frame's retry passes and closing the delivery.
func (mgr *bcastManager) wake() {
	inst := mgr.curInst
	inst.cond.Broadcast()
	mgr.curInst, mgr.cur = nil, pendingOp{}
	if mgr.pass.inst != nil {
		mgr.pass.next()
		return
	}
	mgr.touch(inst)
	mgr.boundary()
}

// touch enters a written replica into the frame's guard-retry passes.
func (mgr *bcastManager) touch(inst *replica) {
	if !inst.touched {
		inst.touched = true
		mgr.touched = append(mgr.touched, inst)
	}
}

// retried runs the frame boundary's guard-retry pass over the next
// touched replica, or ends the delivery once none is left. A replica
// touched while a pass is in progress — a fence that another group's
// manager executes on this machine touches this one's replicas (see
// execFence) — is appended, and its pass runs in turn.
func (mgr *bcastManager) retried() {
	if mgr.ti == len(mgr.touched) {
		clear(mgr.touched)
		mgr.touched, mgr.ti = mgr.touched[:0], 0
		mgr.g.Deliveries().Done()
		return
	}
	inst := mgr.touched[mgr.ti]
	mgr.ti++
	inst.touched = false
	mgr.pass.start(inst)
}
