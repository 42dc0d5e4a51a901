package rts

import (
	"fmt"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/sim"
)

// BroadcastRTS is the paper's §3.2.1 runtime system, used when the
// network supports (reliable, totally-ordered) broadcasting. Every
// object is replicated on all machines. Reads are performed directly
// on the local replica, bypassing the object manager. Writes ship the
// operation code and parameters through the group layer; every
// machine's object manager applies incoming writes in strict sequence
// order, which enforces sequential consistency.
//
// Guarded writes whose guard is false at their position in the total
// order are queued and deterministically retried after each subsequent
// write — identically on every replica, so replicas never diverge.
//
// A BroadcastRTS is sequencer group k of its Router, which holds the
// object table and the settings every group shares.
type BroadcastRTS struct {
	router *Router
	k      int
	reg    *Registry
	costs  Costs
	mgrs   []*bcastManager

	// span lists the global node ids hosting a manager (ascending), and
	// mgrAt maps a global node id to its index in mgrs (-1 outside the
	// span). A group built alone spans every machine and the mapping is
	// the identity; under a Router each sequencer group may span a
	// subset (its replication domain), and machines outside it forward
	// their operations to a holder inside it (see Call).
	span  []int
	mgrAt []int

	// fwdPort is the RPC port serving forwarded operations — distinct
	// per co-hosted shard, since Bind panics on a duplicate.
	fwdPort string

	// stats counts straight into the broadcast fields of the unified
	// snapshot; Counters adds the group layer's recovery figures.
	stats RTSStats
}

// opKind is the kind of a write's group message, which carries the
// operation inline (group.Msg's Obj, Op and Args) and has no body.
const opKind = "rts-op"

// Wire bodies for the group stream.
type (
	wireCreate struct {
		Obj  ObjID
		Type string
		Args []any
	}
	// wireMigrate is a sequenced placement change: the delivery
	// position is the migration's cut point. Target is the new primary
	// machine, or -1 when the object migrates into the broadcast
	// runtime, in which case State carries the snapshot every member
	// clones into a fresh replica.
	wireMigrate struct {
		Obj    ObjID
		Target int
		State  State
	}
)

// bcastManager is the per-machine object manager: it owns the local
// replicas and applies the totally-ordered write stream, as a consumer
// of the delivery stream with no process behind it (see serve).
type bcastManager struct {
	rts      *BroadcastRTS
	m        *amoeba.Machine
	g        *group.Member
	c        *sim.Proc  // the claimant the manager serves as
	insts    []*replica // by ObjID (see inst); ids are dense and never reused
	waiters  map[int64]*opWaiter
	early    map[int64]Args // completions that beat their waiter
	flights  map[int64]*batchFlight
	instCond *sim.Cond // signalled when a replica is instantiated

	// touched collects the replicas written since the last frame
	// boundary, and the boundary runs a guard-retry pass over each (see
	// serve), which is what batching amortizes: ti is the next to go.
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

	// wfree recycles opWaiter records: one is needed per in-flight
	// write, and steady state has a tiny number in flight.
	wfree []*opWaiter

	// The delivery in service (see serve): d itself, and the write being
	// applied, cur on curInst; the continuations are bound once.
	d                                group.Delivery
	curInst                          *replica
	cur                              pendingOp
	boundaryFn, createdFn, guardedFn func()
	writtenFn, wakeFn, settledFn     func()
}

// opWaiter lets the invoking thread sleep until its own write has been
// applied locally (which, given total order, is the linearization
// point visible to it).
type opWaiter struct {
	cond sim.Cond
	done bool
	res  Args
}

// NewBroadcastRTS builds the runtime over one group member per
// machine: the one group of a Router built for it. machines[i] and
// members[i] must be node i.
func NewBroadcastRTS(reg *Registry, costs Costs, machines []*amoeba.Machine, members []*group.Member) *BroadcastRTS {
	span := make([]int, len(machines))
	for i, m := range machines {
		span[i] = m.ID()
	}
	return NewRouter(reg, costs, machines, []GroupDef{{Members: members, Span: span}}, nil, false).groups[0]
}

// newBroadcastRTS builds sequencer group k of the router over a
// (possibly partial) machine span, binding the forwarder service on a
// port of the group's own. machines[i] and members[i] must be node
// span[i]; span must be ascending.
func newBroadcastRTS(router *Router, k int, reg *Registry, costs Costs, machines []*amoeba.Machine, members []*group.Member, span []int) *BroadcastRTS {
	r := &BroadcastRTS{router: router, k: k, reg: reg, costs: costs, span: span, fwdPort: fmt.Sprintf("%s%d", fwdPort, k)}
	total := 0
	for _, m := range machines {
		if n := m.Net().Nodes(); n > total {
			total = n
		}
	}
	r.mgrAt = make([]int, total)
	for i := range r.mgrAt {
		r.mgrAt[i] = -1
	}
	for i, m := range machines {
		if m.ID() != span[i] {
			panic(fmt.Sprintf("rts: span machine mismatch (node %d at span slot %d)", m.ID(), span[i]))
		}
		r.mgrAt[m.ID()] = i
		mgr := &bcastManager{
			rts:      r,
			m:        m,
			g:        members[i],
			waiters:  make(map[int64]*opWaiter),
			early:    make(map[int64]Args),
			flights:  make(map[int64]*batchFlight),
			instCond: sim.NewCond(m.Env()),
		}
		r.mgrs = append(r.mgrs, mgr)
		mgr.boundaryFn, mgr.createdFn, mgr.guardedFn = mgr.boundary, mgr.created, mgr.guarded
		mgr.writtenFn, mgr.wakeFn, mgr.settledFn = mgr.written, mgr.wake, mgr.retried
		mgr.c = m.Claimant("objmgr")
		mgr.pass.init(m, mgr.c, costs.guardCheck, mgr)
		mgr.g.Deliveries().Serve(mgr.c, mgr.serve)
	}
	r.startForwarders(machines)
	return r
}

// mgr returns the object manager on a node, nil outside the span.
func (r *BroadcastRTS) mgr(node int) *bcastManager {
	if node < 0 || node >= len(r.mgrAt) {
		return nil
	}
	i := r.mgrAt[node]
	if i < 0 {
		return nil
	}
	return r.mgrs[i]
}

// Span reports the global node ids hosting this runtime's replicas.
func (r *BroadcastRTS) Span() []int { return r.span }

// Counters returns the unified counter snapshot.
func (r *BroadcastRTS) Counters() RTSStats {
	st := r.stats
	// Sequencer-recovery counters live in the group members below the
	// runtime: elections and takeovers by max (survivors observe the
	// same logical recovery), re-proposals by sum, recovery time as
	// the worst member's outage.
	for _, mgr := range r.mgrs {
		gs := mgr.g.Stats()
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

// NodeCrashed tells the domain a machine died. The replicated core
// needs no repair — the dead machine's replicas, guard waiters, and
// manager died with it, and the group layer already routes
// around a dead member (electing a new sequencer if necessary) — and
// forwarded operations already skip holders the network reports down,
// so the runtime only counts the crash.
func (r *BroadcastRTS) NodeCrashed(int) { r.stats.Crashes++ }

// Create broadcasts object creation so every machine of the span
// instantiates a replica, and waits until the local replica exists. It
// stays for bench/rungs.go; the Router creates through CreateOn.
func (r *BroadcastRTS) Create(w *Worker, typeName string, args ...any) ObjID {
	return r.CreateOn(w, typeName, nil, args...)
}

// Invoke is Call for a positional argument list, returning the results
// boxed. It stays for bench/rungs.go, which drives a group built by
// NewBroadcastRTS directly; programs reach Call through the typed
// descriptors and the Router.
func (r *BroadcastRTS) Invoke(w *Worker, id ObjID, op string, args ...any) []any {
	out := r.Call(w, id, op, ArgsOf(args...))
	return out.Values()
}

// Call performs an operation on a shared object with the
// sequential-consistency and indivisibility guarantees of the shared
// data-object model: in are its arguments, the record returned its
// results. It blocks for guards and write completion. It is the one
// place that decides where the operation runs: a machine holding no
// replica — outside the group's span or outside the object's replica
// set — forwards it to a holder.
func (r *BroadcastRTS) Call(w *Worker, id ObjID, opName string, in Args) Args {
	e := r.router.entry(id)
	nodes, adapt := e.nodes, e.adapt // copied: the table may grow while this blocks
	if !r.replicatedOn(w.Node(), id) {
		w.SyncShared()
		return r.forward(w, id, opName, in)
	}
	mgr := r.mgr(w.Node())
	inst := mgr.instance(w.P, id)
	op := inst.op(opName)
	if r.router.batch.Enabled() && op.Kind == Write && op.NoResult && op.Guard == nil && nodes == nil && adapt == nil {
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
	if op.Kind == Read {
		return mgr.localRead(w, inst, op, in)
	}
	if len(nodes) == 1 {
		// Single-copy object at its only holder: apply directly, no
		// broadcast needed.
		return mgr.directWrite(w, inst, op, in)
	}
	// Write: ship the operation through the total order and wait for
	// it to be applied on this machine.
	w.Flush()
	r.stats.BcastWrites++
	uid := mgr.g.BroadcastMsg(w.P, group.Msg{Kind: opKind, Obj: int64(id), Op: opName, Args: in, Size: opSize(opName, &in)})
	return mgr.await(w.P, uid)
}

// PeekState returns a machine's current replica state (nil if the
// machine holds no copy): an inspection hook for tests and experiment
// harnesses, not part of the programming model.
func (r *BroadcastRTS) PeekState(node int, id ObjID) (State, bool) {
	mgr := r.mgr(node)
	if mgr == nil {
		return nil, false
	}
	inst := mgr.inst(id)
	if inst == nil {
		return nil, false
	}
	return inst.state, true
}

// PendingWrites reports how many guarded writes are queued on a
// machine's replica; exposed for tests.
func (r *BroadcastRTS) PendingWrites(node int, id ObjID) int {
	mgr := r.mgr(node)
	if mgr == nil {
		return 0
	}
	inst := mgr.inst(id)
	if inst == nil {
		return 0
	}
	return len(inst.pending)
}

// instance returns the local replica, waiting for the creation
// broadcast if it has not arrived yet (a freshly forked worker can
// race the create message).
func (mgr *bcastManager) instance(p *sim.Proc, id ObjID) *replica {
	for {
		if inst := mgr.inst(id); inst != nil {
			return inst
		}
		mgr.instCond.Wait(p)
	}
}

// inst returns the local replica of id, nil if there is none (yet). The
// replicas sit in a table indexed by object id: ids come from one
// allocator, counting up from 1, and a replica is replaced (see
// handleMigrate) but never removed.
func (mgr *bcastManager) inst(id ObjID) *replica {
	if id < 0 || int(id) >= len(mgr.insts) {
		return nil
	}
	return mgr.insts[id]
}

// setInst installs the local replica of id.
func (mgr *bcastManager) setInst(id ObjID, inst *replica) {
	for int(id) >= len(mgr.insts) {
		mgr.insts = append(mgr.insts, nil)
	}
	mgr.insts[id] = inst
	mgr.instCond.Broadcast()
}

// localRead performs a read on the local replica: no network traffic,
// just accumulated CPU. Guard-blocked reads wait on the replica's
// condition and re-check after every applied write.
func (mgr *bcastManager) localRead(w *Worker, inst *replica, op *OpDef, in Args) Args {
	r := mgr.rts
	if op.Guard == nil {
		if inst.moved {
			// The object migrated away and this replica is frozen at
			// the cut. A first-migration read here would still be a
			// consistent prefix, but after the object has round-tripped
			// the frozen state is arbitrarily stale — bounce, and let
			// the mixed router wait for the live placement.
			return retry
		}
		r.stats.LocalReads++
		w.Charge(r.costs.readLocal + r.costs.defaultOp)
		return op.Apply(inst.state, in)
	}
	if !awaitGuard(w, inst, op, in, r.costs.guardCheck, &r.stats.GuardWaits) {
		// The object migrated away while this reader was guard blocked:
		// no further writes will ever wake it here, so bounce and
		// re-register under the new placement.
		return retry
	}
	r.stats.LocalReads++
	w.Accrue(r.costs.readLocal + r.costs.defaultOp)
	return op.Apply(inst.state, in)
}

// await blocks until the manager applies the message with this uid
// locally and returns its results. The apply can race ahead of the
// invoker (broadcasting blocks on the CPU, and the manager may apply
// the local delivery meanwhile), so completions that arrive before the
// waiter registers are buffered in mgr.early.
func (mgr *bcastManager) await(p *sim.Proc, uid int64) Args {
	if res, done := mgr.early[uid]; done {
		delete(mgr.early, uid)
		return res
	}
	var wt *opWaiter
	if n := len(mgr.wfree); n > 0 {
		wt = mgr.wfree[n-1]
		mgr.wfree = mgr.wfree[:n-1]
	} else {
		wt = &opWaiter{}
	}
	mgr.waiters[uid] = wt
	for !wt.done {
		wt.cond.Wait(p)
	}
	delete(mgr.waiters, uid)
	res := wt.res
	wt.done, wt.res = false, Args{}
	mgr.wfree = append(mgr.wfree, wt)
	return res
}

// sequence is Broadcast and await in continuation form, in p's name: k
// runs once the local delivery of body has been applied.
func (mgr *bcastManager) sequence(p *sim.Proc, kind string, body any, size int, k func()) {
	var uids []int64
	mgr.g.BroadcastBatchFn(p, []group.Msg{{Kind: kind, Body: body, Size: size}}, &uids, func() {
		wt := &opWaiter{}
		if _, wt.done = mgr.early[uids[0]]; !wt.done {
			mgr.waiters[uids[0]] = wt
		}
		until(&wt.cond, p, func() bool { return wt.done }, func() {
			delete(mgr.early, uids[0])
			delete(mgr.waiters, uids[0])
			k()
		})
	})
}

// until runs k in p's name once done() holds, re-checking it at every
// wake-up of c: the continuation form of
//
//	for !done() {
//		c.Wait(p)
//	}
func until(c *sim.Cond, p *sim.Proc, done func() bool, k func()) {
	if done() {
		k()
		return
	}
	c.WaitFn(p, func() { until(c, p, done, k) })
}

// complete finishes a waiting invocation. src is the originating node,
// the only one where anybody waits for uid: a completion with no
// registered waiter yet is buffered there until await claims it. Async
// (combined) ops complete through their batch flight instead of a
// waiter; complete returns the combining buffer whose next batch the
// completion of its flight lets go, if any, and the caller sends it
// (see written). Only an unguarded write of a combining worker has a
// flight.
func (mgr *bcastManager) complete(uid int64, src int, res Args) *writeBuf {
	if src != mgr.m.ID() {
		return nil
	}
	if fl, ok := mgr.flights[uid]; ok {
		return mgr.completeFlight(uid, fl)
	}
	if wt, ok := mgr.waiters[uid]; ok {
		wt.done = true
		wt.res = res
		wt.cond.Broadcast()
		return nil
	}
	mgr.early[uid] = res
	return nil
}

// serve is the object manager: the consumer of the totally-ordered
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
func (mgr *bcastManager) serve(d group.Delivery) {
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
	case wireFence:
		mgr.rts.router.handleFence(mgr, d, body, mgr.boundaryFn)
	case wireMigrate:
		mgr.rts.router.handleMigrate(mgr, d.UID, d.Src, body, mgr.boundaryFn)
	default:
		extra := mgr.rts.router.extra
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
	d := mgr.pendCharge
	mgr.pendCharge = 0
	mgr.m.ComputeFn(mgr.c, d, mgr.settledFn)
}

// charge accounts CPU cost for one delivered op and then runs k:
// mid-frame costs accrue, and the frame's last op charges the accrued
// sum at once.
func (mgr *bcastManager) charge(d sim.Time, k func()) {
	if mgr.inFrame {
		mgr.pendCharge += d
		k()
		return
	}
	d += mgr.pendCharge
	mgr.pendCharge = 0
	mgr.m.ComputeFn(mgr.c, d, k)
}

// applyCreate instantiates the replica (on replica holders only, for
// partially replicated objects).
func (mgr *bcastManager) applyCreate(uid int64, src int, c wireCreate) {
	r := mgr.rts
	if !r.replicatedOn(mgr.m.ID(), c.Obj) {
		mgr.complete(uid, src, Args{})
		mgr.boundary()
		return
	}
	mgr.charge(r.costs.create, mgr.createdFn)
}

// created continues applyCreate once the creation has been charged.
func (mgr *bcastManager) created() {
	c := mgr.d.Body.(wireCreate)
	t := mgr.rts.reg.Lookup(c.Type)
	mgr.setInst(c.Obj, newReplica(t, t.New(c.Args)))
	mgr.complete(mgr.d.UID, mgr.d.Src, Args{})
	mgr.boundary()
}

// applyWrite executes the write the delivery in service carries, obj's
// operation opName with args, from the total order: check the guard
// (park it if false), apply, complete the local invoker, and wake
// guard-blocked readers. The guard-retry pass over parked writes runs
// at the frame boundary (see serve), not here.
func (mgr *bcastManager) applyWrite(obj ObjID, opName string, args Args) {
	inst := mgr.inst(obj)
	if inst == nil {
		if !mgr.rts.replicatedOn(mgr.m.ID(), obj) {
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
	op := inst.op(opName)
	mgr.curInst, mgr.cur = inst, pendingOp{op: op, args: args, uid: d.UID, src: d.Src}
	if op.Guard != nil {
		mgr.charge(mgr.rts.costs.guardCheck, mgr.guardedFn)
		return
	}
	mgr.charge(mgr.rts.costs.writeApply+mgr.rts.costs.defaultOp, mgr.writtenFn)
}

// guarded continues applyWrite once the guard check has been charged.
func (mgr *bcastManager) guarded() {
	inst, w := mgr.curInst, &mgr.cur
	if !w.op.Guard(inst.state, w.args) {
		inst.pending = append(inst.pending, *w)
		mgr.boundary()
		return
	}
	mgr.charge(mgr.rts.costs.writeApply+mgr.rts.costs.defaultOp, mgr.writtenFn)
}

// fire applies a parked write whose guard holds now (see retrier); the
// round goes on after it (see wake).
func (mgr *bcastManager) fire(inst *replica, po pendingOp) {
	mgr.curInst, mgr.cur = inst, po
	mgr.charge(mgr.rts.costs.writeApply+mgr.rts.costs.defaultOp, mgr.writtenFn)
}

// written applies mgr.cur, whose cost has been accounted, and completes
// its invoker if that is a thread of this machine. A completion that
// ends a combined batch's flight sends the worker's next batch, the
// pipeline's steady state (see completeFlight), before the write's
// guard-blocked readers wake.
func (mgr *bcastManager) written() {
	w := &mgr.cur
	res := w.op.Apply(mgr.curInst.state, w.args)
	if b := mgr.complete(w.uid, w.src, res); b != nil {
		b.flushFn(mgr.c, mgr.wakeFn)
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
