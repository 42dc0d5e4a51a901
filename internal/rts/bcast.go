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
type BroadcastRTS struct {
	reg   *Registry
	costs Costs
	mgrs  []*bcastManager
	ids   *idAlloc

	// span lists the global node ids hosting a manager (ascending), and
	// mgrAt maps a global node id to its index in mgrs (-1 outside the
	// span). A standalone runtime spans every machine and the mapping is
	// the identity; under a Router each sequencer group may span a
	// subset (its replication domain), and machines outside it reach the
	// group through the forwarder RPC (see Router.Invoke).
	span  []int
	mgrAt []int

	// fwdPort is the RPC port serving forwarded operations — distinct
	// per co-hosted shard, since Bind panics on a duplicate.
	fwdPort string

	// fence, set by a Router, handles fence messages appearing in this
	// group's delivery stream (see fence.go).
	fence func(p *sim.Proc, mgr *bcastManager, d group.Delivery, f wireFence)

	// migrate, set by a Router that also hosts the point-to-point
	// domain, handles sequenced migration records — the cut points of online
	// placement changes (see adapt.go).
	migrate func(p *sim.Proc, mgr *bcastManager, uid int64, src int, wm wireMigrate)

	// unbatched lists objects excluded from the write-combining
	// pipeline. Adaptive objects live here: a combined write parked in
	// a worker's buffer across a migration cut would be dropped by the
	// moved replica.
	unbatched map[ObjID]bool

	// batch, when enabled, turns on the write-combining pipeline (see
	// EnableBatching and batch.go).
	batch group.BatchConfig

	// placements maps partially replicated objects to their replica
	// machines; absent means replicated everywhere (see CreateOn).
	placements map[ObjID][]int

	// stats counts straight into the broadcast fields of the unified
	// snapshot; Counters adds the group layer's recovery figures.
	stats RTSStats
}

// System is the interface shared by the runtime systems: each domain
// alone, and the Router over them that the Orca layer builds.
type System interface {
	// Create instantiates a shared object of a registered type and
	// returns its id. It blocks until the creating machine can use
	// the object.
	Create(w *Worker, typeName string, args ...any) ObjID
	// Call performs an operation on a shared object with the
	// sequential-consistency and indivisibility guarantees of the
	// shared data-object model: in are its arguments, the record
	// returned its results. It blocks for guards, locks, and write
	// completion.
	Call(w *Worker, id ObjID, op string, in Args) Args
	// Invoke is Call for a positional argument list, returning the
	// results boxed.
	Invoke(w *Worker, id ObjID, op string, args ...any) []any
	// Nodes reports the machine count.
	Nodes() int
	// PeekState returns a machine's current replica state (nil if the
	// machine holds no copy). It is an inspection hook for tests and
	// experiment harnesses, not part of the programming model.
	PeekState(node int, id ObjID) (State, bool)
}

var _ System = (*BroadcastRTS)(nil)

// invoke is every System's Invoke: the one place a value list becomes a
// record and a record a value list.
func invoke(s System, w *Worker, id ObjID, op string, args []any) []any {
	out := s.Call(w, id, op, ArgsOf(args...))
	return out.Values()
}

// Wire bodies for the group stream.
type (
	wireCreate struct {
		Obj  ObjID
		Type string
		Args []any
	}
	wireOp struct {
		Obj  ObjID
		Op   string
		Args Args
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
// replicas and applies the totally-ordered write stream.
type bcastManager struct {
	rts      *BroadcastRTS
	m        *amoeba.Machine
	g        *group.Member
	insts    []*bcastInstance // by ObjID (see inst); ids are dense and never reused
	waiters  map[int64]*opWaiter
	early    map[int64]Args // completions that beat their waiter
	flights  map[int64]*batchFlight
	instCond *sim.Cond // signalled when a replica is instantiated
	extra    func(node int, body any)

	// touched collects the replicas written since the last frame
	// boundary; the guard-retry sweep runs once per frame over them
	// (see run), which is what batching amortizes.
	touched []*bcastInstance

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

	// thread is the object-manager thread (run). While it is parked,
	// serve applies plain writes on its behalf on the dispatch lane:
	// cur is the write whose CPU charge is in progress there, writtenFn
	// (mgr.written, bound once) its continuation, and applied tells run
	// that the delivery it is handed has been applied already and only
	// its frame boundary is left.
	thread    *sim.Proc
	cur       inlineWrite
	writtenFn func()
	applied   bool

	// Partial replication plumbing (see bcast_partial.go).
	fwdClient *amoeba.Client
}

// bcastInstance is one local replica.
type bcastInstance struct {
	typ     *ObjectType
	state   State
	cond    sim.Cond // wakes guard-blocked readers after each write
	pending []pendingWrite
	touched bool // written since the last frame boundary (see run)
	moved   bool // migrated away at its cut point; writes bounce (see adapt.go)

	ops opCache
}

// op resolves an operation name through the replica's MRU cache.
func (inst *bcastInstance) op(name string) *OpDef { return inst.ops.lookup(inst.typ, name) }

// pendingWrite is a guarded write waiting for its guard, in total
// order position.
type pendingWrite struct {
	uid  int64
	src  int
	op   *OpDef
	args Args
}

// inlineWrite is a resolved write between its CPU charge and its
// application (see serve).
type inlineWrite struct {
	inst *bcastInstance
	op   *OpDef
	uid  int64
	src  int
	args Args
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
// machine. machines[i] and members[i] must be node i.
func NewBroadcastRTS(reg *Registry, costs Costs, machines []*amoeba.Machine, members []*group.Member) *BroadcastRTS {
	span := make([]int, len(machines))
	for i, m := range machines {
		span[i] = m.ID()
	}
	return newBroadcastRTSAt(reg, costs, machines, members, span, fwdPort)
}

// newBroadcastRTSAt builds the runtime over a (possibly partial)
// machine span, binding the forwarder service on the given port.
// machines[i] and members[i] must be node span[i]; span must be
// ascending. A Router builds one per sequencer group.
func newBroadcastRTSAt(reg *Registry, costs Costs, machines []*amoeba.Machine, members []*group.Member, span []int, port string) *BroadcastRTS {
	r := &BroadcastRTS{reg: reg, costs: costs, ids: &idAlloc{}, span: span, fwdPort: port}
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
		mgr.writtenFn = mgr.written
		mgr.g.Deliveries().Serve(mgr.serve)
		mgr.thread = m.SpawnThread("objmgr", mgr.run)
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

// Nodes reports the machine count (span size).
func (r *BroadcastRTS) Nodes() int { return len(r.mgrs) }

// Span reports the global node ids hosting this runtime's replicas.
func (r *BroadcastRTS) Span() []int { return r.span }

// EnableBatching turns on the write-combining pipeline: unguarded
// no-result writes are submitted through per-worker combining buffers
// and leave as multi-op frames (see batch.go). Call before the
// simulation starts. The group members should run the same
// configuration so the sequencer packs frames too.
func (r *BroadcastRTS) EnableBatching(bc group.BatchConfig) { r.batch = bc }

// noBatch excludes an object from the write-combining pipeline (see
// the unbatched field).
func (r *BroadcastRTS) noBatch(id ObjID) {
	if r.unbatched == nil {
		r.unbatched = make(map[ObjID]bool)
	}
	r.unbatched[id] = true
}

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
// manager thread died with it, and the group layer already routes
// around a dead member (electing a new sequencer if necessary) — and
// forwarded operations already skip holders the network reports down,
// so the runtime only counts the crash.
func (r *BroadcastRTS) NodeCrashed(int) { r.stats.Crashes++ }

// Create broadcasts object creation so every machine of the span
// instantiates a replica, and waits until the local replica exists.
func (r *BroadcastRTS) Create(w *Worker, typeName string, args ...any) ObjID {
	return r.CreateOn(w, typeName, nil, args...)
}

// Invoke implements System.
func (r *BroadcastRTS) Invoke(w *Worker, id ObjID, op string, args ...any) []any {
	return invoke(r, w, id, op, args)
}

// Call implements System.
func (r *BroadcastRTS) Call(w *Worker, id ObjID, opName string, in Args) Args {
	mgr := r.mgr(w.Node())
	if mgr == nil {
		panic(fmt.Sprintf("rts: invoke from node %d outside the group span %v (route via the Router)", w.Node(), r.span))
	}
	if pl := r.placement(id); pl != nil && !r.replicatedOn(w.Node(), id) {
		// No local replica: forward the operation to a holder.
		mgr.syncBuf(w)
		return r.forward(w, mgr.fwdClient, id, pl, opName, in)
	}
	inst := mgr.instance(w.P, id)
	op := inst.op(opName)
	if op.Kind == Read {
		return mgr.localRead(w, inst, op, in)
	}
	if pl := r.placement(id); len(pl) == 1 {
		// Single-copy object at its only holder: apply directly, no
		// broadcast needed.
		mgr.syncBuf(w)
		return mgr.directWrite(w, inst, op, in)
	}
	if r.batch.Enabled() && op.NoResult && op.Guard == nil && r.placement(id) == nil && !r.unbatched[id] {
		// Unguarded no-result write under batching: combine. The
		// invoker continues immediately; program order is preserved
		// by the sync points (see batch.go).
		mgr.bufferWrite(w, id, inst, opName, in)
		return Args{}
	}
	// Write: ship the operation through the total order and wait for
	// it to be applied on this machine.
	mgr.syncBuf(w)
	w.Flush()
	r.stats.BcastWrites++
	body := wireOp{Obj: id, Op: opName, Args: in}
	uid := mgr.g.Broadcast(w.P, "rts-op", body, opSize(opName, &in))
	return mgr.await(w.P, uid)
}

// LocalReadState serves the bookkeeping of an unguarded local read —
// statistics and CPU charge, identical to the Invoke read path — and
// exposes the local replica state so a typed caller can apply its
// operation directly, with no argument or result record at all. The
// state must be treated as read-only and not retained. Guarded or
// forwarded reads, and reads of a replica frozen at a migration cut,
// are declined; the caller falls back to Invoke.
func (r *BroadcastRTS) LocalReadState(w *Worker, id ObjID, op *OpDef) (State, bool) {
	if op.Guard != nil {
		return nil, false
	}
	if r.placements != nil {
		if pl := r.placement(id); pl != nil && !r.replicatedOn(w.Node(), id) {
			return nil, false
		}
	}
	mgr := r.mgr(w.Node())
	if mgr == nil {
		return nil, false
	}
	inst := mgr.instance(w.P, id)
	if w.batch != nil && w.batch.holds(inst) {
		w.batch.sync(w) // read-own-write: wait for the buffered writes
	}
	if inst.moved {
		// Frozen at a migration cut (see localRead): decline, so the
		// read takes the Invoke path and bounces to the live placement.
		return nil, false
	}
	r.stats.LocalReads++
	w.Charge(r.costs.readLocal + r.costs.defaultOp)
	return inst.state, true
}

// PeekState implements System.
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
func (mgr *bcastManager) instance(p *sim.Proc, id ObjID) *bcastInstance {
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
func (mgr *bcastManager) inst(id ObjID) *bcastInstance {
	if id < 0 || int(id) >= len(mgr.insts) {
		return nil
	}
	return mgr.insts[id]
}

// setInst installs the local replica of id.
func (mgr *bcastManager) setInst(id ObjID, inst *bcastInstance) {
	for int(id) >= len(mgr.insts) {
		mgr.insts = append(mgr.insts, nil)
	}
	mgr.insts[id] = inst
	mgr.instCond.Broadcast()
}

// localRead performs a read on the local replica: no network traffic,
// just accumulated CPU. Guard-blocked reads wait on the replica's
// condition and re-check after every applied write.
func (mgr *bcastManager) localRead(w *Worker, inst *bcastInstance, op *OpDef, in Args) Args {
	r := mgr.rts
	if op.Guard == nil {
		if w.batch != nil && w.batch.holds(inst) {
			w.batch.sync(w) // read-own-write: wait for the buffered writes
		}
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
	// Guarded: sync first — the guard may depend on the worker's own
	// buffered writes, and suspending with writes unsent could stall
	// the program.
	mgr.syncBuf(w)
	for {
		// Flush before evaluating the guard: flushing blocks on the
		// CPU, and a wakeup that fires while this thread is neither
		// checking the guard nor on the wait queue would be lost.
		// Between the guard check and Wait (or Apply) nothing may
		// block, so costs are accrued, not charged.
		w.Flush()
		if inst.moved {
			// The object migrated away while this reader was guard
			// blocked: no further writes will ever wake it here, so
			// bounce and re-register under the new placement.
			return retry
		}
		w.Accrue(r.costs.guardCheck)
		if !op.Guard(inst.state, in) {
			r.stats.GuardWaits++
			inst.cond.Wait(w.P)
			continue
		}
		r.stats.LocalReads++
		w.Accrue(r.costs.readLocal + r.costs.defaultOp)
		return op.Apply(inst.state, in)
	}
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

// complete finishes a waiting invocation. src is the originating node,
// the only one where anybody waits for uid: a completion with no
// registered waiter yet is buffered there until await claims it. Async
// (combined) ops complete through their batch flight instead of a
// waiter.
func (mgr *bcastManager) complete(p *sim.Proc, uid int64, src int, res Args) {
	if src != mgr.m.ID() || mgr.completeFlight(p, uid) {
		return
	}
	if wt, ok := mgr.waiters[uid]; ok {
		wt.done = true
		wt.res = res
		wt.cond.Broadcast()
		return
	}
	mgr.early[uid] = res
}

// SetExtraHandler installs a callback for group messages the runtime
// does not recognize. The Orca layer uses it to order process creation
// within the same total order as object writes, which is what makes a
// freshly forked process observe all writes its parent issued before
// the fork.
func (r *BroadcastRTS) SetExtraHandler(h func(node int, body any)) {
	for _, mgr := range r.mgrs {
		mgr.extra = h
	}
}

// run is the object-manager thread: it consumes the totally-ordered
// delivery stream and applies creations and writes. Guard retries run
// once per frame, not per op: a write only marks its replica touched,
// and the retry sweep over the touched replicas fires at the frame
// boundary (d.More == false). Frame boundaries are assigned by the
// sequencer and travel with each message, so every replica drains at
// identical points in the total order — which is what keeps
// replicated guard queues deterministic. Unbatched messages are
// single-op frames, reproducing the drain-after-every-write behavior
// exactly.
//
// The goroutine exists because applying a delivery can wait for more
// than the CPU: completing a combined write sends its worker's next
// batch through the group (completeFlight), and a pausing fence waits
// for the other groups' reservations (rec.cond). serve leaves it 4.0 %
// of a replicated kv run's deliveries (creations and the start barrier;
// a plain write never gets here) and 58.4 % of a batched, sharded TSP's:
// go test -run TestRouteShares -v ./internal/orca.
func (mgr *bcastManager) run(p *sim.Proc) {
	for {
		d, ok := mgr.g.Deliveries().Get(p)
		if !ok {
			return
		}
		if mgr.applied {
			mgr.applied = false // by written; the boundary below is ours
		} else {
			mgr.inFrame = d.More
			if !d.Dup {
				mgr.apply(p, d)
			}
			// A Dup record is a re-sequenced duplicate the group layer
			// suppressed: nothing to apply (it completed at its first
			// delivery), but its frame-boundary flag still counts below.
		}
		if !d.More {
			// A frame whose tail op took a non-charging path (a guard
			// queued it, a non-holder skipped it) settles the accrued
			// cost, if any, at the boundary.
			mgr.m.Compute(p, mgr.pendCharge)
			mgr.pendCharge = 0
			mgr.drainTouched(p)
		}
	}
}

// apply dispatches one delivered message.
func (mgr *bcastManager) apply(p *sim.Proc, d group.Delivery) {
	switch body := d.Body.(type) {
	case wireCreate:
		mgr.applyCreate(p, d.UID, d.Src, body)
	case wireOp:
		mgr.applyWrite(p, d.UID, d.Src, body)
	case wireFence:
		if mgr.rts.fence == nil {
			panic("rts: fence delivered to a runtime outside a Router")
		}
		mgr.rts.fence(p, mgr, d, body)
	case wireMigrate:
		if mgr.rts.migrate == nil {
			panic("rts: migrate record delivered to a runtime without adaptive placement")
		}
		mgr.rts.migrate(p, mgr, d.UID, d.Src, body)
	default:
		if mgr.extra == nil {
			panic(fmt.Sprintf("rts: unexpected group message %T", d.Body))
		}
		mgr.extra(mgr.m.ID(), d.Body)
	}
}

// serve is the object manager on the dispatch lane (see
// sim.Queue.Serve): the delivery stream offers it every message before
// the thread, and it takes the one case that makes up nearly all of
// the stream and needs nothing the thread has — an unguarded write to
// a replica that is present and has not migrated away. Everything else
// it declines untouched, and run handles it as ever.
//
// The steps are run's and applyWrite's own, in their order. A
// mid-frame write accrues its cost and applies at once; a frame's last
// write charges the accrued sum as a continuation on the CPU and
// applies in written. What may block after that — guard retries at the
// frame boundary — is left to the thread.
func (mgr *bcastManager) serve(d group.Delivery) sim.Verdict {
	wo, ok := d.Body.(wireOp)
	if !ok || d.Dup || mgr.m.Env().AllThreads {
		return sim.Decline
	}
	inst := mgr.inst(wo.Obj)
	if inst == nil || inst.moved {
		return sim.Decline
	}
	op := inst.op(wo.Op)
	if op.Guard != nil {
		return sim.Decline
	}
	if d.Src == mgr.m.ID() && mgr.rts.batch.Enabled() {
		// Completing a combined write of this machine may send the
		// worker's next batch (see completeFlight).
		return sim.Decline
	}
	if d.More {
		mgr.inFrame = true
		mgr.applyWrite(mgr.thread, d.UID, d.Src, wo)
		return sim.Finished
	}
	cost := mgr.pendCharge + mgr.rts.costs.writeApply + mgr.rts.costs.defaultOp
	mgr.inFrame = false
	mgr.pendCharge = 0
	mgr.cur = inlineWrite{inst: inst, op: op, uid: d.UID, src: d.Src, args: wo.Args}
	mgr.m.ComputeFn(mgr.thread, cost, mgr.writtenFn)
	return sim.Pending
}

// written continues serve once a frame's last write has been charged:
// apply it, then close the frame. A boundary with guard retries to
// make goes to the thread, which charges for them.
func (mgr *bcastManager) written() {
	w := mgr.cur
	mgr.cur = inlineWrite{}
	mgr.applyCharged(mgr.thread, w.inst, w.uid, w.src, w.op, w.args)
	mgr.touch(w.inst)
	for _, inst := range mgr.touched {
		if len(inst.pending) > 0 {
			mgr.applied = true
			mgr.g.Deliveries().Punt()
			return
		}
	}
	mgr.drainTouched(mgr.thread)
	mgr.g.Deliveries().Done()
}

// charge accounts CPU cost for one delivered op: mid-frame costs
// accrue, and the frame's last op charges the accrued sum at once.
func (mgr *bcastManager) charge(p *sim.Proc, d sim.Time) {
	if mgr.inFrame {
		mgr.pendCharge += d
		return
	}
	d += mgr.pendCharge
	mgr.pendCharge = 0
	mgr.m.Compute(p, d)
}

// drainTouched runs the guard-retry sweep over every replica written
// since the last frame boundary.
func (mgr *bcastManager) drainTouched(p *sim.Proc) {
	for i, inst := range mgr.touched {
		inst.touched = false
		mgr.touched[i] = nil
		mgr.drainPending(p, inst)
	}
	mgr.touched = mgr.touched[:0]
}

// applyCreate instantiates the replica (on replica holders only, for
// partially replicated objects).
func (mgr *bcastManager) applyCreate(p *sim.Proc, uid int64, src int, c wireCreate) {
	r := mgr.rts
	if !r.replicatedOn(mgr.m.ID(), c.Obj) {
		mgr.complete(p, uid, src, Args{})
		return
	}
	t := r.reg.Lookup(c.Type)
	mgr.charge(p, r.costs.create)
	mgr.setInst(c.Obj, &bcastInstance{typ: t, state: t.New(c.Args)})
	mgr.complete(p, uid, src, Args{})
}

// applyWrite executes one write from the total order: check the guard
// (queue if false), apply, complete the local invoker, and wake
// guard-blocked readers. The guard-retry sweep over pending writes
// runs at the frame boundary (see run), not here.
func (mgr *bcastManager) applyWrite(p *sim.Proc, uid int64, src int, wo wireOp) {
	r := mgr.rts
	inst := mgr.inst(wo.Obj)
	if inst == nil {
		if !mgr.rts.replicatedOn(mgr.m.ID(), wo.Obj) {
			return // not a replica holder: the write does not apply here
		}
		panic(fmt.Sprintf("rts: write to unknown object %d on node %d", wo.Obj, mgr.m.ID()))
	}
	if inst.moved {
		// The object migrated away at an earlier position in the total
		// order: bounce, so the invoker re-issues under the new
		// placement (see adapt.go).
		mgr.complete(p, uid, src, retry)
		return
	}
	op := inst.op(wo.Op)
	if op.Guard != nil {
		mgr.charge(p, r.costs.guardCheck)
		if !op.Guard(inst.state, wo.Args) {
			inst.pending = append(inst.pending, pendingWrite{uid: uid, src: src, op: op, args: wo.Args})
			return
		}
	}
	mgr.execWrite(p, inst, uid, src, op, wo.Args)
	mgr.touch(inst)
}

// touch enters a written replica into the frame's guard-retry sweep.
func (mgr *bcastManager) touch(inst *bcastInstance) {
	if !inst.touched {
		inst.touched = true
		mgr.touched = append(mgr.touched, inst)
	}
}

// execWrite charges for and applies one write to the replica.
func (mgr *bcastManager) execWrite(p *sim.Proc, inst *bcastInstance, uid int64, src int, op *OpDef, args Args) {
	mgr.charge(p, mgr.rts.costs.writeApply+mgr.rts.costs.defaultOp)
	mgr.applyCharged(p, inst, uid, src, op, args)
}

// applyCharged applies a write whose cost has been accounted, completes
// its invoker if that is a thread of this machine, and wakes
// guard-blocked readers.
func (mgr *bcastManager) applyCharged(p *sim.Proc, inst *bcastInstance, uid int64, src int, op *OpDef, args Args) {
	res := op.Apply(inst.state, args)
	mgr.complete(p, uid, src, res)
	inst.cond.Broadcast()
}

// drainPending retries queued guarded writes in arrival (sequence)
// order after each state change, looping until none can run. Every
// replica performs the identical retry sequence, preserving
// determinism.
//
// Each round is a single order-preserving sweep that fires true guards
// in place and compacts the survivors — no per-fire slice copy and no
// restart from index 0. The guard-evaluation discipline is preserved:
// an entry is only declared stuck once its guard was evaluated (and
// charged) against the state left by the most recent fired write.
// stale counts the leading kept entries whose last evaluation predates
// the round's last fire; only those need the next round. When a fired
// write enables at most one other pending write (every std type: a
// queue add enables one get, a close enables all gets at once), the
// charge sequence and firing order are identical to the restart-scan
// this replaces — the pinned golden fingerprints prove it for the
// reproduced workloads. With 3+ mutually-enabling pending writes on
// one object the sweep evaluates the enabled suffix before re-checking
// the prefix, where the restart-scan re-checked the prefix first; both
// orders are deterministic and arrival-order-fair, but they are not
// charge-for-charge identical in that corner.
func (mgr *bcastManager) drainPending(p *sim.Proc, inst *bcastInstance) {
	r := mgr.rts
	for stale := len(inst.pending); stale > 0; {
		kept := inst.pending[:0]
		fired := false
		nextStale := 0
		for i := range inst.pending {
			pw := inst.pending[i]
			if i >= stale && !fired {
				// Already evaluated against the current state and no
				// fire since: keep without re-charging a guard check.
				kept = append(kept, pw)
				continue
			}
			mgr.m.Compute(p, r.costs.guardCheck)
			if pw.op.Guard(inst.state, pw.args) {
				mgr.execWrite(p, inst, pw.uid, pw.src, pw.op, pw.args)
				fired = true
				nextStale = len(kept)
			} else {
				kept = append(kept, pw)
			}
		}
		clear(inst.pending[len(kept):])
		inst.pending = kept
		stale = nextStale
	}
}
