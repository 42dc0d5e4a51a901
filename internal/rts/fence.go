package rts

import (
	"fmt"
	"slices"

	"repro/internal/group"
	"repro/internal/sim"
)

// Cross-group ordering. Sequencer groups order their own objects
// independently; operations that must be ordered against several of
// them at once (forks, multi-object transactions) stay deterministic
// through a sequenced fence: a two-phase "reserve a slot in every
// touched group in ascending group order, release when the last
// reservation delivers" barrier (see InvokeFenced and ForkFence).

// FencedOp is one write of a fenced invocation (see
// InvokeFenced).
type FencedOp struct {
	ID   ObjID
	Op   string
	Args Args
}

// wireFence is the fence message sequenced into every covered shard's
// stream: one record per fence, carved from the run's tables and shared
// by every shard's message, never written once sent. A pausing fence
// (Pause) carries the fenced writes; a barrier fence carries an opaque
// body handed to the extra handler on the target machine when the last
// covered shard delivers there.
type wireFence struct {
	FID    int64
	Shards []int // covered shards, ascending
	Target int   // barrier: machine whose extra handler fires (-1: pausing)
	Body   any   // barrier payload
	Ops    []FencedOp
	Pause  bool
}

// fenceRec tracks one fence's arrivals on one machine.
type fenceRec struct {
	expect  int // covered shards spanning this machine
	arrived int
	src     int // initiating machine (pausing fences; -1 until known)
	done    bool
	cond    sim.Cond
}

// fenceAbortGrace is how long a pausing fence whose initiator crashed
// may stay incomplete before it is presumed aborted. The grace must
// exceed the sequencing latency of the initiator's last in-flight
// reservation broadcast: after that long, a still-missing arrival can
// only mean the initiator died between reservations and the fence can
// never complete.
const fenceAbortGrace = 250 * sim.Millisecond

// presumeAbort scans for pausing fences initiated by the crashed
// machine and, if any are still incomplete after fenceAbortGrace,
// releases the shards they paused without applying the fenced writes.
// The decision is made once, globally — modelling the abort record a
// real shard sequencer would time out and broadcast, without
// simulating its messages (the same modelling rehome uses for the
// point-to-point recovery round). A single global decision point keeps
// the outcome consistent: a fence either executes on every machine or
// on none.
func (r *Router) presumeAbort(node int) {
	if r.fenceSeq == 0 {
		return // no fence was ever issued: nothing to watch
	}
	// The watch is the environment's, not a thread of a machine that
	// might crash inside the grace. The scan waits out the grace rather
	// than running at the crash instant: the initiator's last reservation
	// broadcast may still be in flight when the machine dies, so its
	// record only shows up in the fence tables after delivery. A fence
	// found incomplete this long after the crash can never complete — a
	// fully sequenced fence finishes on every machine within normal
	// delivery latency of the crash, far inside the grace.
	env := r.machines[0].Env()
	env.After(fenceAbortGrace, func() {
		var fids []int64
		for key, rec := range r.fences {
			if rec.src == node && !rec.done && !slices.Contains(fids, key.fid) {
				fids = append(fids, key.fid)
			}
		}
		slices.Sort(fids)
		for _, fid := range fids {
			put(&r.fenceAborted, fid, true)
			for i := range r.machines {
				if rec, ok := r.fences[fenceKey{i, fid}]; ok {
					rec.done = true
					rec.cond.Broadcast()
					delete(r.fences, fenceKey{i, fid})
				}
			}
			env.Tracef("rts: fence %d presumed aborted (initiator %d crashed mid-reservation)", fid, node)
		}
	})
}

// fenceKey names one machine's record of a fence.
type fenceKey struct {
	node int
	fid  int64
}

// fenceRec returns (or installs) the machine's record for a fence,
// carved from the run's tables, expecting one arrival per covered shard
// whose span contains the machine.
func (r *Router) fenceRec(node int, f *wireFence) *fenceRec {
	if rec, ok := r.fences[fenceKey{node, f.FID}]; ok {
		return rec
	}
	expect := 0
	for _, k := range f.Shards {
		if r.groups[k].mgr(node) != nil {
			expect++
		}
	}
	rec := sim.Carve(r.machines[node].Env(), fenceRec{expect: expect, src: -1})
	put(&r.fences, fenceKey{node, f.FID}, rec)
	return rec
}

// handleFence consumes one fence delivery from a group's stream (as
// part of the delivering manager's service) and then runs k.
//
// Barrier fences only matter at the target machine: the last covered
// shard's delivery there fires the extra handler with the payload, so
// the payload (a fork) observes every write sequenced before the fence
// in every covered shard.
//
// Pausing fences first acknowledge the initiator's reservation (the
// uid completion InvokeFenced awaits), then every covered shard but
// the last PAUSES its delivery stream on this machine — nothing
// sequenced after the fence in that shard may apply before the fenced
// writes: the manager's service waits on the fence's record, k in its
// claimant's name. The last arrival executes the fenced writes against
// the local replicas and releases the paused shards. Reservation in
// ascending shard order plus ack-before-pause makes concurrent fences
// acquire their shards in a consistent order, so two fences can never
// pause each other's completion path (see DESIGN.md).
func (r *Router) handleFence(mgr *bcastManager, d group.Delivery, f *wireFence, k sim.Firer) {
	node := mgr.m.ID()
	if !f.Pause {
		if node == f.Target {
			rec := r.fenceRec(node, f)
			rec.arrived++
			if rec.arrived == rec.expect {
				delete(r.fences, fenceKey{node, f.FID})
				if r.extra != nil {
					r.extra(node, f.Body)
				}
			}
		}
		k.Fire()
		return
	}
	mgr.complete(d.UID, d.Src, Args{})
	if r.fenceAborted[f.FID] {
		// Presumed aborted: a straggling delivery applies nothing and
		// must not pause the stream again.
		k.Fire()
		return
	}
	rec := r.fenceRec(node, f)
	rec.src = d.Src
	rec.arrived++
	if rec.arrived < rec.expect {
		until(&rec.cond, mgr.c, func() bool { return rec.done }, k)
		return
	}
	r.execFence(mgr, f, 0, func() {
		rec.done = true
		rec.cond.Broadcast()
		delete(r.fences, fenceKey{node, f.FID})
		k.Fire()
	})
}

// execFence applies the fenced writes from the i-th on on this machine,
// in op order, each against its owning shard's replica, and then runs
// k. Costs charge through the delivering manager's frame accounting;
// touched replicas join their OWNING manager's guard-retry sweep, which
// runs at that manager's next frame boundary (its own delivery of this
// fence, at the latest).
func (r *Router) execFence(mgr *bcastManager, f *wireFence, i int, k func()) {
	node := mgr.m.ID()
	for ; i < len(f.Ops); i++ {
		fo := &f.Ops[i]
		sub := r.groups[r.objs[fo.ID].dom]
		if !sub.replicatedOn(node, fo.ID) {
			continue
		}
		inst := mgr.mg.seqCopy(fo.ID)
		if inst == nil {
			panic(fmt.Sprintf("rts: fenced write to unknown object %d on node %d", fo.ID, node))
		}
		op := r.op(fo.ID, fo.Op)
		mgr.charge(r.costs.apply(), sim.Func(func() {
			inst.apply(mgr.m.Env(), op, fo.Args)
			sub.mgr(node).touch(inst)
			r.execFence(mgr, f, i+1, k)
		}))
		return
	}
	k()
}

// InvokeFenced applies several write operations — possibly on objects
// in different sequencer groups — as one atomic, deterministically
// ordered step: on every machine, all of the writes apply at the same
// point of every covered group's stream, and no operation sequenced
// after the fence in any covered group observes a partial application.
// The two-phase protocol reserves a slot in every covered group in
// ascending group order (waiting for each reservation's local delivery
// before the next) and releases when the last covered group delivers.
//
// The operations must be unguarded writes on replicated objects with a
// fixed placement (a primary copy has no stream to pause, and an
// adaptive object could leave its group mid-fence); results are
// discarded. The invoking machine must lie in every covered group's
// span. Every operation is checked before the first reservation, so an
// error means nothing was sequenced. The call returns once the writes
// have applied locally, so the invoker's subsequent reads observe them.
// An initiator that crashes between reservations is presumed aborted:
// the already-reserved groups stay paused for fenceAbortGrace and are
// then released without applying any of the fenced writes, so the fence
// is all-or-nothing under crashes too (see presumeAbort).
func (r *Router) InvokeFenced(w *Worker, ops []FencedOp) error {
	if len(ops) == 0 {
		return nil
	}
	node := w.Node()
	var shards []int
	size := 16
	for i := range ops {
		fo := &ops[i]
		e := r.entry(fo.ID)
		if e.dom == domP2P || e.adapt != nil {
			return fmt.Errorf("fenced op on object %d, which is primary-copy or adaptive; fences order replicated objects", fo.ID)
		}
		if r.groups[e.dom].mgr(node) == nil {
			return fmt.Errorf("fenced op on object %d from node %d outside sequencer group %d's span", fo.ID, node, e.dom)
		}
		op := r.op(fo.ID, fo.Op) // the type's: a machine outside the replica set has no replica to read it from
		if op.Kind == Read || op.Guard != nil {
			return fmt.Errorf("fenced operation %s is a read or guarded; fences carry unguarded writes", fo.Op)
		}
		size += opSize(fo.Op, &fo.Args)
		if !slices.Contains(shards, e.dom) {
			shards = append(shards, e.dom)
		}
	}
	slices.Sort(shards)
	w.SyncShared() // program order reaches every group before the fence
	w.Flush()
	r.fenceSeq++
	f := sim.Carve(w.P.Env(), wireFence{FID: r.fenceSeq, Shards: shards, Target: -1, Ops: ops, Pause: true})
	rec := r.fenceRec(node, f)
	for _, k := range shards {
		r.groups[k].mgr(node).sequenced(w.P, group.Msg{Kind: "rts-fence", Body: f, Size: size})
	}
	for !rec.done {
		rec.cond.Wait(w.P)
	}
	r.stats.FencedOps += int64(len(ops))
	return nil
}

// ForkFence sequences body — a message for the target machine's extra
// handler, the Orca layer's fork — after every write the invoker has
// sequenced, in every group spanning both machines. With one group in
// all, body itself joins that group's total order under the given
// kind; with several, it travels as a barrier fence broadcast into
// every covering group, and the extra handler fires on the target once
// the LAST of them delivers there. It reports false when no group spans
// both machines (disjoint replication domains, or no broadcast hardware
// at all) — the caller falls back to a kernel message, accepting the
// weaker ordering a plain point-to-point fork has.
func (r *Router) ForkFence(w *Worker, target int, kind string, body any, size int) bool {
	node := w.Node()
	gap := func(k int) bool { return r.groups[k].mgr(node) == nil || r.groups[k].mgr(target) == nil }
	shards := r.every // a full-span fork's shards: every group
	if slices.ContainsFunc(shards, gap) {
		shards = slices.DeleteFunc(slices.Clone(shards), gap)
	}
	if len(shards) == 0 {
		return false
	}
	if len(r.groups) == 1 {
		r.groups[0].mgr(node).g.Broadcast(w.P, kind, body, size)
		return true
	}
	r.fenceSeq++
	f := sim.Carve(w.P.Env(), wireFence{FID: r.fenceSeq, Shards: shards, Target: target, Body: body})
	for _, k := range shards {
		r.groups[k].mgr(node).g.Broadcast(w.P, "rts-fence", f, size+16)
	}
	return true
}
