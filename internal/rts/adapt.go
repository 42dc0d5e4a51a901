package rts

import (
	"fmt"

	"repro/internal/group"
	"repro/internal/sim"
)

// Adaptive placement: objects that re-place themselves under live
// traffic. The paper argues the compiler/RTS should pick each object's
// implementation (replicated vs single-copy) from observed access
// patterns; PR 3 made that choice per object but froze it at creation.
// This file adds the per-object placement controller and the
// deterministic migration protocol that moves an object between its
// home sequencer group (replicated on the group's span) and a primary
// copy mid-run: a change of the object's orderer. Only
// machines in the home group's span drive a migration or become the
// object's primary; an object never changes its home group.
//
// The cut point for a broadcast<->primary transition is a sequenced
// migrate record through the home group's total order: every member
// switches routing at the same position in the order, invocations
// sequenced before the record complete under the old placement, and
// invocations sequenced after it bounce with a retry status in place of
// a result and re-issue under the new placement. Guard waiters parked
// on the old placement are bounced the same way, so they re-register on
// the new one. Primary re-homing (p2p -> p2p) uses the object's own
// serialization point — the primary's task queue — as its cut.
// DESIGN.md ("Adaptive placement") gives the full argument for why
// sequential consistency holds mid-flight and why double runs stay
// bit-identical.

// statusRetry is the bounce: an invocation that reaches an object's old
// placement after the migration cut completes with this status on an
// empty result record, and the Router's Call loop re-issues the
// operation under the new placement. No operation can produce it: an
// Apply never sets a status.
const statusRetry = 1

// retry is the bounced result.
var retry = Args{Status: statusRetry}

// isRetry reports whether an invocation bounced.
func isRetry(res Args) bool { return res.Status == statusRetry }

// AdaptConfig parameterizes the placement controller. A field left zero
// takes the default its comment names.
type AdaptConfig struct {
	// SampleEvery is how many accesses accumulate between placement
	// decisions (the statistics window). Default 64.
	SampleEvery int
	// MinDwell is the minimum virtual time between two migrations of
	// the same object — the hysteresis that prevents flapping.
	// Default 20ms.
	MinDwell sim.Time
	// WriteHeavyFrac: a replicated object whose EWMA write fraction
	// reaches this (and has a dominant writer) becomes a primary copy.
	// Default 0.35.
	WriteHeavyFrac float64
	// ReadHeavyFrac: a primary-copy object whose EWMA write fraction
	// falls to this becomes replicated. Default 0.15. Must be below
	// WriteHeavyFrac or the controller would oscillate.
	ReadHeavyFrac float64
	// DominantFrac is the share of the window's writes one machine
	// must issue to be chosen as (or re-home) the primary.
	// Default 0.55.
	DominantFrac float64
}

// alpha is the EWMA smoothing factor applied per window.
const alpha = 0.5

// withDefaults fills zero fields with the default parameters.
func (c AdaptConfig) withDefaults() AdaptConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.MinDwell <= 0 {
		c.MinDwell = 20 * sim.Millisecond
	}
	if c.WriteHeavyFrac <= 0 {
		c.WriteHeavyFrac = 0.35
	}
	if c.ReadHeavyFrac <= 0 {
		c.ReadHeavyFrac = 0.15
	}
	if c.DominantFrac <= 0 {
		c.DominantFrac = 0.55
	}
	return c
}

// adaptAction is a placement decision.
type adaptAction int

const (
	adaptStay adaptAction = iota
	adaptToPrimary
	adaptToReplicated
	adaptRehome
)

// String names the action for traces and tests.
func (a adaptAction) String() string {
	switch a {
	case adaptToPrimary:
		return "to-primary"
	case adaptToReplicated:
		return "to-replicated"
	case adaptRehome:
		return "rehome"
	default:
		return "stay"
	}
}

// adaptDecide is the pure placement decision over one statistics
// window: given the current placement, the smoothed write fraction,
// and the window's per-machine read/write counts, it returns the
// migration to perform (adaptStay if none) and the target machine.
// Pure so the property/fuzz tests can drive it with synthetic counter
// streams. Ties on the dominant writer break toward the lowest
// machine id, keeping the decision deterministic.
func adaptDecide(cfg AdaptConfig, replicated bool, primary int, ewmaWriteFrac float64, reads, writes []int64) (adaptAction, int) {
	var totalW int64
	dom, domW := -1, int64(0)
	for n, wn := range writes {
		totalW += wn
		if wn > domW {
			dom, domW = n, wn
		}
	}
	domShare := 0.0
	if totalW > 0 {
		domShare = float64(domW) / float64(totalW)
	}
	if replicated {
		// Replicated is only wrong when writes are frequent AND
		// concentrated: then every write pays a broadcast that one
		// machine could absorb locally.
		if ewmaWriteFrac >= cfg.WriteHeavyFrac && dom >= 0 && domShare >= cfg.DominantFrac {
			return adaptToPrimary, dom
		}
		return adaptStay, -1
	}
	// Primary copy is wrong when reads dominate (every remote read
	// pays an RPC that a replica would serve locally) ...
	if ewmaWriteFrac <= cfg.ReadHeavyFrac {
		return adaptToReplicated, -1
	}
	// ... or when the write traffic moved to another machine.
	if dom >= 0 && dom != primary && domShare >= cfg.DominantFrac {
		return adaptRehome, dom
	}
	return adaptStay, -1
}

// adaptInfo is the per-object controller state, plus the bookkeeping
// of an in-flight migration. One migration per object at a time.
type adaptInfo struct {
	cfg  AdaptConfig
	home int // the sequencer group the object replicates behind

	// Statistics window.
	reads  []int64 // per-machine reads since the last decision
	writes []int64 // per-machine writes since the last decision
	seen   int     // accesses in the window
	ewma   float64 // smoothed write fraction
	primed bool    // first window seeds the EWMA directly

	// Migration bookkeeping.
	migrating bool     // a migration is in flight; bounced invokers wait on cond
	toBr      bool     // in-flight direction is p2p -> broadcast
	fromNode  int      // machine driving the in-flight migration
	cloned    State    // moveout state snapshot, kept for crash rescue
	decided   bool     // the globally-first delivery ran (flip or abort)
	aborted   bool     // the migration aborted (target machine crashed)
	start     sim.Time // initiation time, for MigrationVirtualUS
	last      sim.Time // completion time of the last migration (dwell)
	cond      *sim.Cond
}

// resetWindow clears the statistics window after a decision.
func (info *adaptInfo) resetWindow() {
	for i := range info.reads {
		info.reads[i] = 0
	}
	for i := range info.writes {
		info.writes[i] = 0
	}
	info.seen = 0
}

// count records one access in the statistics window.
func (info *adaptInfo) count(node int, kind OpKind) {
	if kind == Read {
		info.reads[node]++
	} else {
		info.writes[node]++
	}
	info.seen++
}

// moveoutMsg is the migrate record that moves an object into its home
// group with the given state.
func (r *Router) moveoutMsg(id ObjID, state State) group.Msg {
	return group.Msg{Kind: "rts-migrate", Body: wireMigrate{Obj: id, Target: -1, State: state}, Size: r.objs[id].typ.stateSize(state) + 24}
}

// recoverState gives crash recovery a better restart point than the
// creation arguments: an adaptive object that migrated in from its
// group left a frozen replica of its cut-point state on every machine
// of its home span, and restarting from that snapshot loses only the
// writes acknowledged by the dead primary after the cut. It returns nil
// when no snapshot exists, always for an object that never had a group.
func (r *Router) recoverState(id ObjID) State {
	// Every live home-span machine's frozen replica holds the same
	// state — the prefix of the total order up to the cut — so the
	// lowest-numbered one is as good as any and the choice is
	// deterministic.
	for _, mg := range r.nodes {
		if inst := mg.seqCopy(id); inst != nil && inst.moved && !mg.m.Crashed() {
			return r.objs[id].typ.Clone(inst.state)
		}
	}
	return nil
}

// adopt puts a freshly created replicated object under the adaptive
// placement controller: it starts replicated on its home group and
// re-places itself as the observed access pattern warrants. An adaptive
// object never joins the write-combining pipeline (see
// seqGroup.call), and keeps its creation arguments to restart from.
func (r *Router) adopt(w *Worker, id ObjID, cfg AdaptConfig, args []any) {
	e := &r.objs[id]
	e.args = append([]any(nil), args...)
	e.adapt = &adaptInfo{
		cfg:    cfg.withDefaults(),
		home:   e.dom,
		reads:  make([]int64, len(r.machines)),
		writes: make([]int64, len(r.machines)),
		cond:   sim.NewCond(w.M.Env()),
	}
}

// AdaptivePlacements reports every adaptive object's current
// placement ("replicated" or "primary@N") for reports and tests.
func (r *Router) AdaptivePlacements() map[ObjID]string {
	var out map[ObjID]string
	for i, e := range r.objs {
		if e.adapt == nil {
			continue
		}
		where := "replicated"
		if e.dom == domP2P {
			where = fmt.Sprintf("primary@%d", e.meta.primary)
		}
		put(&out, ObjID(i), where)
	}
	return out
}

// adaptObserve records one completed access through Call and, when the
// statistics window is full, runs the placement decision — migrating
// the object from the invoking worker's context if it fires. Only a
// machine of the home group's span decides (it must sequence the cut
// there), and only such machines are migration targets; a window that
// fills elsewhere waits for the next in-span access. A local read
// served by LocalReadState only counts itself into the window, so a
// window it fills is decided here too, at the object's next access
// through Call (DESIGN.md "Adaptive placement").
func (r *Router) adaptObserve(w *Worker, id ObjID, info *adaptInfo, opName string) {
	info.count(w.Node(), r.op(id, opName).Kind)
	home := r.groups[info.home]
	if info.seen < info.cfg.SampleEvery || info.migrating || home.mgr(w.Node()) == nil {
		return
	}
	replicated := r.objs[id].dom != domP2P
	primary := -1
	if !replicated {
		primary = r.meta(id).primary
	}
	act, target := info.step(replicated, primary, w.M.Env().Now())
	switch act {
	case adaptStay:
		return
	case adaptToPrimary, adaptRehome:
		if r.nodeDown(target) || home.mgr(target) == nil {
			return // never migrate toward a dead or out-of-span machine
		}
	}
	r.startMigration(w, id, info, act, target)
}

// step folds the completed statistics window into the EWMA and returns
// the migration to start, honoring the dwell-time hysteresis. Factored
// from adaptObserve so the property/fuzz tests can drive the
// controller with synthetic counter streams.
func (info *adaptInfo) step(replicated bool, primary int, now sim.Time) (adaptAction, int) {
	var r, wr int64
	for i := range info.reads {
		r += info.reads[i]
		wr += info.writes[i]
	}
	frac := 0.0
	if r+wr > 0 {
		frac = float64(wr) / float64(r+wr)
	}
	if !info.primed {
		info.ewma, info.primed = frac, true
	} else {
		info.ewma = alpha*frac + (1-alpha)*info.ewma
	}
	act, target := adaptDecide(info.cfg, replicated, primary, info.ewma, info.reads, info.writes)
	info.resetWindow()
	if act == adaptStay {
		return adaptStay, -1
	}
	if now-info.last < info.cfg.MinDwell {
		return adaptStay, -1 // hysteresis: too soon after the last migration
	}
	return act, target
}

// startMigration drives one migration from the invoking worker (a
// machine of the home group's span). It returns with the flip (or
// abort) complete, so the controller's dwell clock and the migrating
// flag are consistent when the worker continues.
func (r *Router) startMigration(w *Worker, id ObjID, info *adaptInfo, act adaptAction, target int) {
	env := w.M.Env()
	info.migrating = true
	info.toBr = false
	info.decided = false
	info.aborted = false
	info.cloned = nil
	info.fromNode = w.Node()
	info.start = env.Now()
	env.Tracef("rts: object %d migration %s (target %d) from node %d", id, act, target, w.Node())
	switch act {
	case adaptToPrimary:
		// Sequence the cut through the home group's total order; the
		// globally-first delivery flips ownership (see handleMigrate).
		mgr := r.groups[info.home].mgr(w.Node())
		w.SyncShared()
		w.Flush()
		mgr.sequenced(w.P, group.Msg{Kind: "rts-migrate", Body: wireMigrate{Obj: id, Target: target}, Size: 24})
		if info.aborted {
			// Target crashed before the cut: the object stays
			// replicated and the dwell clock still advances, so the
			// controller re-evaluates against live statistics later.
			info.migrating = false
			info.last = env.Now()
			info.cond.Broadcast()
		}
	case adaptToReplicated:
		// The primary's task queue is the cut: a moveout task drops
		// every copy and hands the state to the home group.
		r.nodes[w.Node()].submitMigrate(w, id, -1)
		r.awaitFlip(w, id, info, domP2P)
	case adaptRehome:
		r.nodes[w.Node()].submitMigrate(w, id, target)
		r.finishMigration(info, id, domP2P, env.Now())
	}
}

// finishMigration completes one migration — at the globally-first
// delivery of its migrate record for a broadcast-sequenced one, at the
// return of the rehome task otherwise: it sets the object's orderer,
// stamps the counters, and releases every bounced waiter.
func (r *Router) finishMigration(info *adaptInfo, id ObjID, to int, now sim.Time) {
	r.objs[id].dom = to
	info.migrating = false
	info.cloned = nil
	info.last = now
	r.stats.Migrations++
	r.stats.MigrationVirtualUS += float64(now-info.start) / float64(sim.Microsecond)
	info.cond.Broadcast()
}

// awaitFlip blocks until an in-flight migration moves the object away
// from the given orderer (or aborts). If the machine driving a moveout
// cannot sequence its migrate record — it died after the cut, or a
// crash re-homed the primary outside the home span — the first waiter
// inside the span broadcasts the record from its own machine using the
// snapshot kept in info.cloned; duplicate records are idempotent at
// delivery.
func (r *Router) awaitFlip(w *Worker, id ObjID, info *adaptInfo, from int) {
	home := r.groups[info.home]
	mgr := home.mgr(w.Node())
	for info.migrating && r.objs[id].dom == from {
		if mgr != nil && info.toBr && !info.decided && info.cloned != nil &&
			(r.nodeDown(info.fromNode) || home.mgr(info.fromNode) == nil) {
			w.Flush()
			mgr.sequenced(w.P, r.moveoutMsg(id, info.cloned))
			continue
		}
		info.cond.Wait(w.P)
	}
	if mgr != nil && r.objs[id].dom != domP2P {
		// The object is group-owned but this node's replica may still
		// be the frozen pre-migration one: the flip runs at the
		// globally-first delivery of the install record, and this
		// node's own delivery — which replaces the frozen replica —
		// can lag it. Wait for the replacement so the retry reads live
		// state instead of bouncing forever. (A machine outside the
		// span has no replica to wait for: its retry forwards to a
		// holder and bounces again until the holder caught up.)
		mgr.mg.instance(w.P, id, true)
	}
}

// handleMigrate applies one delivery of a sequenced migrate record —
// the cut point of a change of the object's orderer — and then runs k.
// The change itself (the flip of the entry's orderer, or the abort when
// the target crashed) runs exactly once, at the globally-first delivery,
// and installs the one copy the new orderer starts from: a primary copy
// at the target, cloned from the cut, or, into the group, a replica of
// the carried snapshot at every member. Every manager, each at its own
// position in the total order, marks its replica moved and bounces its
// guard waiters (out of the group), or installs its replica (into it).
func (r *Router) handleMigrate(mgr *bcastManager, uid int64, src int, wm wireMigrate, k sim.Firer) {
	e := &r.objs[wm.Obj]
	info, typ := e.adapt, e.typ
	if info == nil {
		panic(fmt.Sprintf("rts: migrate record for non-adaptive object %d", wm.Obj))
	}
	now, inst := mgr.m.Env().Now(), mgr.mg.seqCopy(wm.Obj)
	if wm.State != nil {
		// Into the group: install a replica holding the carried snapshot.
		// A live (non-moved) replica means this record is a crash-rescue
		// duplicate: skip, preserving writes applied since the first
		// record.
		installed := func() {
			if !info.decided {
				info.decided = true
				r.finishMigration(info, wm.Obj, info.home, now)
			}
			mgr.complete(uid, src, Args{})
			k.Fire()
		}
		if inst == nil || inst.moved {
			st := typ.Clone(wm.State)
			mgr.charge(r.costs.create, sim.Func(func() {
				mgr.mg.setSeq(wm.Obj, newReplica(&mgr.sg.replicas, st))
				installed()
			}))
			return
		}
		installed()
		return
	}
	// Out of the group, to a primary copy at wm.Target.
	if !info.decided {
		info.decided = true
		if r.nodeDown(wm.Target) {
			// The target died before the cut. Decided exactly once, at
			// the globally-first delivery, so every manager (and the
			// initiator) observes the same abort.
			info.aborted = true
		} else {
			// Clone this manager's replica: it sits exactly at the cut
			// position of the total order, as every replica does at its
			// own delivery of this record. The object's primary-copy
			// record, kept from an earlier stay, is reused.
			if e.meta == nil {
				e.meta = &p2pMeta{}
			}
			e.meta.protocol, e.meta.placement, e.meta.moved = Update, SingleCopy, false
			r.promote(wm.Obj, e.meta, wm.Target, typ.Clone(inst.state))
			r.finishMigration(info, wm.Obj, domP2P, now)
		}
	}
	if !info.aborted {
		// Freeze the local replica: writes sequenced after the cut
		// bounce (applyWrite), parked guard writes bounce here, and
		// guard-blocked readers wake to bounce (atReplica). A guarded
		// write is never combined, so none of these completions sends a
		// batch.
		inst.moved = true
		for _, pw := range inst.pending {
			mgr.complete(pw.uid, pw.src, retry)
		}
		inst.pending = nil
		inst.cond.Broadcast()
	}
	mgr.complete(uid, src, Args{})
	k.Fire()
}
