package rts

import (
	"fmt"
	"slices"
)

// Crash recovery for the point-to-point runtime. The paper's §3.2.2
// RTS keeps one primary copy per object; a machine crash therefore
// threatens whole objects, not just replicas. Recovery re-homes each
// affected object onto a surviving machine the first time an operation
// trips over the dead primary:
//
//   - if any machine still holds a valid copy, the lowest-numbered
//     such machine is promoted to primary — the object's state (as of
//     the last update that reached that copy) survives;
//   - if the only copy died with the primary, the object is restarted
//     from its creation arguments on the lowest-numbered live machine
//     — the state is lost and the object begins again, which the
//     program must tolerate (Orca's fault-tolerance story for
//     unreplicated data is exactly this weak, which is why the paper's
//     broadcast RTS replicates everything).
//
// Writes interrupted by a crash are re-issued against the new primary,
// giving at-least-once execution: an update-protocol write that
// reached some secondaries before the primary died survives in the
// promoted copy and runs again on retry. DESIGN.md discusses why
// exactly-once would require write-ahead intentions the paper's RTS
// does not keep.

// nodeDown reports whether a machine has crashed.
func (r *Router) nodeDown(node int) bool { return r.machines[node].Crashed() }

// rehome moves an object whose primary crashed onto a surviving
// machine. It runs in the invoking thread's context, on whichever
// machine first observed the failure; the promotion mutates the global
// object table directly, modelling the recovery round a real RTS would
// run without simulating its messages (the cost of the failed attempts
// and retries is what the fault experiments measure). Idempotent: if
// another invoker already re-homed the object, this is a no-op.
func (r *Router) rehome(id ObjID, meta *p2pMeta) {
	if !r.nodeDown(meta.primary) {
		return // already re-homed by an earlier detector
	}
	// Prefer the lowest-numbered live machine holding a copy; if every
	// copy died, restart on the lowest-numbered live machine.
	target := slices.IndexFunc(r.nodes, func(mg *objMgr) bool { return !mg.m.Crashed() && mg.p2pCopy(id) != nil })
	restart := target < 0
	if restart {
		target = slices.IndexFunc(r.nodes, func(mg *objMgr) bool { return !mg.m.Crashed() })
	}
	if target < 0 {
		panic(fmt.Sprintf("rts: no live machine to re-home object %d", id))
	}
	var st State // nil: the target's copy is promoted as it stands
	how := "re-homed"
	if restart {
		how = "restarted from its creation arguments"
		if st = r.recoverState(id); st != nil {
			how = "recovered from its migration snapshot"
		} else {
			st = r.objs[id].typ.New(r.objs[id].args)
		}
	}
	r.machines[target].Env().Tracef("rts: object %d %s on node %d (primary %d died)", id, how, target, meta.primary)
	r.promote(id, meta, target, st)
	r.stats.Rehomed++
}

// promote makes target's copy of the object its primary — st, unless
// nil, installed there as a fresh copy first — adopts every other live
// valid copy as a secondary, releasing a copy a dead primary left
// locked between update phases, and gives the object its queue there.
// Re-homing, primary migration and a migration out of a group all
// install a primary this way.
func (r *Router) promote(id ObjID, meta *p2pMeta, target int, st State) {
	tn := r.nodes[target]
	if st != nil {
		tn.installCopy(id, st)
	}
	inst := tn.p2pCopy(id)
	inst.primary, inst.locked = true, false
	if inst.copyset == nil {
		inst.copyset = make(map[int]bool)
	}
	for _, mg := range r.nodes {
		if mg.m.Crashed() || mg == tn || mg.m.ID() == meta.primary {
			continue
		}
		if sec := mg.p2pCopy(id); sec != nil {
			inst.copyset[mg.m.ID()] = true
			sec.primary, sec.locked = false, false
			sec.cond.Broadcast()
		}
	}
	inst.cond.Broadcast()
	tn.startPrimary(id)
	meta.primary = target
}
