package rts

import "fmt"

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
func (r *P2PRTS) nodeDown(node int) bool { return r.nodes[node].m.Crashed() }

// NodeCrashed counts the crash and releases copies the dead primary
// left locked mid-update, so local readers suspended on a locked copy
// re-check instead of sleeping forever.
// Object re-homing itself happens lazily, when the next operation
// against a dead primary fails.
func (r *P2PRTS) NodeCrashed(node int) {
	r.stats.Crashes++
	// The table walks in id order, so suspended readers wake in a
	// deterministic order.
	for id, e := range r.router.objs {
		if e.meta == nil || e.meta.primary != node {
			continue
		}
		for _, n := range r.nodes {
			if n.m.Crashed() {
				continue
			}
			if inst, ok := n.insts[ObjID(id)]; ok && inst.valid && inst.locked {
				inst.locked = false
				inst.cond.Broadcast()
			}
		}
	}
}

// rehome moves an object whose primary crashed onto a surviving
// machine. It runs in the invoking thread's context, on whichever
// machine first observed the failure; the promotion mutates the global
// object table directly, modelling the recovery round a real RTS would
// run without simulating its messages (the cost of the failed attempts
// and retries is what the fault experiments measure). Idempotent: if
// another invoker already re-homed the object, this is a no-op.
func (r *P2PRTS) rehome(w *Worker, meta *p2pMeta) {
	if !r.nodeDown(meta.primary) {
		return // already re-homed by an earlier detector
	}
	// Prefer the lowest-numbered live machine holding a valid copy; if
	// every copy died, restart on the lowest-numbered live machine.
	target, restart := -1, true
	for _, n := range r.nodes {
		if n.m.Crashed() {
			continue
		}
		if target == -1 {
			target = n.m.ID()
		}
		if inst, ok := n.insts[meta.id]; ok && inst.valid {
			target, restart = n.m.ID(), false
			break
		}
	}
	if target == -1 {
		panic(fmt.Sprintf("rts: no live machine to re-home object %d", meta.id))
	}
	var st State // nil: the target's copy is promoted as it stands
	how := "re-homed"
	if restart {
		how = "restarted from its creation arguments"
		if st = r.router.recoverState(meta); st != nil {
			how = "recovered from its migration snapshot"
		} else {
			st = meta.typ.New(meta.ctorArgs)
		}
	}
	r.nodes[target].m.Env().Tracef("rts: object %d %s on node %d (primary %d died)", meta.id, how, target, meta.primary)
	r.promote(meta, target, st)
	r.stats.Rehomed++
}

// promote makes target's copy of the object its primary — st, unless
// nil, installed there as a fresh copy first — adopts every other live
// valid copy as a secondary, releasing a copy a dead primary left
// locked between update phases, and gives the object its queue there.
// Re-homing, primary migration and a migration in from the broadcast
// runtime all install a primary this way.
func (r *P2PRTS) promote(meta *p2pMeta, target int, st State) {
	tn := r.nodes[target]
	if st != nil {
		tn.installCopy(meta.id, meta.typ, st)
	}
	inst := tn.insts[meta.id]
	inst.primary, inst.locked = true, false
	if inst.copyset == nil {
		inst.copyset = make(map[int]bool)
	}
	for _, n := range r.nodes {
		if n.m.Crashed() || n == tn || n.m.ID() == meta.primary {
			continue
		}
		if sec, ok := n.insts[meta.id]; ok && sec.valid {
			inst.copyset[n.m.ID()] = true
			sec.primary, sec.locked = false, false
			sec.cond.Broadcast()
		}
	}
	inst.cond.Broadcast()
	tn.startPrimary(meta.id)
	meta.primary = target
}
