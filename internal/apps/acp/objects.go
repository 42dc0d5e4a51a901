package acp

import (
	"repro/internal/orca"
	"repro/internal/rts"
)

// Shared object types for the ACP program. The domain object holds
// the array of value sets ("This object thus contains an array of
// sets, one for each variable"); the work object holds the recheck
// flags plus the indivisible claim/idle operations the termination
// protocol needs. Both are declared with the typed builder of package
// orca: the Domains and Work wrapper types are the programming
// surface, and every operation is a typed descriptor compiled down to
// the registry's wire-level definitions.

// Type names registered by RegisterTypes.
const (
	DomainObj = "acp.domains"
	WorkObj   = "acp.work"
)

// RegisterTypes adds the ACP object types to a registry.
func RegisterTypes(reg *rts.Registry) {
	domainB.Register(reg)
	workB.Register(reg)
}

type domainState struct{ masks []uint64 }

// WireSize implements rts.Sized.
func (s *domainState) WireSize() int { return 8 + 8*len(s.masks) }

var (
	domainB = orca.NewType(DomainObj, func(args []any) *domainState {
		n, full := args[0].(int), args[1].(uint64)
		s := &domainState{masks: make([]uint64, n)}
		for i := range s.masks {
			s.masks[i] = full
		}
		return s
	}).
		CloneWith(func(s *domainState) *domainState {
			return &domainState{masks: append([]uint64(nil), s.masks...)}
		}).
		SizedBy((*domainState).WireSize)

	domainGet = orca.DefRead(domainB, "get", func(s *domainState, i int) uint64 {
		return s.masks[i]
	})
	// get2 reads two domains in one indivisible operation, the pair a
	// revise needs.
	domainGet2 = orca.DefRead2x2(domainB, "get2", func(s *domainState, i, j int) (uint64, uint64) {
		return s.masks[i], s.masks[j]
	})
	// remove deletes the given values from a variable's set and
	// reports (newMask, becameEmpty).
	domainRemove = orca.DefWrite2x2(domainB, "remove", func(s *domainState, i int, mask uint64) (uint64, bool) {
		s.masks[i] &^= mask
		return s.masks[i], s.masks[i] == 0
	})
	domainSnapshot = orca.DefRead0(domainB, "snapshot", func(s *domainState) []uint64 {
		return append([]uint64(nil), s.masks...)
	})
)

// Domains is the shared array of per-variable value sets.
type Domains struct{ h orca.Handle[*domainState] }

// NewDomains creates the domain object with n variables, each holding
// the full value set.
func NewDomains(p *orca.Proc, n int, full uint64) Domains {
	return Domains{h: domainB.New(p, n, full)}
}

// Get reads one variable's set.
func (d Domains) Get(p *orca.Proc, v int) uint64 { return domainGet.Call(p, d.h, v) }

// Get2 reads two variables' sets in one indivisible operation.
func (d Domains) Get2(p *orca.Proc, v, other int) (uint64, uint64) {
	return domainGet2.Call(p, d.h, v, other)
}

// Remove deletes the masked values from v's set, returning the new
// set and whether it became empty (a wipeout: no solution exists).
func (d Domains) Remove(p *orca.Proc, v int, mask uint64) (uint64, bool) {
	return domainRemove.Call(p, d.h, v, mask)
}

// Snapshot copies out all the sets.
func (d Domains) Snapshot(p *orca.Proc) []uint64 { return domainSnapshot.Call(p, d.h) }

// workState combines the per-variable recheck flags with the
// termination bookkeeping: which workers are idle and whether the
// computation is finished. Orca guards range over a single object, so
// the blocking claim must see both the flags and the done bit — the
// paper's "indivisible operations for testing these two conditions".
//
// For crash tolerance it additionally tracks which worker is currently
// revising which variable (claimed), which workers have been retired
// after their machine crashed (dead), and the orphaned variables of
// dead workers (orphans), which any surviving worker may claim. In a
// healthy run all three stay at their zero state and the object
// behaves exactly as before.
type workState struct {
	bits    []bool
	idle    []bool
	done    bool
	claimed []int  // claimed[w]: variable w is revising, -1 if none
	dead    []bool // w retired after a crash
	orphans []int  // dead workers' variables, claimable by anyone
}

// WireSize implements rts.Sized.
func (st *workState) WireSize() int {
	return 9 + len(st.bits) + len(st.idle) + len(st.dead) + 8*len(st.claimed) + 4 + 8*len(st.orphans)
}

// claim is the shared core of the claim and await operations. A
// retired worker's claim — one already in flight when its machine
// crashed — reports done so the (dead) caller would exit rather than
// steal work. Survivors claim from their own partition first, then
// from the orphan pool.
func (st *workState) claim(me int, vars []int) (int, bool) {
	if st.done || st.dead[me] {
		return -1, true
	}
	take := func(v int) (int, bool) {
		st.bits[v] = false
		st.idle[me] = false
		st.claimed[me] = v
		return v, false
	}
	for _, v := range vars {
		if st.bits[v] {
			return take(v)
		}
	}
	for _, v := range st.orphans {
		if st.bits[v] {
			return take(v)
		}
	}
	return -1, false
}

// hasWork reports whether a claim by me would succeed.
func (st *workState) hasWork(me int, vars []int) bool {
	if st.done || st.dead[me] {
		return true
	}
	for _, v := range vars {
		if st.bits[v] {
			return true
		}
	}
	for _, v := range st.orphans {
		if st.bits[v] {
			return true
		}
	}
	return false
}

// refresh re-evaluates termination: every worker idle (the dead count
// as idle forever) and no variable flagged.
func (st *workState) refresh() {
	if st.done {
		return
	}
	for _, id := range st.idle {
		if !id {
			return
		}
	}
	for _, b := range st.bits {
		if b {
			return
		}
	}
	st.done = true
}

var (
	workB = orca.NewType(WorkObj, func(args []any) *workState {
		nVars, workers := args[0].(int), args[1].(int)
		s := &workState{
			bits:    make([]bool, nVars),
			idle:    make([]bool, workers),
			claimed: make([]int, workers),
			dead:    make([]bool, workers),
		}
		for i := range s.bits {
			s.bits[i] = true
		}
		for i := range s.claimed {
			s.claimed[i] = -1
		}
		return s
	}).
		CloneWith(func(st *workState) *workState {
			return &workState{
				bits:    append([]bool(nil), st.bits...),
				idle:    append([]bool(nil), st.idle...),
				done:    st.done,
				claimed: append([]int(nil), st.claimed...),
				dead:    append([]bool(nil), st.dead...),
				orphans: append([]int(nil), st.orphans...),
			}
		}).
		SizedBy((*workState).WireSize)

	// mark flags variables for rechecking.
	workMark = orca.DefUpdate(workB, "mark", func(st *workState, vars []int) {
		for _, v := range vars {
			st.bits[v] = true
		}
	})
	// claim indivisibly takes one flagged variable from the caller's
	// partition (non-blocking): (var, done).
	workClaim = orca.DefWrite2x2(workB, "claim", func(st *workState, me int, vars []int) (int, bool) {
		return st.claim(me, vars)
	})
	// await blocks until the caller has claimable work (its partition
	// or the orphan pool) or the computation is finished, then claims
	// indivisibly.
	workAwait = orca.DefWrite2x2(workB, "await", func(st *workState, me int, vars []int) (int, bool) {
		return st.claim(me, vars)
	}).Guard(func(st *workState, me int, vars []int) bool {
		return st.hasWork(me, vars)
	})
	// setIdle declares the caller out of work; if every worker is idle
	// and no flags remain, the computation is done. Returns done.
	workSetIdle = orca.DefWrite(workB, "setIdle", func(st *workState, me int) bool {
		st.idle[me] = true
		st.claimed[me] = -1
		st.refresh()
		return st.done
	})
	// retire removes crashed workers from the termination protocol:
	// they count as idle forever, their partitions join the orphan pool
	// for the survivors, and the variable each was revising mid-crash
	// is re-flagged (its revision may have been half done — revising
	// again is idempotent). Termination is re-evaluated, since the
	// retired workers may have been the last busy ones.
	workRetire = orca.DefUpdate2(workB, "retire", func(st *workState, ws []int, vars []int) {
		for _, w := range ws {
			if st.dead[w] {
				continue
			}
			st.dead[w] = true
			st.idle[w] = true
			if v := st.claimed[w]; v >= 0 {
				st.bits[v] = true
				st.claimed[w] = -1
			}
		}
		st.orphans = append(st.orphans, vars...)
		st.refresh()
	})
	// finish aborts the computation (no solution exists).
	workFinish = orca.DefUpdate0(workB, "finish", func(st *workState) { st.done = true })
	workIsDone = orca.DefRead0(workB, "isDone", func(st *workState) bool { return st.done })
)

// Work is the shared recheck-flag and termination object.
type Work struct{ h orca.Handle[*workState] }

// NewWork creates the work object for nVars variables and the given
// worker count, with every variable initially flagged.
func NewWork(p *orca.Proc, nVars, workers int) Work {
	return Work{h: workB.New(p, nVars, workers)}
}

// Mark flags variables for rechecking.
func (w Work) Mark(p *orca.Proc, vars []int) { workMark.Call(p, w.h, vars) }

// Claim indivisibly takes one flagged variable from the caller's
// partition without blocking, returning (variable, done); variable is
// -1 when the partition has no flagged work.
func (w Work) Claim(p *orca.Proc, me int, vars []int) (int, bool) {
	return workClaim.Call(p, w.h, me, vars)
}

// Await blocks until the caller's partition has work or the
// computation finished, then claims indivisibly like Claim.
func (w Work) Await(p *orca.Proc, me int, vars []int) (int, bool) {
	return workAwait.Call(p, w.h, me, vars)
}

// SetIdle declares the caller out of work and returns whether the
// whole computation is now done.
func (w Work) SetIdle(p *orca.Proc, me int) bool { return workSetIdle.Call(p, w.h, me) }

// Retire removes crashed workers from the termination protocol and
// hands their variables (vars) to the orphan pool, where any surviving
// worker can claim them. Idempotent per worker.
func (w Work) Retire(p *orca.Proc, ws []int, vars []int) { workRetire.Call(p, w.h, ws, vars) }

// Finish aborts the computation (no solution exists).
func (w Work) Finish(p *orca.Proc) { workFinish.Call(p, w.h) }

// IsDone reads the termination bit.
func (w Work) IsDone(p *orca.Proc) bool { return workIsDone.Call(p, w.h) }
