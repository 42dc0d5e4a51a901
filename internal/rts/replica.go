package rts

import (
	"slices"
	"unsafe"

	"repro/internal/amoeba"
	"repro/internal/sim"
)

// replica is one machine's copy of an object, under either orderer: a
// group's replica, which the group's delivery consumer applies the total
// order to, or a primary or secondary copy.
type replica struct {
	state State
	cond  sim.Cond // wakes threads blocked on a guard or a lock after each change

	// pending holds the guarded operations parked because their guard
	// was false, in arrival order: a group replica's writes, at their
	// positions in the total order, and a primary copy's queued tasks.
	pending []pendingOp

	// A primary-copy copy (p2p.go), and the group replica it was
	// installed over, if any (see objMgr.copies); dropped marks one
	// invalidated or discarded, which a thread waiting on it finds.
	under                    *replica
	copyset                  map[int]bool // primary only
	locked, dropped, primary bool

	// A group's replica (bcast.go): seq marks it one. The flags sit
	// together, where they pack into one word.
	seq     bool
	touched bool // written since the last frame boundary (see bcastManager.Consume)
	moved   bool // its object changed orderer at its cut point; writes bounce (see adapt.go)
}

// newReplica is a copy holding st, carved from recs.
func newReplica(recs *slab[replica], st State) *replica {
	inst := recs.new()
	inst.state = st
	return inst
}

// slab carves the records a run makes for its objects — replicas,
// primary copies' queues — out of runs it allocates, so that making one
// costs no allocation of its own. A record is never handed out again: a
// run becomes garbage once every record carved from it has. A slab
// whose run is set allocates runs of that length: a group's replicas
// come a span's worth per creation, so its runs are used up exactly.
// Otherwise the first run holds four records and each next one twice
// the last, up to slabBytes.
type slab[T any] struct {
	free []T // the uncarved rest of the current run
	next int // the length of the next run
	run  int // the length of every run, if set
}

// slabBytes bounds a run, and so what the rest of a slab's last run
// can waste: at 4 KB, about as much as a record's rounding up to its
// size class, which carving saves, comes to over a few hundred records.
const slabBytes = 4 << 10

// new carves one zero record.
func (s *slab[T]) new() *T {
	if len(s.free) == 0 {
		n := s.run
		if n == 0 {
			var zero T
			s.next = min(max(2*s.next, 4), max(slabBytes/int(unsafe.Sizeof(zero)), 1))
			n = s.next
		}
		s.free = make([]T, n)
	}
	r := &s.free[0]
	s.free = s.free[1:]
	return r
}

// slot returns the place of id in a table indexed by object id,
// growing the table to hold it in one step. Ids are dense, counting up
// from 1.
func slot[T any](s *[]T, id ObjID) *T {
	if n := int(id) + 1 - len(*s); n > 0 {
		*s = append(*s, make([]T, n)...)
	}
	return &(*s)[id]
}

// put stores v at k in *m, making the map at its first store.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// pendingOp is a parked guarded operation: a sequenced write with its
// uid and source machine, or a primary copy's task.
type pendingOp struct {
	op   *OpDef
	args Args
	uid  int64
	src  int
	task *p2pTask
}

// retrier is the one guard-retry routine, and where it stands: a pass
// over a replica's parked operations, in arrival order, that charges
// each guard check in its consumer's name and fires an operation whose
// guard holds. Its host's fire runs that operation in continuation form
// and then calls next. The pass sweeps in rounds: a round goes on past a
// fire to the end of the list, and the next round re-checks only the
// operations kept before the round's last fire, which it may have
// enabled; those after it have been checked against the state it left.
// The pass ends, and the host is told, after a round that fires nothing
// behind a kept operation. A group's object manager runs one pass per
// touched replica at a frame boundary, a primary's queue one after each
// committed write (DESIGN.md, "One replica record, one guard-retry
// routine").
type retrier struct {
	m                *amoeba.Machine
	c                *sim.Proc
	check            sim.Time
	host             retryHost
	inst             *replica // nil between passes
	i                int      // the scan's place in inst.pending
	stale, nextStale int      // a round checks the first stale operations; the next round, nextStale
	fired            bool     // in this round
}

// retryHost is the consumer a retrier runs in: fire runs a parked
// operation whose guard holds, in continuation form, and then calls the
// retrier's next; retried goes on once a pass has ended.
type retryHost interface {
	fire(inst *replica, po pendingOp)
	retried()
}

// init binds the retrier to its consumer, which charges guard checks on
// m in c's name.
func (p *retrier) init(m *amoeba.Machine, c *sim.Proc, check sim.Time, host retryHost) {
	*p = retrier{m: m, c: c, check: check, host: host}
}

// start begins a pass over inst's parked operations, all of them
// unchecked against its state.
func (p *retrier) start(inst *replica) {
	p.inst, p.i, p.stale, p.nextStale, p.fired = inst, 0, len(inst.pending), 0, false
	p.next()
}

// next charges the guard check of the next operation the scan must
// evaluate, or ends the round, and with it, unless another round is
// due, the pass.
func (p *retrier) next() {
	for p.i < len(p.inst.pending) && p.i >= p.stale && !p.fired {
		p.i++ // checked against the state as it is, with no fire since
	}
	switch {
	case p.i < len(p.inst.pending):
		p.m.ComputeOn(p.c, p.check, p)
	case p.nextStale > 0:
		p.i, p.stale, p.nextStale, p.fired = 0, p.nextStale, 0, false
		p.next()
	default:
		p.inst = nil
		p.host.retried()
	}
}

// Fire evaluates the guard whose check has been charged, the retrier
// being the check's continuation: the operation fires, or the scan goes
// on past it.
func (p *retrier) Fire() {
	inst := p.inst
	po := inst.pending[p.i]
	if !po.op.Guard(inst.state, po.args) {
		p.i++
		p.next()
		return
	}
	inst.pending = slices.Delete(inst.pending, p.i, p.i+1)
	p.fired, p.nextStale = true, p.i
	p.host.fire(inst, po)
}

// awaitGuard blocks w until op's guard holds on inst, each evaluation
// accrued as a guard check and each false one counted in waits, and
// reports whether it does: false if inst is locked, invalidated or
// moved away, and the caller must look again. It is the one wait a
// worker makes on a local copy under either orderer; with no guard it only
// checks that the copy is usable. Flush comes first: flushing blocks on
// the CPU, and a wake-up that fires while the thread is neither
// checking nor on the wait queue would be lost. Between the check and
// Wait (or the caller's Apply) nothing may block, so costs are accrued,
// not charged; a copy invalidated while the thread waited is left with
// them still accrued, for the caller's next step to charge.
func awaitGuard(w *Worker, inst *replica, op *OpDef, in Args, check sim.Time, waits *int64) bool {
	for {
		w.Flush()
		if inst.moved || inst.dropped || inst.locked {
			return false
		}
		if op.Guard == nil {
			return true
		}
		w.Accrue(check)
		if op.Guard(inst.state, in) {
			return true
		}
		*waits++
		inst.cond.Wait(w.P)
		if inst.dropped {
			return false
		}
	}
}

// parked parks po on the copy, behind the operations parked before it,
// if its guard, whose check has been charged, is false, and reports
// whether it did: the one guard check of an operation arriving at a
// group replica or a primary copy.
func (inst *replica) parked(po pendingOp) bool {
	if po.op.Guard(inst.state, po.args) {
		return false
	}
	inst.pending = append(inst.pending, po)
	return true
}

// apply applies op to the copy and wakes its waiters: the step every
// write takes that no later step of its orderer separates from the wake.
func (inst *replica) apply(e *sim.Env, op *OpDef, in Args) Args {
	res := op.Apply(e, inst.state, in)
	inst.cond.Broadcast()
	return res
}
