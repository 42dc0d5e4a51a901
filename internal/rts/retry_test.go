package rts

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// gcellState is a cell whose guarded step operations log their firing
// and count their guard evaluations. Every evaluation the runtime makes
// is charged, so checks is the number of charged guard checks.
type gcellState struct {
	v      int
	fired  []int
	checks int
}

// gcellType is the cell: set writes v; step(min, next, label) waits for
// v >= min, logs label and, when next > 0, sets v to next.
func gcellType() *ObjectType {
	return &ObjectType{
		Name: "gcell",
		New:  func([]any) State { return &gcellState{} },
		Clone: func(s State) State {
			c := *s.(*gcellState)
			c.fired = append([]int(nil), c.fired...)
			return &c
		},
		SizeOf: func(State) int { return 8 },
		Ops: map[string]*OpDef{
			"set": {Name: "set", Kind: Write, NoResult: true,
				Apply: func(_ *sim.Env, s State, a Args) Args { s.(*gcellState).v = Get[int](&a, 0); return Args{} }},
			"step": {Name: "step", Kind: Write,
				Guard: func(s State, a Args) bool {
					st := s.(*gcellState)
					st.checks++
					return st.v >= Get[int](&a, 0)
				},
				Apply: func(_ *sim.Env, s State, a Args) Args {
					st := s.(*gcellState)
					st.fired = append(st.fired, Get[int](&a, 2))
					if next := Get[int](&a, 1); next > 0 {
						st.v = next
					}
					return ArgsOf(st.v)
				}},
		},
	}
}

// A replica touched while the frame boundary's guard-retry pass is
// suspended on a guard-check charge still has its parked writes retried
// in that pass. The touch comes from outside the manager's own service,
// as a fence executed by another group's manager on the same machine
// touches a replica (execFence): here the writer thread, which resumes
// in the instant its write was applied, while the manager is charging
// the guard check of the write parked on A.
func TestRetryKeepsReplicaTouchedMidPass(t *testing.T) {
	b, r := newBcastTB(t, 1, 2, nil)
	defer b.done()
	r.reg.Register(gcellType())
	var a, c ObjID
	released := false
	b.spawn(0, "main", func(w *Worker) {
		a = r.Create(w, "gcell")
		c = r.Create(w, "gcell")
		b.spawn(0, "parkA", func(w *Worker) { r.Call(w, a, "step", ArgsOf(5, 0, 1)) })
		b.spawn(0, "parkC", func(w *Worker) {
			r.Call(w, c, "step", ArgsOf(1, 0, 2))
			released = true
		})
		w.M.Compute(w.P, 50*sim.Millisecond)
		if r.PendingWrites(0, a) != 1 || r.PendingWrites(0, c) != 1 {
			t.Errorf("parked writes: A %d, C %d, want one each", r.PendingWrites(0, a), r.PendingWrites(0, c))
			return
		}
		// Applied at node 0, then the pass over A starts and charges the
		// guard check of A's parked write: this thread resumes meanwhile.
		r.Call(w, a, "set", ArgsOf(1))
		mgr := r.mgr(0)
		inst := mgr.inst(c)
		inst.op("set").Apply(nil, inst.state, ArgsOf(1))
		inst.cond.Broadcast()
		mgr.touch(inst)
	})
	b.env.RunUntil(sim.Second)
	if !released || r.PendingWrites(0, c) != 0 {
		t.Errorf("write parked on C: released %t, %d still parked at node 0; want released, none", released, r.PendingWrites(0, c))
	}
	if r.PendingWrites(0, a) != 1 {
		t.Errorf("%d writes parked on A at node 0, want 1", r.PendingWrites(0, a))
	}
}

// Both domains retry parked guarded writes in one order. Three writes
// park on one object, A (v >= 2), B (v >= 1, sets v = 2) and C (v >= 1),
// and then v = 1 is written, so B fires and enables A, parked before
// it. The retry pass finishes its round, firing C, and re-checks A in
// the next round: B, C, A in both domains (a scan that went back to the
// front after every fire would fire B, A, C). Every guard evaluation is
// charged: one per arrival and four in the pass (A, B, C, A).
func TestGuardRetryOrder(t *testing.T) {
	const want = "fired [2 3 1], 7 guard checks"
	type caller interface {
		Call(w *Worker, id ObjID, op string, in Args) Args
	}
	park := func(b *tb, sys caller, id ObjID, node int) {
		for label, step := range [][2]int{{2, 0}, {1, 2}, {1, 0}} { // A, B, C
			b.spawn(node, "parked", func(w *Worker) { sys.Call(w, id, "step", ArgsOf(step[0], step[1], label+1)) })
			b.env.RunUntil(b.env.Now() + 20*sim.Millisecond)
		}
	}
	log := func(s State) string {
		st := s.(*gcellState)
		return fmt.Sprintf("fired %v, %d guard checks", st.fired, st.checks)
	}
	t.Run("sequenced", func(t *testing.T) {
		b, r := newBcastTB(t, 1, 2, nil)
		defer b.done()
		r.reg.Register(gcellType())
		var id ObjID
		b.spawn(0, "main", func(w *Worker) { id = r.Create(w, "gcell") })
		b.env.RunUntil(20 * sim.Millisecond)
		park(b, r, id, 1)
		b.spawn(0, "set", func(w *Worker) { r.Call(w, id, "set", ArgsOf(1)) })
		b.env.RunUntil(b.env.Now() + sim.Second)
		for node := range 2 {
			if st, _ := r.PeekState(node, id); log(st) != want {
				t.Errorf("node %d: %s, want %s", node, log(st), want)
			}
		}
	})
	t.Run("primary copy", func(t *testing.T) {
		b, r := newP2PTB(t, 1, 2, P2PConfig{Protocol: Update, Placement: SingleCopy})
		defer b.done()
		r.reg.Register(gcellType())
		var id ObjID
		b.spawn(0, "main", func(w *Worker) { id = r.Create(w, "gcell") })
		b.env.RunUntil(20 * sim.Millisecond)
		park(b, r, id, 1)
		b.spawn(1, "set", func(w *Worker) { r.Call(w, id, "set", ArgsOf(1)) })
		b.env.RunUntil(b.env.Now() + sim.Second)
		if st, _ := r.PeekState(0, id); log(st) != want {
			t.Errorf("primary: %s, want %s", log(st), want)
		}
	})
}

// A reader blocked on a guard over its local secondary copy, whose copy
// an invalidating write then drops, looks the object up again before it
// charges anything more: read-heavy as it is, it fetches a fresh copy
// and reads the guard true from that. The figures are pinned from the
// runtime whose point-to-point local read had a wait loop of its own.
func TestGuardedReaderRefetchesDroppedCopy(t *testing.T) {
	b, r := newP2PTB(t, 3, 2, dynCfg(Invalidation))
	defer b.done()
	fig := "reader never finished"
	b.spawn(0, "main", func(w *Worker) {
		id := r.Create(w, "flag")
		b.spawn(1, "reader", func(w *Worker) {
			for i := 0; i < 15; i++ { // fetch a copy at the 8th read, then build the ratio up again
				r.Call(w, id, "get", Args{})
			}
			if !r.HasCopy(1, id) {
				t.Error("the reader holds no copy before it blocks")
			}
			res := r.Call(w, id, "await", Args{})
			fig = fmt.Sprintf("%v at %v", Get[bool](&res, 0), w.P.Now())
		})
		w.P.Sleep(500 * sim.Millisecond)
		r.Call(w, id, "set", ArgsOf(true))
	})
	b.env.RunUntil(5 * sim.Second)
	st := r.Counters()
	fig += fmt.Sprintf("; %d events, fetches %d, invalidations %d, guard waits %d, busy %d/%d",
		b.env.Events(), st.Fetches, st.Invalidations, st.GuardWaits, b.ms[0].CPU().BusyTime(), b.ms[1].CPU().BusyTime())
	if want := "true at 501.895ms; 152 events, fetches 2, invalidations 1, guard waits 1, busy 4570000/4043000"; fig != want {
		t.Errorf("%s, want %s", fig, want)
	}
}
