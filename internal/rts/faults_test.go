package rts

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// Crash-recovery tests for both runtime systems. The rts layer is
// notified of crashes explicitly here (NodeCrashed); in the full stack
// the orca runtime does that while executing a fault plan.

// crash kills a machine and notifies the runtime, as the orca crash
// cascade would.
func (b *tb) crash(node int, ca interface{ NodeCrashed(int) }) {
	b.ms[node].Crash()
	ca.NodeCrashed(node)
}

// blockedApp filters Blocked() down to interesting parked threads:
// anything on the given dead node (its threads must have been reaped,
// not parked) plus the named application threads. The kernel's and
// the runtime's servers (netisr, objmgr, objsvc, the per-object queues)
// are consumers with no process behind them and are never listed.
func (b *tb) blockedApp(deadNode string, appNames ...string) []string {
	var out []string
	for _, name := range b.env.Blocked() {
		if deadNode != "" && strings.HasPrefix(name, "node"+deadNode+"/") {
			out = append(out, name)
			continue
		}
		for _, app := range appNames {
			if strings.HasSuffix(name, "/"+app) {
				out = append(out, name)
			}
		}
	}
	return out
}

func TestBcastGuardWaiterOnDeadNodeReaped(t *testing.T) {
	// A worker on node 2 suspends on a guarded dequeue; its machine
	// crashes; the survivors keep operating the queue. The dead
	// worker's guarded write still fires in total order (it was
	// broadcast before the crash) but nobody hangs: its waiter died
	// with the machine and is not reported as blocked.
	b, r := newBcastTB(t, 11, 3, nil)
	var qid ObjID
	b.spawn(0, "creator", func(w *Worker) {
		qid = r.Create(w, "queue")
	})
	b.spawn(2, "doomed", func(w *Worker) {
		w.P.Sleep(50 * sim.Millisecond) // let the create complete
		r.Invoke(w, qid, "get")
		t.Error("doomed worker's get returned on a crashed machine")
	})
	gotOne := false
	b.spawn(1, "survivor", func(w *Worker) {
		w.P.Sleep(300 * sim.Millisecond) // crash happens at 200ms
		r.Invoke(w, qid, "put", 1)
		r.Invoke(w, qid, "put", 2)
		res := r.Invoke(w, qid, "get")
		if res[0] == nil {
			t.Error("survivor got nil item")
		}
		gotOne = true
	})
	b.env.At(200*sim.Millisecond, func() { b.crash(2, r) })
	b.run(30 * sim.Second)
	if !gotOne {
		t.Fatal("survivor never completed its dequeue")
	}
	if got := b.blockedApp("2", "doomed", "survivor", "creator"); len(got) != 0 {
		t.Fatalf("blocked after run: %v (dead node's waiters must be reaped, not parked)", got)
	}
	if c := r.Counters(); c.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", c.Crashes)
	}
	b.done()
}

func TestBcastForwardReroutesAroundDeadHolder(t *testing.T) {
	// A partially replicated object with holders {1, 2}: node 0
	// forwards its operations. When holder 1 dies, forwarded work must
	// re-route to holder 2.
	b, r := newBcastTB(t, 13, 3, nil)
	var id ObjID
	b.spawn(1, "creator", func(w *Worker) {
		id = r.CreateOn(w, "intcell", []int{1, 2}, 7)
	})
	var before, after int
	b.spawn(0, "outsider", func(w *Worker) {
		w.P.Sleep(100 * sim.Millisecond)
		before = r.Invoke(w, id, "get")[0].(int)
		w.P.Sleep(400 * sim.Millisecond) // holder 1 crashes at 300ms
		r.Invoke(w, id, "set", 99)
		after = r.Invoke(w, id, "get")[0].(int)
	})
	b.env.At(300*sim.Millisecond, func() { b.crash(1, r) })
	b.run(60 * sim.Second)
	if before != 7 {
		t.Fatalf("pre-crash forwarded read = %d, want 7", before)
	}
	if after != 99 {
		t.Fatalf("post-crash forwarded read = %d, want 99", after)
	}
	c := r.Counters()
	if c.Forwarded < 3 {
		t.Fatalf("expected forwarded traffic with rerouting, counters %+v", c)
	}
	if got := b.blockedApp("1", "outsider", "creator"); len(got) != 0 {
		t.Fatalf("blocked after run: %v", got)
	}
	b.done()
}

func TestP2PRehomePreservesSurvivingCopy(t *testing.T) {
	// Full replication: every machine holds a copy. When the primary
	// dies, the object must re-home onto a survivor with its state
	// intact, and writes must keep going.
	cfg := DefaultP2PConfig()
	cfg.Placement = FullReplication
	b, r := newP2PTB(t, 17, 3, cfg)
	var id ObjID
	b.spawn(0, "creator", func(w *Worker) {
		id = r.Create(w, "intcell", 0)
	})
	var final int
	b.spawn(1, "writer", func(w *Worker) {
		w.P.Sleep(100 * sim.Millisecond)
		for i := 0; i < 5; i++ {
			r.Invoke(w, id, "inc")
		}
		w.P.Sleep(500 * sim.Millisecond) // primary crashes at 400ms
		for i := 0; i < 5; i++ {
			r.Invoke(w, id, "inc")
		}
		final = r.Invoke(w, id, "get")[0].(int)
	})
	b.env.At(400*sim.Millisecond, func() { b.crash(0, r) })
	b.run(120 * sim.Second)
	if final != 10 {
		t.Fatalf("counter = %d after re-home, want 10 (state must survive)", final)
	}
	st := r.Counters()
	if st.Rehomed != 1 {
		t.Fatalf("Rehomed = %d, want 1", st.Rehomed)
	}
	if st.OpsRetried == 0 {
		t.Fatalf("OpsRetried = 0, want > 0 (the first post-crash write must have failed over)")
	}
	if p := r.Primary(id); p == 0 || r.nodes[p].m.Crashed() {
		t.Fatalf("primary = %d, want a live survivor", p)
	}
	b.done()
}

func TestP2PRestartWhenOnlyCopyDies(t *testing.T) {
	// Single copy: the object's only state dies with its machine. The
	// runtime restarts it from the creation arguments on a survivor —
	// with data loss, which is the documented semantics for
	// unreplicated objects.
	cfg := DefaultP2PConfig()
	cfg.Placement = SingleCopy
	b, r := newP2PTB(t, 19, 3, cfg)
	var id ObjID
	b.spawn(0, "creator", func(w *Worker) {
		id = r.Create(w, "intcell", 42)
	})
	var preCrash, postCrash int
	b.spawn(1, "client", func(w *Worker) {
		w.P.Sleep(100 * sim.Millisecond)
		r.Invoke(w, id, "inc")
		preCrash = r.Invoke(w, id, "get")[0].(int)
		w.P.Sleep(500 * sim.Millisecond) // primary crashes at 400ms
		postCrash = r.Invoke(w, id, "get")[0].(int)
	})
	b.env.At(400*sim.Millisecond, func() { b.crash(0, r) })
	b.run(120 * sim.Second)
	if preCrash != 43 {
		t.Fatalf("pre-crash value = %d, want 43", preCrash)
	}
	if postCrash != 42 {
		t.Fatalf("post-crash value = %d, want 42 (restarted from creation args)", postCrash)
	}
	if st := r.Counters(); st.Rehomed != 1 {
		t.Fatalf("Rehomed = %d, want 1", st.Rehomed)
	}
	b.done()
}

func TestP2PSecondaryCrashPrunedFromCopyset(t *testing.T) {
	// Update protocol, full replication: a *secondary* dies. The next
	// write at the primary must prune it from the copyset and commit
	// against the survivors instead of hanging on its ack.
	cfg := DefaultP2PConfig()
	cfg.Placement = FullReplication
	b, r := newP2PTB(t, 23, 3, cfg)
	var id ObjID
	var final int
	b.spawn(0, "creator", func(w *Worker) {
		id = r.Create(w, "intcell", 0)
		w.P.Sleep(500 * sim.Millisecond) // node 2 crashes at 300ms
		for i := 0; i < 3; i++ {
			r.Invoke(w, id, "inc")
		}
		final = r.Invoke(w, id, "get")[0].(int)
	})
	b.env.At(300*sim.Millisecond, func() { b.crash(2, r) })
	b.run(60 * sim.Second)
	if final != 3 {
		t.Fatalf("counter = %d, want 3 (writes must commit against survivors)", final)
	}
	if r.HasCopy(2, id) {
		t.Fatal("dead machine still counted as a copy holder")
	}
	if got := b.blockedApp("2", "creator"); len(got) != 0 {
		t.Fatalf("blocked after run: %v (the primary must not wait on a dead secondary's ack)", got)
	}
	b.done()
}
