package rts

import (
	"fmt"
	"testing"

	"repro/internal/group"
	"repro/internal/sim"
)

// TestWritePastPendingGuardTakesThread drives the object manager's
// three routes at once — plain writes that run to completion on the
// dispatch lane, guarded writes it declines, and plain writes that land
// on a replica with guarded writes pending, whose frame boundary (the
// guard retries, which charge CPU) must go to the thread — and checks
// that each delivery took its route and that the run's figures are the
// ones it had when the thread did everything.
func TestWritePastPendingGuardTakesThread(t *testing.T) {
	const n = 4
	b, r := newBcastTB(t, 5, n, nil)
	defer b.done()

	var inline, declined, boundaryToThread, guardedInline int
	for _, mgr := range r.mgrs {
		mgr := mgr
		mgr.g.Deliveries().Serve(func(d group.Delivery) sim.Verdict {
			v := mgr.serve(d)
			wo, isOp := d.Body.(wireOp)
			if isOp && wo.Op == "get" && v != sim.Decline {
				guardedInline++
			}
			if v == sim.Decline {
				declined++
			}
			return v
		})
		mgr.writtenFn = func() {
			mgr.written()
			// written leaves applied set exactly when it punted the
			// boundary; the thread clears it within this same event.
			if mgr.applied {
				boundaryToThread++
			} else {
				inline++
			}
		}
	}

	var got [n]string
	var cell, q ObjID
	ready := sim.NewCond(b.env)
	b.spawn(0, "main", func(w *Worker) {
		cell = r.Create(w, "intcell", 0)
		q = r.Create(w, "queue")
		ready.Broadcast()
		w.P.Sleep(20 * sim.Millisecond) // every getter is pending by now
		for k := 1; k <= 3; k++ {
			r.Invoke(w, cell, "set", k)
			r.Invoke(w, q, "put", 10*k)
		}
		got[0] = fmt.Sprintf("main done@%v", w.P.Now())
	})
	for c := 1; c < n; c++ {
		c := c
		b.spawn(c, fmt.Sprintf("getter%d", c), func(w *Worker) {
			for q == 0 {
				ready.Wait(w.P)
			}
			v := r.Invoke(w, q, "get")[0].(int)
			r.Invoke(w, cell, "inc")
			got[c] = fmt.Sprintf("got %d@%v", v, w.P.Now())
		})
	}
	b.run(10 * sim.Second)

	// 2 creates + 3 gets are declined on each machine; of the plain
	// writes (3 sets, 3 puts, 3 incs per machine), the puts find a
	// getter pending.
	if want := n * 5; declined != want || guardedInline != 0 {
		t.Errorf("declined %d deliveries (want %d), served %d guarded writes inline (want 0)", declined, want, guardedInline)
	}
	if want := n * 3; boundaryToThread != want {
		t.Errorf("%d frame boundaries with guards pending went to the thread, want %d", boundaryToThread, want)
	}
	if want := n * 6; inline != want {
		t.Errorf("%d plain writes ran to completion inline, want %d", inline, want)
	}
	for node := 0; node < n; node++ {
		if p := r.PendingWrites(node, q); p != 0 {
			t.Errorf("node %d: %d guarded writes still pending", node, p)
		}
		if st, _ := r.PeekState(node, cell); st.(*intCellState).v != 6 {
			t.Errorf("node %d: cell = %d, want 6 (set 3, three incs)", node, st.(*intCellState).v)
		}
	}
	ns := b.net.Stats()
	fig := fmt.Sprintf("%v events=%d frames=%d wire=%d", got, b.env.Events(), ns.Frames, ns.WireBytes)
	const want = "[main done@21.695ms got 10@23.116ms got 20@23.526ms got 30@23.936ms] events=964 frames=59 wire=4260"
	if fig != want {
		t.Errorf("figures moved:\n\t%s\nwere\t%s", fig, want)
	}
}
