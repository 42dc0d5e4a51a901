package rts

import (
	"testing"

	"repro/internal/sim"
)

func TestPartialReplicationPlacement(t *testing.T) {
	b, r := newBcastTB(t, 21, 4, nil)
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = createOn(r, w, "intcell", []int{0, 1}, 7)
	})
	b.run(5 * sim.Second)
	defer b.done()
	for node := 0; node < 4; node++ {
		_, ok := r.PeekState(node, id)
		want := node <= 1
		if ok != want {
			t.Fatalf("node %d has replica=%v, want %v", node, ok, want)
		}
	}
}

func TestPartialReplicationForwardedOps(t *testing.T) {
	b, r := newBcastTB(t, 22, 4, nil)
	var got int
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = createOn(r, w, "intcell", []int{0, 1})
		b.spawn(3, "outsider", func(w *Worker) {
			// Node 3 holds no replica: both operations are forwarded.
			r.Invoke(w, id, "set", 42)
			got = r.Invoke(w, id, "get")[0].(int)
		})
	})
	b.run(10 * sim.Second)
	defer b.done()
	if got != 42 {
		t.Fatalf("forwarded read = %d, want 42", got)
	}
	if fwd := r.Counters().Forwarded; fwd != 2 {
		t.Fatalf("forwarded ops = %d, want 2", fwd)
	}
	// The write must have reached both replica holders.
	for node := 0; node <= 1; node++ {
		s, _ := r.PeekState(node, id)
		if s.(*intCellState).v != 42 {
			t.Fatalf("replica on node %d = %d", node, s.(*intCellState).v)
		}
	}
}

func TestPartialReplicationLocalReadsStayLocal(t *testing.T) {
	b, r := newBcastTB(t, 23, 4, nil)
	b.spawn(0, "main", func(w *Worker) {
		id := createOn(r, w, "intcell", []int{0, 1}, 5)
		b.spawn(1, "holder", func(w *Worker) {
			w.P.Sleep(100 * sim.Millisecond)
			before := b.net.Stats().Messages
			for i := 0; i < 200; i++ {
				r.Invoke(w, id, "get")
			}
			if after := b.net.Stats().Messages; after != before {
				t.Errorf("replica holder generated %d messages for reads", after-before)
			}
		})
	})
	b.run(10 * sim.Second)
	b.done()
}

func TestPartialReplicationGuardedQueue(t *testing.T) {
	// A single-copy job queue — what the paper says would be better
	// than replicating it. Guarded gets forwarded from other nodes
	// must still block and then complete.
	b, r := newBcastTB(t, 25, 3, nil)
	var got []int
	b.spawn(0, "main", func(w *Worker) {
		q := createOn(r, w, "queue", []int{0})
		b.spawn(1, "consumer", func(w *Worker) {
			for i := 0; i < 3; i++ {
				got = append(got, r.Invoke(w, q, "get")[0].(int))
			}
		})
		b.spawn(2, "producer", func(w *Worker) {
			w.P.Sleep(200 * sim.Millisecond)
			for i := 0; i < 3; i++ {
				r.Invoke(w, q, "put", i*7)
			}
		})
	})
	b.run(30 * sim.Second)
	defer b.done()
	if len(got) != 3 {
		t.Fatalf("consumed %d items, want 3", len(got))
	}
	for i, v := range got {
		if v != i*7 {
			t.Fatalf("got %v, want FIFO of multiples of 7", got)
		}
	}
}

func TestCreateOnOutsidePlacementPanics(t *testing.T) {
	b, r := newBcastTB(t, 26, 3, nil)
	b.spawn(0, "main", func(w *Worker) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic creating outside placement")
			}
		}()
		createOn(r, w, "intcell", []int{1, 2})
	})
	b.run(2 * sim.Second)
	b.done()
}

func TestCreateOnEmptyPlacementIsFullReplication(t *testing.T) {
	b, r := newBcastTB(t, 27, 3, nil)
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = createOn(r, w, "intcell", nil, 9)
	})
	b.run(2 * sim.Second)
	defer b.done()
	for node := 0; node < 3; node++ {
		if _, ok := r.PeekState(node, id); !ok {
			t.Fatalf("node %d missing replica under nil placement", node)
		}
	}
}
