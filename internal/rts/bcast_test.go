package rts

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestBcastCreateReplicatesEverywhere(t *testing.T) {
	b, r := newBcastTB(t, 1, 4, nil)
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = r.Create(w, "intcell", 7)
	})
	b.run(5 * sim.Second)
	defer b.done()
	for node := 0; node < 4; node++ {
		s, ok := r.PeekState(node, id)
		if !ok {
			t.Fatalf("node %d has no replica", node)
		}
		if s.(*intCellState).v != 7 {
			t.Fatalf("node %d initial value = %d, want 7", node, s.(*intCellState).v)
		}
	}
}

func TestBcastWritePropagates(t *testing.T) {
	b, r := newBcastTB(t, 2, 4, nil)
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = r.Create(w, "intcell")
		r.Invoke(w, id, "set", 42)
	})
	b.run(5 * sim.Second)
	defer b.done()
	for node := 0; node < 4; node++ {
		s, _ := r.PeekState(node, id)
		if s.(*intCellState).v != 42 {
			t.Fatalf("node %d value = %d, want 42", node, s.(*intCellState).v)
		}
	}
}

func TestBcastReadYourWrites(t *testing.T) {
	b, r := newBcastTB(t, 3, 2, nil)
	ok := false
	b.spawn(0, "main", func(w *Worker) {
		id := r.Create(w, "intcell")
		r.Invoke(w, id, "set", 5)
		got := r.Invoke(w, id, "get")[0].(int)
		ok = got == 5
	})
	b.run(5 * sim.Second)
	defer b.done()
	if !ok {
		t.Fatal("write not visible to subsequent local read")
	}
}

func TestBcastReadsGenerateNoTraffic(t *testing.T) {
	b, r := newBcastTB(t, 4, 3, nil)
	b.spawn(0, "main", func(w *Worker) {
		id := r.Create(w, "intcell")
		r.Invoke(w, id, "set", 1)
		w.P.Sleep(100 * sim.Millisecond) // let the write settle
		before := b.net.Stats().Messages
		for i := 0; i < 1000; i++ {
			r.Invoke(w, id, "get")
		}
		after := b.net.Stats().Messages
		if after != before {
			t.Errorf("reads generated %d messages, want 0", after-before)
		}
	})
	b.run(5 * sim.Second)
	b.done()
}

// TestBcastIncLinearizable checks that concurrent read-modify-write
// operations are indivisible: every Inc returns a distinct old value
// forming exactly 0..N-1.
func TestBcastIncLinearizable(t *testing.T) {
	const nodes, perNode = 4, 25
	b, r := newBcastTB(t, 5, nodes, nil)
	var id ObjID
	results := make([][]int, nodes)
	b.spawn(0, "main", func(w *Worker) {
		id = r.Create(w, "intcell")
		for n := 0; n < nodes; n++ {
			n := n
			b.spawn(n, fmt.Sprintf("w%d", n), func(w *Worker) {
				for i := 0; i < perNode; i++ {
					old := r.Invoke(w, id, "inc")[0].(int)
					results[n] = append(results[n], old)
				}
			})
		}
	})
	b.run(60 * sim.Second)
	defer b.done()
	seen := map[int]bool{}
	total := 0
	for n := range results {
		for _, v := range results[n] {
			if seen[v] {
				t.Fatalf("value %d returned twice: Inc not indivisible", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != nodes*perNode {
		t.Fatalf("completed %d incs, want %d", total, nodes*perNode)
	}
	for i := 0; i < total; i++ {
		if !seen[i] {
			t.Fatalf("missing inc result %d", i)
		}
	}
}

// TestBcastGuardedQueue checks Orca guarded operations: consumers
// block on Get until producers Put, every item is consumed exactly
// once, across machines.
func TestBcastGuardedQueue(t *testing.T) {
	const items = 40
	b, r := newBcastTB(t, 6, 4, nil)
	var consumed []int
	b.spawn(0, "main", func(w *Worker) {
		q := r.Create(w, "queue")
		done := r.Create(w, "intcell")
		for c := 1; c <= 2; c++ {
			c := c
			b.spawn(c, fmt.Sprintf("consumer%d", c), func(w *Worker) {
				for {
					v := r.Invoke(w, q, "get")[0].(int)
					if v < 0 {
						break
					}
					consumed = append(consumed, v)
				}
				r.Invoke(w, done, "inc")
			})
		}
		b.spawn(3, "producer", func(w *Worker) {
			for i := 0; i < items; i++ {
				r.Invoke(w, q, "put", i)
			}
			r.Invoke(w, q, "put", -1) // poison pills
			r.Invoke(w, q, "put", -1)
		})
	})
	b.run(120 * sim.Second)
	defer b.done()
	if len(consumed) != items {
		t.Fatalf("consumed %d items, want %d", len(consumed), items)
	}
	seen := map[int]bool{}
	for _, v := range consumed {
		if seen[v] {
			t.Fatalf("item %d consumed twice", v)
		}
		seen[v] = true
	}
}

func TestBcastGuardedRead(t *testing.T) {
	b, r := newBcastTB(t, 7, 2, nil)
	var awaited, setAt, awaitDone sim.Time
	b.spawn(0, "main", func(w *Worker) {
		f := r.Create(w, "flag")
		b.spawn(1, "waiter", func(w *Worker) {
			awaited = w.P.Now()
			r.Invoke(w, f, "await")
			awaitDone = w.P.Now()
		})
		w.P.Sleep(500 * sim.Millisecond)
		setAt = w.P.Now()
		r.Invoke(w, f, "set", true)
	})
	b.run(10 * sim.Second)
	defer b.done()
	if awaitDone <= setAt {
		t.Fatalf("await completed at %v, before set at %v", awaitDone, setAt)
	}
	if awaited >= setAt {
		t.Fatal("waiter started too late to actually block")
	}
}

// TestBcastReplicaConvergence drives random write workloads from all
// nodes and requires every replica to reach the identical final state.
func TestBcastReplicaConvergence(t *testing.T) {
	f := func(seed int64) bool {
		const nodes = 3
		b, r := newBcastTB(t, seed, nodes, nil)
		var id ObjID
		b.spawn(0, "main", func(w *Worker) {
			id = r.Create(w, "intcell")
			for n := 0; n < nodes; n++ {
				n := n
				b.spawn(n, fmt.Sprintf("w%d", n), func(w *Worker) {
					rng := b.env.Rand()
					for i := 0; i < 20; i++ {
						switch rng.Intn(3) {
						case 0:
							r.Invoke(w, id, "set", rng.Intn(100))
						case 1:
							r.Invoke(w, id, "inc")
						case 2:
							r.Invoke(w, id, "min", rng.Intn(100))
						}
					}
				})
			}
		})
		b.run(120 * sim.Second)
		defer b.done()
		s0, ok := r.PeekState(0, id)
		if !ok {
			return false
		}
		want := s0.(*intCellState).v
		for n := 1; n < nodes; n++ {
			s, ok := r.PeekState(n, id)
			if !ok || s.(*intCellState).v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBcastMinOpRaceFree(t *testing.T) {
	// The paper: "The indivisible operation that updates the object
	// first checks if the new value actually is less than the current
	// value, to prevent race conditions."
	const nodes = 4
	b, r := newBcastTB(t, 9, nodes, nil)
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = r.Create(w, "intcell", 1000)
		for n := 0; n < nodes; n++ {
			n := n
			b.spawn(n, fmt.Sprintf("w%d", n), func(w *Worker) {
				for i := 0; i < 10; i++ {
					v := 100 - 10*n - i
					r.Invoke(w, id, "min", v)
				}
			})
		}
	})
	b.run(60 * sim.Second)
	defer b.done()
	want := 100 - 10*(nodes-1) - 9
	for n := 0; n < nodes; n++ {
		s, _ := r.PeekState(n, id)
		if got := s.(*intCellState).v; got != want {
			t.Fatalf("node %d min = %d, want %d", n, got, want)
		}
	}
}

func TestBcastManyObjects(t *testing.T) {
	b, r := newBcastTB(t, 10, 3, nil)
	const objs = 20
	ids := make([]ObjID, objs)
	b.spawn(0, "main", func(w *Worker) {
		for i := range ids {
			ids[i] = r.Create(w, "intcell")
		}
		for i, id := range ids {
			r.Invoke(w, id, "set", i*i)
		}
	})
	b.run(30 * sim.Second)
	defer b.done()
	for node := 0; node < 3; node++ {
		for i, id := range ids {
			s, ok := r.PeekState(node, id)
			if !ok || s.(*intCellState).v != i*i {
				t.Fatalf("node %d object %d wrong state", node, i)
			}
		}
	}
}

func TestBcastPendingGuardDrainOrder(t *testing.T) {
	// Two guarded gets queued before any put: they must both complete
	// after two puts, on every replica identically.
	b, r := newBcastTB(t, 11, 3, nil)
	var got []int
	b.spawn(0, "main", func(w *Worker) {
		q := r.Create(w, "queue")
		for c := 1; c <= 2; c++ {
			c := c
			b.spawn(c, fmt.Sprintf("getter%d", c), func(w *Worker) {
				v := r.Invoke(w, q, "get")[0].(int)
				got = append(got, v)
			})
		}
		w.P.Sleep(time500ms)
		r.Invoke(w, q, "put", 10)
		r.Invoke(w, q, "put", 20)
	})
	b.run(30 * sim.Second)
	defer b.done()
	if len(got) != 2 {
		t.Fatalf("completed %d gets, want 2", len(got))
	}
	if got[0] == got[1] {
		t.Fatalf("both gets returned %d", got[0])
	}
	for node := 0; node < 3; node++ {
		if n := r.PendingWrites(node, 1); n != 0 {
			t.Fatalf("node %d still has %d pending writes", node, n)
		}
	}
}

const time500ms = 500 * sim.Millisecond

func TestBcastStatsCount(t *testing.T) {
	b, r := newBcastTB(t, 12, 2, nil)
	b.spawn(0, "main", func(w *Worker) {
		id := r.Create(w, "intcell")
		for i := 0; i < 10; i++ {
			r.Invoke(w, id, "get")
		}
		for i := 0; i < 3; i++ {
			r.Invoke(w, id, "set", i)
		}
	})
	b.run(10 * sim.Second)
	defer b.done()
	st := r.Counters()
	reads, writes := st.LocalReads, st.BcastWrites
	if reads != 10 {
		t.Fatalf("localReads = %d, want 10", reads)
	}
	if writes != 3 {
		t.Fatalf("bcastWrites = %d, want 3", writes)
	}
}

func TestBcastDeterministic(t *testing.T) {
	run := func() int {
		b, r := newBcastTB(t, 99, 3, nil)
		var id ObjID
		b.spawn(0, "main", func(w *Worker) {
			id = r.Create(w, "intcell")
			for n := 0; n < 3; n++ {
				n := n
				b.spawn(n, fmt.Sprintf("w%d", n), func(w *Worker) {
					for i := 0; i < 15; i++ {
						r.Invoke(w, id, "inc")
						w.Charge(sim.Time(n+1) * 100 * sim.Microsecond)
					}
				})
			}
		})
		b.run(60 * sim.Second)
		defer b.done()
		s, _ := r.PeekState(1, id)
		return s.(*intCellState).v
	}
	if a, bv := run(), run(); a != bv {
		t.Fatalf("non-deterministic: %d vs %d", a, bv)
	}
}
