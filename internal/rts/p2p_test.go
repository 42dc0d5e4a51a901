package rts

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func dynCfg(proto P2PProtocol) P2PConfig {
	cfg := DefaultP2PConfig()
	cfg.Protocol = proto
	return cfg
}

func TestP2PCreateSingleCopy(t *testing.T) {
	b, r := newP2PTB(t, 1, 4, dynCfg(Update))
	var id ObjID
	b.spawn(2, "main", func(w *Worker) {
		id = r.Create(w, "intcell", 9)
	})
	b.run(sim.Second)
	defer b.done()
	if r.Primary(id) != 2 {
		t.Fatalf("primary = %d, want 2", r.Primary(id))
	}
	if n := r.CopyCount(id); n != 1 {
		t.Fatalf("copies = %d, want 1 (paper: one copy initially)", n)
	}
}

func TestP2PRemoteReadAndWrite(t *testing.T) {
	b, r := newP2PTB(t, 2, 3, dynCfg(Update))
	var got int
	b.spawn(0, "main", func(w *Worker) {
		id := r.Create(w, "intcell")
		b.spawn(2, "remote", func(w *Worker) {
			r.Invoke(w, id, "set", 13)
			got = r.Invoke(w, id, "get")[0].(int)
		})
	})
	b.run(10 * sim.Second)
	defer b.done()
	if got != 13 {
		t.Fatalf("remote read = %d, want 13", got)
	}
	st := r.Counters()
	if st.RemoteReads == 0 {
		t.Fatal("expected remote reads")
	}
}

func TestP2PDynamicFetchOnReadHeavyUse(t *testing.T) {
	b, r := newP2PTB(t, 3, 2, dynCfg(Update))
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = r.Create(w, "intcell", 5)
		b.spawn(1, "reader", func(w *Worker) {
			for i := 0; i < 50; i++ {
				r.Invoke(w, id, "get")
			}
		})
	})
	b.run(30 * sim.Second)
	defer b.done()
	if !r.HasCopy(1, id) {
		t.Fatal("read-heavy node did not fetch a copy")
	}
	if r.Counters().Fetches == 0 {
		t.Fatal("no fetch recorded")
	}
	// Once the copy exists, reads must be local.
	if r.Counters().LocalReads == 0 {
		t.Fatal("no local reads after fetch")
	}
}

func TestP2PLocalReadsAfterFetchGenerateNoTraffic(t *testing.T) {
	b, r := newP2PTB(t, 4, 2, dynCfg(Update))
	b.spawn(0, "main", func(w *Worker) {
		id := r.Create(w, "intcell", 5)
		b.spawn(1, "reader", func(w *Worker) {
			for i := 0; i < 30; i++ { // drive the fetch
				r.Invoke(w, id, "get")
			}
			w.P.Sleep(100 * sim.Millisecond)
			before := b.net.Stats().Messages
			for i := 0; i < 500; i++ {
				r.Invoke(w, id, "get")
			}
			if after := b.net.Stats().Messages; after != before {
				t.Errorf("local reads generated %d messages", after-before)
			}
		})
	})
	b.run(60 * sim.Second)
	b.done()
}

func TestP2PInvalidationDropsCopies(t *testing.T) {
	b, r := newP2PTB(t, 5, 3, dynCfg(Invalidation))
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = r.Create(w, "intcell")
		b.spawn(1, "reader", func(w *Worker) {
			for i := 0; i < 50; i++ {
				r.Invoke(w, id, "get")
			}
			// Now node 1 has a copy; a write from node 2 must
			// invalidate it.
			b.spawn(2, "writer", func(w *Worker) {
				r.Invoke(w, id, "set", 77)
			})
		})
	})
	b.run(30 * sim.Second)
	defer b.done()
	if r.HasCopy(1, id) {
		t.Fatal("secondary survived an invalidation write")
	}
	if n := r.CopyCount(id); n != 1 {
		t.Fatalf("copies after write = %d, want 1", n)
	}
	if r.Counters().Invalidations == 0 {
		t.Fatal("no invalidations recorded")
	}
	s, _ := r.PeekState(0, id)
	if s.(*intCellState).v != 77 {
		t.Fatalf("primary value = %d, want 77", s.(*intCellState).v)
	}
}

func TestP2PUpdateKeepsCopiesConsistent(t *testing.T) {
	b, r := newP2PTB(t, 6, 3, dynCfg(Update))
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = r.Create(w, "intcell")
		b.spawn(1, "reader", func(w *Worker) {
			for i := 0; i < 50; i++ {
				r.Invoke(w, id, "get")
			}
			b.spawn(2, "writer", func(w *Worker) {
				for i := 0; i < 5; i++ {
					r.Invoke(w, id, "inc")
				}
			})
		})
	})
	b.run(60 * sim.Second)
	defer b.done()
	if !r.HasCopy(1, id) {
		t.Fatal("update protocol discarded the secondary")
	}
	s0, _ := r.PeekState(0, id)
	s1, _ := r.PeekState(1, id)
	if s0.(*intCellState).v != 5 || s1.(*intCellState).v != 5 {
		t.Fatalf("states diverged: primary=%d secondary=%d, want 5",
			s0.(*intCellState).v, s1.(*intCellState).v)
	}
	if r.Counters().Updates == 0 {
		t.Fatal("no update messages recorded")
	}
}

func TestP2PDiscardOnWriteHeavyUse(t *testing.T) {
	cfg := dynCfg(Update)
	b, r := newP2PTB(t, 7, 2, cfg)
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = r.Create(w, "intcell")
		b.spawn(1, "worker", func(w *Worker) {
			// Phase 1: read-heavy, acquires a copy.
			for i := 0; i < 40; i++ {
				r.Invoke(w, id, "get")
			}
			if !r.HasCopy(1, id) {
				t.Error("no copy after read-heavy phase")
			}
			// Phase 2: write-heavy, should discard.
			for i := 0; i < 40; i++ {
				r.Invoke(w, id, "set", i)
			}
		})
	})
	b.run(60 * sim.Second)
	defer b.done()
	if r.HasCopy(1, id) {
		t.Fatal("write-heavy node kept its copy")
	}
	if r.Counters().Discards == 0 {
		t.Fatal("no discard recorded")
	}
}

func TestP2PFullReplicationPlacement(t *testing.T) {
	cfg := dynCfg(Update)
	cfg.Placement = FullReplication
	b, r := newP2PTB(t, 8, 4, cfg)
	var id ObjID
	b.spawn(0, "main", func(w *Worker) {
		id = r.Create(w, "intcell", 3)
	})
	b.run(5 * sim.Second)
	defer b.done()
	if n := r.CopyCount(id); n != 4 {
		t.Fatalf("copies = %d, want 4 under full replication", n)
	}
}

func TestP2PGuardedOpAcrossMachines(t *testing.T) {
	for _, proto := range []P2PProtocol{Invalidation, Update} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			b, r := newP2PTB(t, 9, 3, dynCfg(proto))
			var got []int
			b.spawn(0, "main", func(w *Worker) {
				q := r.Create(w, "queue")
				b.spawn(1, "consumer", func(w *Worker) {
					for i := 0; i < 3; i++ {
						got = append(got, r.Invoke(w, q, "get")[0].(int))
					}
				})
				b.spawn(2, "producer", func(w *Worker) {
					w.P.Sleep(300 * sim.Millisecond)
					for i := 0; i < 3; i++ {
						r.Invoke(w, q, "put", i*11)
					}
				})
			})
			b.run(60 * sim.Second)
			defer b.done()
			if len(got) != 3 {
				t.Fatalf("consumed %d, want 3", len(got))
			}
			for i, v := range got {
				if v != i*11 {
					t.Fatalf("got %v, want FIFO order", got)
				}
			}
		})
	}
}

func TestP2PIncLinearizable(t *testing.T) {
	for _, proto := range []P2PProtocol{Invalidation, Update} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			const nodes, perNode = 3, 15
			b, r := newP2PTB(t, 10, nodes, dynCfg(proto))
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
			b.run(120 * sim.Second)
			defer b.done()
			seen := map[int]bool{}
			total := 0
			for _, rs := range results {
				for _, v := range rs {
					if seen[v] {
						t.Fatalf("duplicate inc result %d", v)
					}
					seen[v] = true
					total++
				}
			}
			if total != nodes*perNode {
				t.Fatalf("total incs = %d, want %d", total, nodes*perNode)
			}
		})
	}
}

// Property: under either protocol with mixed random workloads, all
// surviving copies equal the primary at quiescence.
func TestP2PConvergenceProperty(t *testing.T) {
	f := func(seed int64, useUpdate bool) bool {
		proto := Invalidation
		if useUpdate {
			proto = Update
		}
		const nodes = 3
		b, r := newP2PTB(t, seed, nodes, dynCfg(proto))
		var id ObjID
		b.spawn(0, "main", func(w *Worker) {
			id = r.Create(w, "intcell")
			for n := 0; n < nodes; n++ {
				n := n
				b.spawn(n, fmt.Sprintf("w%d", n), func(w *Worker) {
					rng := b.env.Rand()
					for i := 0; i < 25; i++ {
						if rng.Intn(10) < 7 {
							r.Invoke(w, id, "get")
						} else {
							r.Invoke(w, id, "inc")
						}
					}
				})
			}
		})
		b.run(120 * sim.Second)
		defer b.done()
		prim, ok := r.PeekState(r.Primary(id), id)
		if !ok {
			return false
		}
		want := prim.(*intCellState).v
		for n := 0; n < nodes; n++ {
			if s, ok := r.PeekState(n, id); ok {
				if s.(*intCellState).v != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestP2PReadBlocksWhileLocked(t *testing.T) {
	// Use a slow write op so the update window is observable: the
	// secondary must not serve a read between phase 1 and phase 2.
	b, r := newP2PTB(t, 11, 2, dynCfg(Update))
	var readVal int
	var readAt sim.Time
	b.spawn(0, "main", func(w *Worker) {
		id := r.Create(w, "intcell")
		b.spawn(1, "reader", func(w *Worker) {
			for i := 0; i < 40; i++ { // acquire a copy
				r.Invoke(w, id, "get")
			}
			// Writer on primary starts a two-phase update.
			b.spawn(0, "writer", func(w *Worker) {
				r.Invoke(w, id, "set", 1)
			})
			w.P.Sleep(time500ms)
			readVal = r.Invoke(w, id, "get")[0].(int)
			readAt = w.P.Now()
		})
	})
	b.run(60 * sim.Second)
	defer b.done()
	if readVal != 1 {
		t.Fatalf("read %d after update committed, want 1", readVal)
	}
	if readAt == 0 {
		t.Fatal("read never completed")
	}
}

func TestP2PManyObjectsIndependentPrimaries(t *testing.T) {
	b, r := newP2PTB(t, 12, 4, dynCfg(Update))
	ids := make([]ObjID, 4)
	b.spawn(0, "boot", func(w *Worker) {
		for n := 0; n < 4; n++ {
			n := n
			b.spawn(n, fmt.Sprintf("creator%d", n), func(w *Worker) {
				ids[n] = r.Create(w, "intcell", n)
			})
		}
	})
	b.run(5 * sim.Second)
	for n := 0; n < 4; n++ {
		if r.Primary(ids[n]) != n {
			t.Fatalf("object %d primary = %d, want %d", n, r.Primary(ids[n]), n)
		}
	}
	b.done()
}
