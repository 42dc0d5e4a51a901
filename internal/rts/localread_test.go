package rts

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// localReadCase is one row of the local-read decline table: a scenario
// whose typed reads go through read, which falls back to Call when the
// typed path declines.
type localReadCase struct {
	name  string
	batch bool // run with write combining
	// declines is how many of the scenario's typed reads decline.
	declines int
	run      func(t *testing.T, b *tb, m *Router, read func(w *Worker, id ObjID, op *OpDef) any)
}

// testOp resolves an operation of one of the test types.
func testOp(m *Router, typ, name string) *OpDef { return m.reg.Lookup(typ).Op(name) }

// noDecisions is an adaptive placement whose controller never decides
// within these scenarios, so every read it counts stays in its window.
var noDecisions = adaptive(AdaptConfig{SampleEvery: 1 << 20})

var localReadCases = []localReadCase{
	{name: "hit", run: func(t *testing.T, b *tb, m *Router, read func(*Worker, ObjID, *OpDef) any) {
		b.spawn(0, "main", func(w *Worker) {
			id := place(m, w, "intcell", Place{Kind: PlaceReplicated, Group: 1}, 3)
			for i := 0; i < 50; i++ {
				read(w, id, testOp(m, "intcell", "get"))
				w.Charge(100 * sim.Microsecond) // flushes every fifth read
			}
		})
	}},
	{name: "guard", declines: 1, run: func(t *testing.T, b *tb, m *Router, read func(*Worker, ObjID, *OpDef) any) {
		b.spawn(0, "main", func(w *Worker) {
			id := place(m, w, "flag", Place{Kind: PlaceReplicated, Group: 1})
			b.spawn(2, "reader", func(w *Worker) {
				read(w, id, testOp(m, "flag", "get")) // a hit
				read(w, id, testOp(m, "flag", "await"))
				read(w, id, testOp(m, "flag", "get"))
			})
			w.P.Sleep(5 * sim.Millisecond)
			invoke(m, w, id, "set", true)
		})
	}},
	{name: "non-holder", declines: 3, run: func(t *testing.T, b *tb, m *Router, read func(*Worker, ObjID, *OpDef) any) {
		b.spawn(0, "main", func(w *Worker) {
			id := place(m, w, "intcell", Place{Kind: PlaceReplicated, Group: 0, Nodes: []int{0, 1}}, 7)
			for _, node := range []int{1, 3} {
				b.spawn(node, fmt.Sprintf("reader%d", node), func(w *Worker) {
					for i := 0; i < 3; i++ {
						read(w, id, testOp(m, "intcell", "get"))
					}
				})
			}
		})
	}},
	{name: "p2p", declines: 3, run: func(t *testing.T, b *tb, m *Router, read func(*Worker, ObjID, *OpDef) any) {
		b.spawn(0, "main", func(w *Worker) {
			id := place(m, w, "intcell", singleCopy, 9)
			b.spawn(2, "reader", func(w *Worker) {
				for i := 0; i < 3; i++ {
					read(w, id, testOp(m, "intcell", "get"))
				}
			})
		})
	}},
	{name: "adaptive", run: func(t *testing.T, b *tb, m *Router, read func(*Worker, ObjID, *OpDef) any) {
		b.spawn(0, "main", func(w *Worker) {
			id := place(m, w, "intcell", noDecisions, 4)
			for node, n := range []int{0, 5, 3, 0} {
				b.spawn(node, fmt.Sprintf("reader%d", node), func(w *Worker) {
					for i := 0; i < n; i++ {
						read(w, id, testOp(m, "intcell", "get"))
					}
				})
			}
		})
	}},
	{name: "frozen", declines: 2, run: func(t *testing.T, b *tb, m *Router, read func(*Worker, ObjID, *OpDef) any) {
		b.spawn(0, "main", func(w *Worker) {
			id := place(m, w, "intcell", noDecisions, 6)
			b.spawn(2, "reader", func(w *Worker) {
				read(w, id, testOp(m, "intcell", "get"))
				w.P.Sleep(20 * sim.Millisecond) // past the migration
				if inst := m.nodes[2].seqCopy(id); inst != nil && !inst.moved {
					t.Error("node 2's replica is live after the migration")
				}
				read(w, id, testOp(m, "intcell", "get"))
				read(w, id, testOp(m, "intcell", "get"))
			})
			w.P.Sleep(5 * sim.Millisecond)
			m.startMigration(w, id, m.objs[id].adapt, adaptToPrimary, 1)
		})
	}},
	{name: "frozen-behind", declines: 1, run: func(t *testing.T, b *tb, m *Router, read func(*Worker, ObjID, *OpDef) any) {
		// The object goes to a primary copy and comes back. Node 3's
		// CPU is busy when it comes back, so node 3 still holds the
		// replica frozen at the first cut when the object is replicated
		// again: a read there declines and waits for the new replica.
		var id ObjID
		b.spawn(0, "main", func(w *Worker) {
			id = place(m, w, "intcell", noDecisions, 6)
			info := m.objs[id].adapt
			w.P.Sleep(5 * sim.Millisecond)
			m.startMigration(w, id, info, adaptToPrimary, 1)
			invoke(m, w, id, "set", 12)
			w.P.Sleep(5 * sim.Millisecond)
			b.spawn(3, "hog", func(w *Worker) { w.M.Compute(w.P, 30*sim.Millisecond) })
			m.startMigration(w, id, info, adaptToReplicated, -1)
		})
		b.spawn(3, "reader", func(w *Worker) {
			for id == 0 || m.objs[id].dom != domP2P {
				w.P.Sleep(10 * sim.Microsecond)
			}
			for m.objs[id].dom == domP2P {
				w.P.Sleep(10 * sim.Microsecond)
			}
			if inst := m.nodes[3].seqCopy(id); inst == nil || !inst.moved {
				t.Error("node 3's replica is live when the object is replicated again: the case does not decline")
			}
			read(w, id, testOp(m, "intcell", "get"))
		})
	}},
	{name: "own-write", batch: true, run: func(t *testing.T, b *tb, m *Router, read func(*Worker, ObjID, *OpDef) any) {
		b.spawn(1, "writer", func(w *Worker) {
			id := place(m, w, "intcell", Place{Kind: PlaceReplicated, Group: 1}, 0)
			other := place(m, w, "intcell", Place{Kind: PlaceReplicated, Group: 1}, 8)
			read(w, id, testOp(m, "intcell", "get"))
			read(w, other, testOp(m, "intcell", "get"))
			for i := 1; i <= 3; i++ {
				invoke(m, w, id, "set", 10*i)               // buffered
				read(w, other, testOp(m, "intcell", "get")) // does not sync
				if v := read(w, id, testOp(m, "intcell", "get")); v != 10*i {
					t.Errorf("read %v after buffering set %d", v, 10*i)
				}
			}
			if m.Counters().BatchedOps < 3 {
				t.Error("the sets were not combined")
			}
		})
	}},
	{name: "before-create", run: func(t *testing.T, b *tb, m *Router, read func(*Worker, ObjID, *OpDef) any) {
		// Node 3's CPU is busy when the creation arrives, so the
		// reader there knows the object before its replica exists.
		b.spawn(3, "hog", func(w *Worker) { w.M.Compute(w.P, 30*sim.Millisecond) })
		var id ObjID
		b.spawn(0, "main", func(w *Worker) {
			id = place(m, w, "intcell", Place{Kind: PlaceReplicated, Group: 0}, 11)
		})
		b.spawn(3, "reader", func(w *Worker) {
			for id == 0 {
				w.P.Sleep(10 * sim.Microsecond)
			}
			if m.nodes[3].seqCopy(id) != nil {
				t.Error("node 3's replica exists before the read: the case does not wait")
			}
			for i := 0; i < 3; i++ {
				read(w, id, testOp(m, "intcell", "get"))
			}
		})
	}},
}

// TestLocalReadDeclines is the typed local-read fast path's decline
// table. Every row runs three times: through LocalReadState, whose hit
// path reads a non-adaptive object's replica straight out of the
// machine's replica table; through its general path alone, which
// resolves every read; and through Call alone, the routed path. All
// three must read the same values at the same virtual instants, count
// the same local reads per group and adaptive reads per machine, and
// end with the same event count, and the two typed runs must decline
// the same reads.
func TestLocalReadDeclines(t *testing.T) {
	for _, c := range localReadCases {
		t.Run(c.name, func(t *testing.T) {
			fast, declines := localReadRun(t, c, "fast")
			for _, path := range []string{"general", "call"} {
				fp, d := localReadRun(t, c, path)
				if fp != fast {
					t.Errorf("the fast path differs from the %s one:\n fast %s\n %s %s", path, fast, path, fp)
				}
				if path == "general" && d != declines {
					t.Errorf("the fast path declines %d reads, the general one %d", declines, d)
				}
			}
			if declines != c.declines {
				t.Errorf("%d declines, want %d", declines, c.declines)
			}
		})
	}
}

// localReadRun runs one row with its typed reads going the given path,
// and returns its fingerprint and how many typed reads declined.
func localReadRun(t *testing.T, c localReadCase, path string) (string, int) {
	var b *tb
	var m *Router
	if c.batch {
		b, m = newRouterTB(t, 3, 4, 2, 4, DefaultP2PConfig(), testBatch())
	} else {
		b, m = newRouterTB(t, 3, 4, 2, 4, DefaultP2PConfig())
	}
	defer b.done()
	via := map[string]func(*Worker, ObjID, *OpDef) (State, bool){
		"fast":    m.LocalReadState,
		"general": m.resolveRead,
		"call":    func(*Worker, ObjID, *OpDef) (State, bool) { return nil, false },
	}[path]
	var log []string
	declines := 0
	read := func(w *Worker, id ObjID, op *OpDef) any {
		var v any
		st, ok := via(w, id, op)
		if ok {
			res := op.Apply(nil, st, Args{})
			v = res.Value(0)
		} else {
			declines++
			v = invoke(m, w, id, op.Name)[0]
		}
		log = append(log, fmt.Sprintf("%s:%v@%v", w.P.Name(), v, w.P.Now()))
		return v
	}
	c.run(t, b, m, read)
	b.run(2 * sim.Second)
	fp := fmt.Sprintf("reads=%v local=[%d %d]", log, m.groups[0].counters().LocalReads, m.groups[1].counters().LocalReads)
	for id, e := range m.objs {
		if e.adapt != nil {
			fp += fmt.Sprintf(" adapt%d=%v/%d", id, e.adapt.reads, e.adapt.seen)
		}
	}
	return fp + fmt.Sprintf(" events=%d", b.env.Events()), declines
}
