package rts

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rts/scheck"
	"repro/internal/sim"
)

// TestAdaptiveSequentialConsistency hammers one adaptive object from
// eight processes while its placement migrates under them — replicated
// to primary copy when node 0's writes dominate, re-homed when the
// write traffic moves to node 1, back to replicated when the workload
// turns read-only — and validates every process's observed history
// with the scheck witness. This is the acceptance test for the
// migration cut: operations sequenced before the cut complete under
// the old placement, operations after it bounce and re-issue exactly
// once under the new one, so no process may ever observe values out of
// write order, mid-migration included.
func TestAdaptiveSequentialConsistency(t *testing.T) {
	f := func(seed int64, typed bool) bool {
		adaptiveSCRun(t, seed, 30, typed)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
	// Regression: typed reads (LocalReadState, Call on decline) must
	// not be served from a replica frozen at a p2p->broadcast cut whose
	// install record this machine has not delivered yet. Seed 94 is the
	// one that caught it; its neighbours keep the net wide.
	for seed := int64(88); seed <= 100; seed++ {
		adaptiveSCRun(t, seed, 40, true)
	}
}

// adaptiveSCRun is one hammer run of iters operations per process (ten
// with node 0 writing, ten with node 1 writing, the rest read-only),
// with reads going through the typed local-read path — LocalReadState,
// Call when it declines — when typed is set.
func adaptiveSCRun(t *testing.T, seed int64, iters int, typed bool) {
	t.Helper()
	const nodes = 8
	b, m := newMixedTB(t, seed, nodes, DefaultP2PConfig())
	defer b.done()
	// Thresholds sized for this traffic shape: one sole writer among
	// eight processes gives a ~0.125 write fraction with dominant
	// share 1.0, so 0.08/0.04 bracket the write phases against the
	// read-only phase.
	cfg := AdaptConfig{
		SampleEvery:    24,
		MinDwell:       sim.Millisecond,
		WriteHeavyFrac: 0.08,
		ReadHeavyFrac:  0.04,
		DominantFrac:   0.5,
	}
	get := m.reg.Lookup("intcell").Op("get")
	var id ObjID
	read := func(w *Worker) int {
		if typed {
			if st, ok := m.LocalReadState(w, id, get); ok {
				return st.(*intCellState).v
			}
		}
		return invoke(m, w, id, "get")[0].(int)
	}
	histories := make([][]scheck.Op, nodes)
	b.spawn(0, "boot", func(w *Worker) {
		id = place(m, w, "intcell", adaptive(cfg)) // starts at 0
		for n := 0; n < nodes; n++ {
			n := n
			b.spawn(n, fmt.Sprintf("p%d", n), func(w *Worker) {
				rng := b.env.Rand()
				for i := 0; i < iters; i++ {
					// Three phases: node 0 writes, then node 1
					// writes, then everyone reads — driving the
					// object through to-primary, re-home, and
					// to-replicated migrations mid-hammer.
					writer := -1
					switch i / 10 {
					case 0:
						writer = 0
					case 1:
						writer = 1
					}
					if n == writer {
						v := n*1000 + i + 1 // unique nonzero value
						invoke(m, w, id, "set", v)
						histories[n] = append(histories[n], scheck.Op{Proc: n, Write: true, Val: v})
					} else {
						histories[n] = append(histories[n], scheck.Op{Proc: n, Val: read(w)})
					}
					w.Charge(sim.Time(rng.Intn(500)) * sim.Microsecond)
				}
			})
		}
	})
	b.run(240 * sim.Second)
	if err := scheck.Check(histories); err != nil {
		t.Fatalf("seed %d typed %v: %v", seed, typed, err)
	}
	if st := m.Counters(); st.Migrations == 0 {
		t.Fatalf("seed %d: no migration fired — the stress test did not exercise the cut", seed)
	}
}
