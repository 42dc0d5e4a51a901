package rts

import (
	"fmt"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// newRouterTB builds a Router cluster: the given number of sequencer
// groups, each over span consecutive machines (group k on block
// k mod n/span), plus the point-to-point domain, with a broadcast
// default. A batch configuration, if given, turns write combining on in
// both layers.
func newRouterTB(t *testing.T, seed int64, n, groups, span int, cfg P2PConfig, batch ...group.BatchConfig) (*tb, *Router) {
	t.Helper()
	env := sim.New(seed)
	nw := netsim.New(env, n, netsim.DefaultParams())
	ms := make([]*amoeba.Machine, n)
	for i := range ms {
		ms[i] = amoeba.NewMachine(env, nw, i, amoeba.DefaultCosts())
	}
	defs := make([]GroupDef, groups)
	for k := range defs {
		ids := make([]int, span)
		for i := range ids {
			ids[i] = (k%(n/span))*span + i
		}
		gcfg := group.DefaultConfig(ids)
		if len(batch) > 0 {
			gcfg.Batch = batch[0]
		}
		if groups > 1 {
			gcfg.Port = fmt.Sprintf("%s%d", group.Port, k)
		}
		defs[k] = GroupDef{Span: ids}
		for _, id := range ids {
			defs[k].Members = append(defs[k].Members, group.Join(ms[id], gcfg))
		}
	}
	m := NewRouter(testRegistry(), DefaultCosts(), ms, defs, &cfg, false)
	if len(batch) > 0 {
		m.EnableBatching(batch[0])
	}
	return &tb{env: env, net: nw, ms: ms}, m
}

// newMixedTB builds the classic mixed cluster: one sequencer group over
// every machine plus the point-to-point domain.
func newMixedTB(t *testing.T, seed int64, n int, cfg P2PConfig) (*tb, *Router) {
	t.Helper()
	return newRouterTB(t, seed, n, 1, n, cfg)
}

// place creates an object under pl; a placement error is a test bug.
func place(m *Router, w *Worker, typ string, pl Place, args ...any) ObjID {
	id, err := m.CreateAt(w, typ, pl, args...)
	if err != nil {
		panic(err)
	}
	return id
}

// singleCopy is the primary-copy placement the tests use.
var singleCopy = Place{Kind: PlacePrimary, Group: -1, Protocol: Update, Copies: SingleCopy}

// adaptive is an adaptive placement on a hashed home group.
func adaptive(cfg AdaptConfig) Place { return Place{Kind: PlaceAdaptive, Group: -1, Adapt: cfg} }

// TestMixedRoutesPerObject creates one object per subsystem and checks
// ids are unique, operations route to the right manager, and PeekState
// reflects each strategy's replica placement.
func TestMixedRoutesPerObject(t *testing.T) {
	b, m := newMixedTB(t, 1, 3, DefaultP2PConfig())
	done := false
	b.spawn(0, "driver", func(w *Worker) {
		rep := place(m, w, "intcell", Place{Group: -1}, 10) // broadcast (default)
		prim := place(m, w, "intcell", singleCopy, 20)
		part := place(m, w, "intcell", Place{Kind: PlaceReplicated, Group: -1, Nodes: []int{0, 1}}, 30)
		if rep == prim || prim == part || rep == part {
			t.Errorf("object ids collide: %d %d %d", rep, prim, part)
		}
		invoke(m, w, rep, "set", 11)
		invoke(m, w, prim, "set", 21)
		invoke(m, w, part, "set", 31)
		if got := invoke(m, w, rep, "get")[0].(int); got != 11 {
			t.Errorf("replicated get = %d, want 11", got)
		}
		if got := invoke(m, w, prim, "get")[0].(int); got != 21 {
			t.Errorf("primary-copy get = %d, want 21", got)
		}
		if got := invoke(m, w, part, "get")[0].(int); got != 31 {
			t.Errorf("partial get = %d, want 31", got)
		}
		w.Flush()
		// Replica placement: the broadcast object is everywhere, the
		// single-copy object only on its creator, the partial object on
		// its placement set.
		for node := 0; node < 3; node++ {
			if _, ok := m.PeekState(node, rep); !ok {
				t.Errorf("node %d holds no replica of the broadcast object", node)
			}
			_, hasPrim := m.PeekState(node, prim)
			if want := node == 0; hasPrim != want {
				t.Errorf("node %d primary-copy replica = %v, want %v", node, hasPrim, want)
			}
			_, hasPart := m.PeekState(node, part)
			if want := node <= 1; hasPart != want {
				t.Errorf("node %d partial replica = %v, want %v", node, hasPart, want)
			}
		}
		done = true
	})
	b.run(10 * sim.Second)
	b.done()
	if !done {
		t.Fatal("driver did not finish")
	}
}

// TestMixedCountersMerge checks the unified snapshot sums both
// subsystems: broadcast writes from the replicated object, p2p writes
// and remote reads from the primary-copy object.
func TestMixedCountersMerge(t *testing.T) {
	b, m := newMixedTB(t, 2, 2, DefaultP2PConfig())
	var ids [2]ObjID
	ready := sim.NewCond(b.env)
	b.spawn(0, "creator", func(w *Worker) {
		ids[0] = place(m, w, "intcell", Place{Group: -1})
		ids[1] = place(m, w, "intcell", singleCopy)
		w.Flush()
		ready.Broadcast()
	})
	b.spawn(1, "worker", func(w *Worker) {
		for ids[1] == 0 {
			ready.Wait(w.P)
		}
		invoke(m, w, ids[0], "inc") // broadcast write
		invoke(m, w, ids[0], "get") // local read
		invoke(m, w, ids[1], "inc") // p2p write via RPC
		invoke(m, w, ids[1], "get") // remote read (no local copy)
		w.Flush()
	})
	b.run(10 * sim.Second)
	b.done()
	st := m.Counters()
	if st.BcastWrites == 0 {
		t.Error("no broadcast writes counted")
	}
	if st.P2PWrites == 0 {
		t.Error("no p2p writes counted")
	}
	if st.RemoteReads == 0 {
		t.Error("no remote reads counted")
	}
	if st.LocalReads == 0 {
		t.Error("no local reads counted")
	}
}

// TestPerObjectProtocol hosts an invalidation-protocol object and an
// update-protocol object in the same point-to-point runtime and checks
// each object's writes run its own protocol.
func TestPerObjectProtocol(t *testing.T) {
	cfg := DefaultP2PConfig()
	cfg.Placement = FullReplication // secondaries exist from creation
	b, r := newP2PTB(t, 3, 3, cfg)
	var inval, upd ObjID
	ready := sim.NewCond(b.env)
	b.spawn(0, "creator", func(w *Worker) {
		inval = r.CreateWith(w, "intcell", Invalidation, FullReplication)
		upd = r.CreateWith(w, "intcell", Update, FullReplication)
		w.Flush()
		ready.Broadcast()
	})
	b.spawn(0, "writer", func(w *Worker) {
		for upd == 0 {
			ready.Wait(w.P)
		}
		base := r.Counters()
		r.Invoke(w, inval, "inc")
		w.Flush()
		after := r.Counters()
		if got := after.Invalidations - base.Invalidations; got != 2 {
			t.Errorf("invalidation-object write sent %d invalidations, want 2", got)
		}
		if after.Updates != base.Updates {
			t.Errorf("invalidation-object write sent %d updates, want 0", after.Updates-base.Updates)
		}
		base = after
		r.Invoke(w, upd, "inc")
		w.Flush()
		after = r.Counters()
		if got := after.Updates - base.Updates; got != 2 {
			t.Errorf("update-object write sent %d updates, want 2", got)
		}
		if after.Invalidations != base.Invalidations {
			t.Errorf("update-object write sent %d invalidations, want 0", after.Invalidations-base.Invalidations)
		}
	})
	b.run(10 * sim.Second)
	b.done()
}

// TestMixedGuardAcrossSubsystems blocks a consumer on a primary-copy
// queue's guard while broadcast objects carry traffic, then checks the
// enabling write wakes it.
func TestMixedGuardAcrossSubsystems(t *testing.T) {
	b, m := newMixedTB(t, 4, 2, DefaultP2PConfig())
	var q, noise ObjID
	got := 0
	ready := sim.NewCond(b.env)
	b.spawn(0, "creator", func(w *Worker) {
		q = place(m, w, "queue", singleCopy)
		noise = place(m, w, "intcell", Place{Group: -1})
		w.Flush()
		ready.Broadcast()
		// Broadcast traffic while the consumer is blocked, then the
		// enabling put.
		for i := 0; i < 5; i++ {
			invoke(m, w, noise, "inc")
		}
		w.P.Sleep(100 * sim.Millisecond)
		invoke(m, w, q, "put", 7)
		w.Flush()
	})
	b.spawn(1, "consumer", func(w *Worker) {
		for q == 0 {
			ready.Wait(w.P)
		}
		got = invoke(m, w, q, "get")[0].(int) // guard: blocks until the put
		w.Flush()
	})
	b.run(10 * sim.Second)
	b.done()
	if got != 7 {
		t.Fatalf("guarded get through the mixed runtime returned %d, want 7", got)
	}
}
