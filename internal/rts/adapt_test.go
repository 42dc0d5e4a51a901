package rts

import (
	"testing"

	"repro/internal/sim"
)

// Controller parameters tightened for tests: small windows and a short
// dwell so a handful of operations triggers a decision.
func testAdaptCfg() AdaptConfig {
	return AdaptConfig{SampleEvery: 16, MinDwell: sim.Millisecond}
}

// TestAdaptWriteHeavyMigratesToPrimary drives write-heavy traffic from
// one machine at a replicated adaptive object and checks the controller
// migrates it to a primary copy on that machine, with the value intact
// across the cut.
func TestAdaptWriteHeavyMigratesToPrimary(t *testing.T) {
	b, m := newMixedTB(t, 11, 3, DefaultP2PConfig())
	var id ObjID
	ready := sim.NewCond(b.env)
	b.spawn(0, "creator", func(w *Worker) {
		id = place(m, w, "intcell", adaptive(testAdaptCfg()), 5)
		w.Flush()
		ready.Broadcast()
	})
	b.spawn(1, "writer", func(w *Worker) {
		for id == 0 {
			ready.Wait(w.P)
		}
		w.P.Sleep(2 * sim.Millisecond) // put the first decision past the dwell
		for i := 0; i < 40; i++ {
			invoke(m, w, id, "inc")
		}
		w.Flush()
		if got := invoke(m, w, id, "get")[0].(int); got != 45 {
			t.Errorf("value after migration = %d, want 45", got)
		}
	})
	b.run(10 * sim.Second)
	b.done()
	if pl := m.AdaptivePlacements()[id]; pl != "primary@1" {
		t.Errorf("placement = %q, want primary@1", pl)
	}
	if st := m.Counters(); st.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", st.Migrations)
	}
}

// TestAdaptLocalReadsDecideAtNextCall pins the controller's decision
// rule: a local read served by LocalReadState counts itself into the
// statistics window but does not decide, so a window that such reads
// fill stays unfolded, however far past SampleEvery they go; the
// object's next access through Call folds it.
func TestAdaptLocalReadsDecideAtNextCall(t *testing.T) {
	b, m := newMixedTB(t, 11, 3, DefaultP2PConfig())
	defer b.done()
	cfg := testAdaptCfg()
	reads := cfg.SampleEvery + 3
	b.spawn(0, "main", func(w *Worker) {
		id := place(m, w, "intcell", adaptive(cfg), 0)
		info := m.objs[id].adapt
		for i := 0; i < reads; i++ {
			if _, ok := m.LocalReadState(w, id, testOp(m, "intcell", "get")); !ok {
				t.Fatalf("local read %d declined", i)
			}
		}
		if info.seen != reads || info.primed {
			t.Errorf("after %d local reads: %d accesses in the window, folded %t; want %d, unfolded", reads, info.seen, info.primed, reads)
		}
		invoke(m, w, id, "set", 1)
		if want := 1 / float64(reads+1); info.seen != 0 || !info.primed || info.ewma != want {
			t.Errorf("after a write through Call: %d accesses in the window, folded %t, write fraction %v; want 0, folded, %v", info.seen, info.primed, info.ewma, want)
		}
	})
	b.run(sim.Second)
	if st := m.Counters(); st.Migrations != 0 {
		t.Errorf("%d migrations of a read-mostly object, want none", st.Migrations)
	}
}

// TestAdaptReadHeavyMigratesBack first concentrates writes to force a
// primary copy, then floods reads from another machine until the EWMA
// write fraction falls below the read-heavy threshold and the object
// returns to full replication.
func TestAdaptReadHeavyMigratesBack(t *testing.T) {
	b, m := newMixedTB(t, 12, 3, DefaultP2PConfig())
	var id ObjID
	step := 0
	cond := sim.NewCond(b.env)
	await := func(p *sim.Proc, want int) {
		for step < want {
			cond.Wait(p)
		}
	}
	b.spawn(0, "creator", func(w *Worker) {
		id = place(m, w, "intcell", adaptive(testAdaptCfg()), 0)
		w.Flush()
		step = 1
		cond.Broadcast()
	})
	b.spawn(1, "writer", func(w *Worker) {
		await(w.P, 1)
		w.P.Sleep(2 * sim.Millisecond)
		for i := 0; i < 32; i++ {
			invoke(m, w, id, "inc")
		}
		w.Flush()
		if pl := m.AdaptivePlacements()[id]; pl != "primary@1" {
			t.Errorf("placement after write phase = %q, want primary@1", pl)
		}
		step = 2
		cond.Broadcast()
	})
	b.spawn(2, "reader", func(w *Worker) {
		await(w.P, 2)
		// Three pure-read windows decay the EWMA 1.0 -> 0.5 -> 0.25 ->
		// 0.125, under the 0.15 read-heavy default at the third decision.
		for i := 0; i < 64; i++ {
			if got := invoke(m, w, id, "get")[0].(int); got != 32 {
				t.Errorf("read %d = %d, want 32", i, got)
			}
		}
		w.Flush()
	})
	b.run(20 * sim.Second)
	b.done()
	if pl := m.AdaptivePlacements()[id]; pl != "replicated" {
		t.Errorf("final placement = %q, want replicated", pl)
	}
	if st := m.Counters(); st.Migrations != 2 {
		t.Errorf("migrations = %d, want 2", st.Migrations)
	}
}

// TestAdaptRehomeFollowsWriter migrates an object to a primary copy,
// then shifts the write traffic to a different machine and checks the
// primary re-homes toward the new dominant writer.
func TestAdaptRehomeFollowsWriter(t *testing.T) {
	b, m := newMixedTB(t, 13, 3, DefaultP2PConfig())
	var id ObjID
	step := 0
	cond := sim.NewCond(b.env)
	await := func(p *sim.Proc, want int) {
		for step < want {
			cond.Wait(p)
		}
	}
	b.spawn(0, "creator", func(w *Worker) {
		id = place(m, w, "intcell", adaptive(testAdaptCfg()), 0)
		w.Flush()
		step = 1
		cond.Broadcast()
	})
	b.spawn(1, "writer-a", func(w *Worker) {
		await(w.P, 1)
		w.P.Sleep(2 * sim.Millisecond)
		for i := 0; i < 32; i++ {
			invoke(m, w, id, "inc")
		}
		w.Flush()
		step = 2
		cond.Broadcast()
	})
	b.spawn(2, "writer-b", func(w *Worker) {
		await(w.P, 2)
		w.P.Sleep(2 * sim.Millisecond) // dwell between the two migrations
		for i := 0; i < 32; i++ {
			invoke(m, w, id, "inc")
		}
		w.Flush()
		if got := invoke(m, w, id, "get")[0].(int); got != 64 {
			t.Errorf("value after re-home = %d, want 64", got)
		}
	})
	b.run(20 * sim.Second)
	b.done()
	if pl := m.AdaptivePlacements()[id]; pl != "primary@2" {
		t.Errorf("final placement = %q, want primary@2", pl)
	}
	if st := m.Counters(); st.Migrations != 2 {
		t.Errorf("migrations = %d, want 2", st.Migrations)
	}
}

// TestAdaptGuardWaiterSurvivesMigration parks a consumer on a guarded
// queue get while a producer's put traffic migrates the queue from
// replicated to primary copy. The bounced waiter must re-register on
// the new placement and the FIFO order must survive the cut.
func TestAdaptGuardWaiterSurvivesMigration(t *testing.T) {
	b, m := newMixedTB(t, 14, 3, DefaultP2PConfig())
	var id ObjID
	ready := sim.NewCond(b.env)
	var got []int
	b.spawn(0, "creator", func(w *Worker) {
		id = place(m, w, "queue", adaptive(testAdaptCfg()))
		w.Flush()
		ready.Broadcast()
	})
	b.spawn(1, "producer", func(w *Worker) {
		for id == 0 {
			ready.Wait(w.P)
		}
		w.P.Sleep(2 * sim.Millisecond)
		for i := 0; i < 48; i++ {
			invoke(m, w, id, "put", i)
			if i%8 == 7 {
				w.P.Sleep(sim.Millisecond) // let the consumer drain and block again
			}
		}
		w.Flush()
	})
	b.spawn(2, "consumer", func(w *Worker) {
		for id == 0 {
			ready.Wait(w.P)
		}
		for i := 0; i < 12; i++ {
			got = append(got, invoke(m, w, id, "get")[0].(int))
		}
		w.Flush()
	})
	b.run(20 * sim.Second)
	b.done()
	if len(got) != 12 {
		t.Fatalf("consumer drained %d items, want 12", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("FIFO order broken across migration: %v", got)
		}
	}
	if pl := m.AdaptivePlacements()[id]; pl != "primary@1" {
		t.Errorf("final placement = %q, want primary@1", pl)
	}
}

// TestAdaptDeterminism runs the full lifecycle scenario (replicated ->
// primary -> re-home -> replicated) twice from the same seed and checks
// virtual time, migration counters, and the final placement agree
// exactly.
func TestAdaptDeterminism(t *testing.T) {
	run := func() (sim.Time, RTSStats, string) {
		b, m := newMixedTB(t, 21, 4, DefaultP2PConfig())
		var id ObjID
		step := 0
		cond := sim.NewCond(b.env)
		await := func(p *sim.Proc, want int) {
			for step < want {
				cond.Wait(p)
			}
		}
		b.spawn(0, "creator", func(w *Worker) {
			id = place(m, w, "intcell", adaptive(testAdaptCfg()), 0)
			w.Flush()
			step = 1
			cond.Broadcast()
		})
		b.spawn(1, "writer-a", func(w *Worker) {
			await(w.P, 1)
			w.P.Sleep(2 * sim.Millisecond)
			for i := 0; i < 32; i++ {
				invoke(m, w, id, "inc")
			}
			w.Flush()
			step = 2
			cond.Broadcast()
		})
		b.spawn(2, "writer-b", func(w *Worker) {
			await(w.P, 2)
			w.P.Sleep(2 * sim.Millisecond)
			for i := 0; i < 32; i++ {
				invoke(m, w, id, "inc")
			}
			w.Flush()
			step = 3
			cond.Broadcast()
		})
		b.spawn(3, "reader", func(w *Worker) {
			await(w.P, 3)
			w.P.Sleep(2 * sim.Millisecond)
			for i := 0; i < 64; i++ {
				invoke(m, w, id, "get")
			}
			w.Flush()
		})
		b.run(30 * sim.Second)
		b.done()
		return b.env.Now(), m.Counters(), m.AdaptivePlacements()[id]
	}
	t1, s1, p1 := run()
	t2, s2, p2 := run()
	if t1 != t2 {
		t.Errorf("virtual time diverged: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("counters diverged:\n  %+v\n  %+v", s1, s2)
	}
	if p1 != p2 {
		t.Errorf("placement diverged: %q vs %q", p1, p2)
	}
	if s1.Migrations < 3 {
		t.Errorf("lifecycle ran %d migrations, want at least 3", s1.Migrations)
	}
}

// TestAdaptAbortWhenTargetDiesBeforeCut exercises the target-dead abort
// path of a broadcast->primary migration: the migrate record is
// sequenced while the target machine is alive, the target dies before
// the record's globally-first delivery, and every member must agree the
// migration aborted — the object stays replicated, its state intact,
// and no waiter strands.
//
// The timing is made controllable by splitting roles: node 1 issues
// exactly SampleEvery-1 writes (the dominant writer, hence the target),
// and node 2's read fills the window and initiates the migration at a
// known instant; the fault timer kills node 1 inside the record's
// broadcast flight.
func TestAdaptAbortWhenTargetDiesBeforeCut(t *testing.T) {
	b, m := newMixedTB(t, 31, 3, DefaultP2PConfig())
	cfg := AdaptConfig{SampleEvery: 8, MinDwell: sim.Millisecond}
	var id ObjID
	ready := sim.NewCond(b.env)
	b.spawn(0, "creator", func(w *Worker) {
		id = place(m, w, "intcell", adaptive(cfg), 0)
		w.Flush()
		ready.Broadcast()
	})
	b.spawn(1, "writer", func(w *Worker) {
		for id == 0 {
			ready.Wait(w.P)
		}
		w.P.Sleep(sim.Millisecond)
		for i := 0; i < 7; i++ { // one short of the window
			invoke(m, w, id, "inc")
			w.P.Sleep(500 * sim.Microsecond)
		}
	})
	var after, bumped int
	b.spawn(2, "trigger", func(w *Worker) {
		for id == 0 {
			ready.Wait(w.P)
		}
		w.P.Sleep(12 * sim.Millisecond)
		// The 8th access: fills the window, decides to-primary@1, and
		// drives the migration — node 1 dies while the record is in
		// flight, so this returns only after the abort.
		invoke(m, w, id, "get")
		after = invoke(m, w, id, "get")[0].(int)
		invoke(m, w, id, "inc")
		bumped = invoke(m, w, id, "get")[0].(int)
	})
	b.env.At(12100*sim.Microsecond, func() { b.crash(1, m) })
	b.run(30 * sim.Second)
	if after != 7 {
		t.Errorf("value after aborted migration = %d, want 7", after)
	}
	if bumped != 8 {
		t.Errorf("replicated object rejected a post-abort write: got %d, want 8", bumped)
	}
	if st := m.Counters(); st.Migrations != 0 {
		t.Errorf("migrations = %d, want 0 (the abort must not count)", st.Migrations)
	}
	if pl := m.AdaptivePlacements()[id]; pl != "replicated" {
		t.Errorf("placement = %q, want replicated after the abort", pl)
	}
	if got := b.blockedApp("1", "trigger", "writer", "creator"); len(got) != 0 {
		t.Errorf("blocked after run: %v", got)
	}
	b.done()
}

// TestAdaptMoveoutRescuedAfterDriverCrash exercises the crash rescue of
// a primary->broadcast moveout: the old primary publishes its snapshot
// and dies before the sequenced install record settles; a bounced
// waiter on a surviving machine must re-broadcast the snapshot
// (awaitFlip), and the object must come back fully replicated with
// every pre-crash write intact.
func TestAdaptMoveoutRescuedAfterDriverCrash(t *testing.T) {
	b, m := newMixedTB(t, 37, 3, DefaultP2PConfig())
	cfg := AdaptConfig{SampleEvery: 4, MinDwell: sim.Millisecond}
	var id ObjID
	ready := sim.NewCond(b.env)
	b.spawn(0, "creator", func(w *Worker) {
		id = place(m, w, "intcell", adaptive(cfg), 0)
		w.Flush()
		ready.Broadcast()
	})
	b.spawn(1, "writer", func(w *Worker) {
		for id == 0 {
			ready.Wait(w.P)
		}
		w.P.Sleep(sim.Millisecond)
		// Window fills at 4 writes: to-primary@1; the rest apply at the
		// local primary, so value 8 lives only on node 1 (plus the
		// frozen replicas of the cut and, later, the moveout snapshot).
		for i := 0; i < 8; i++ {
			invoke(m, w, id, "inc")
			w.P.Sleep(400 * sim.Microsecond)
		}
	})
	finals := make([]int, 3)
	for _, node := range []int{0, 2} {
		node := node
		b.spawn(node, "reader", func(w *Worker) {
			for id == 0 {
				ready.Wait(w.P)
			}
			w.P.Sleep(10 * sim.Millisecond)
			// Read-only windows decay the EWMA below the to-replicated
			// bar; one of these reads initiates the moveout that node
			// 1's object thread drives when the crash hits.
			for i := 0; i < 12; i++ {
				invoke(m, w, id, "get")
				w.P.Sleep(600 * sim.Microsecond)
			}
			finals[node] = invoke(m, w, id, "get")[0].(int)
		})
	}
	b.env.At(22200*sim.Microsecond, func() { b.crash(1, m) })
	b.run(30 * sim.Second)
	if finals[0] != 8 || finals[2] != 8 {
		t.Errorf("survivor reads = %d/%d, want 8/8 (no write may be lost across the rescued moveout)",
			finals[0], finals[2])
	}
	if pl := m.AdaptivePlacements()[id]; pl != "replicated" {
		t.Errorf("placement = %q, want replicated after the rescued moveout", pl)
	}
	if st := m.Counters(); st.Migrations != 2 {
		t.Errorf("migrations = %d, want 2 (to-primary, then the rescued moveout)", st.Migrations)
	}
	if got := b.blockedApp("1", "reader", "writer", "creator"); len(got) != 0 {
		t.Errorf("blocked after run: %v", got)
	}
	b.done()
}
