package rts

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/sim"
)

// TestWritePastPendingGuardTakesThread drives the object manager's
// paths at once — plain writes, guarded writes that queue, and plain
// writes that land on a replica with guarded writes pending, whose frame
// boundary retries the guards, charging CPU for each — and checks that
// the run's figures are the ones it had when an object-manager thread
// did all of it.
func TestWritePastPendingGuardTakesThread(t *testing.T) {
	const n = 4
	b, r := newBcastTB(t, 5, n, nil)
	defer b.done()

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

// TestP2PInlineReadsAmongThreadPaths keeps plain remote reads in flight
// while the object meets everything else a primary serves: writes, a
// guarded read that parks and is released by a write, a migration of the
// primary under the readers (reads queued behind it bounce off the old
// primary's queue, reads that arrive after it bounce off the
// dispatcher), and a crash of the new primary (the reads in flight time
// out and re-home the object). The run's figures are those it had when
// threads served everything.
func TestP2PInlineReadsAmongThreadPaths(t *testing.T) {
	const n = 4
	cfg := dynCfg(Update)
	cfg.Placement = SingleCopy
	b, r := newP2PTB(t, 6, n, cfg)
	defer b.done()

	var cell, flag ObjID
	var got [n]string
	ready := sim.NewCond(b.env)
	b.spawn(0, "main", func(w *Worker) {
		cell = r.Create(w, "intcell", 100)
		flag = r.Create(w, "flag")
		ready.Broadcast()
		w.P.Sleep(30 * sim.Millisecond)
		// Move the cell's primary to machine 2 under the readers' feet.
		r.nodes[0].submitMigrate(w, r.meta(cell), "rehome", 2)
		got[0] = fmt.Sprintf("moved@%v", w.P.Now())
	})
	reader := func(node, rounds int) {
		b.spawn(node, fmt.Sprintf("reader%d", node), func(w *Worker) {
			for cell == 0 || flag == 0 {
				ready.Wait(w.P)
			}
			sum := 0
			for k := 0; k < rounds; k++ {
				sum += r.Invoke(w, cell, "get")[0].(int)
				r.Invoke(w, flag, "get")
			}
			got[node] = fmt.Sprintf("sum %d@%v", sum, w.P.Now())
		})
	}
	reader(1, 40)
	reader(3, 40)
	b.spawn(2, "waiter", func(w *Worker) {
		for flag == 0 {
			ready.Wait(w.P)
		}
		r.Invoke(w, flag, "await") // parks at the primary until the flag is set
		got[2] = fmt.Sprintf("released@%v", w.P.Now())
		for k := 0; k < 5; k++ {
			r.Invoke(w, cell, "inc")
		}
	})
	b.spawn(3, "setter", func(w *Worker) {
		w.P.Sleep(15 * sim.Millisecond)
		r.Invoke(w, flag, "set", true)
	})
	// The cell's new primary dies with reads in flight.
	b.env.At(60*sim.Millisecond, func() { b.crash(2, r) })
	b.run(20 * sim.Second)

	if app := b.blockedApp("", "main", "reader1", "reader3", "setter"); len(app) != 0 {
		t.Fatalf("still blocked: %v", app)
	}
	ns := b.net.Stats()
	fig := fmt.Sprintf("%v primary=%d events=%d frames=%d wire=%d stats=%+v",
		got, r.Primary(cell), b.env.Events(), ns.Frames, ns.WireBytes, r.Counters())
	const want = "[moved@30.296ms sum 4084@2.095s released@16.822ms sum 4084@95.691ms] primary=0 events=2213 frames=337 wire=27629 " +
		"stats={LocalReads:0 BcastWrites:0 GuardWaits:1 Forwarded:0 BatchedOps:0 Frames:0 RemoteReads:164 P2PWrites:6 Fetches:0 Discards:0 " +
		"Invalidations:0 Updates:0 FencedOps:0 Migrations:0 MigrationVirtualUS:0 Crashes:1 OpsRetried:2 Rehomed:1 Elections:0 Takeovers:0 Reproposals:0 RecoveryVirtualUS:0}"
	if fig != want {
		t.Errorf("figures moved:\n\t%s\nwere\t%s", fig, want)
	}
}

// TestCrashWhileContinuationHoldsPrimaryCPU kills a primary at each of
// the three instants where a continuation holds its CPU for a remote
// read — the dispatcher's context switch, the object's read charge, and
// the reply's send charge, the last with the reply already recorded for
// duplicate suppression. The continuation dies with the machine as the
// thread it stands for would: nothing more happens there, the CPU stays
// with the dead holder, and the reader times out, restarts the object
// elsewhere and reads its initial value. Figures from the runtime whose
// primaries were threads throughout.
func TestCrashWhileContinuationHoldsPrimaryCPU(t *testing.T) {
	run := func(crashBefore sim.Time) (done sim.Time, fig string) {
		cfg := dynCfg(Update)
		cfg.Placement = SingleCopy
		b, r := newP2PTB(t, 8, 3, cfg)
		defer b.done()
		var id ObjID
		var val int
		var start, busyAtCrash sim.Time
		b.spawn(0, "main", func(w *Worker) {
			id = r.Create(w, "intcell", 7)
			r.Invoke(w, id, "set", 8)
			b.spawn(1, "reader", func(w *Worker) {
				start = w.P.Now()
				val = r.Invoke(w, id, "get")[0].(int)
				done = w.P.Now() - start
			})
		})
		if crashBefore > 0 {
			b.env.At(crashBefore, func() {
				busyAtCrash = b.ms[0].CPU().BusyTime()
				b.crash(0, r)
			})
		}
		b.run(10 * sim.Second)
		ns := b.net.Stats()
		fig = fmt.Sprintf("val=%d took=%v primary=%d events=%d frames=%d busy0=%v (%v at the crash) rehomed=%d",
			val, done, r.Primary(id), b.env.Events(), ns.Frames, b.ms[0].CPU().BusyTime(), busyAtCrash, r.Counters().Rehomed)
		return start + done, fig
	}
	end, clean := run(0)
	if want := "val=8 took=1.084ms primary=0 events=25 frames=2 busy0=520.000µs (0ns at the crash) rehomed=0"; clean != want {
		t.Errorf("no crash: %s, want %s", clean, want)
	}
	// Backwards from the reader's wake-up: 210 µs of interrupt service at
	// the reader's machine, 112.4 µs on the wire, and then at the primary
	// 180 µs of send, 10 µs of read and 60 µs of context switch.
	for _, c := range []struct {
		name   string
		before sim.Time
		want   string
	}{
		{"send charge, reply pending", 400 * sim.Microsecond, "val=7 took=2.000s primary=1 events=25 frames=1 busy0=2.000s (442.400µs at the crash) rehomed=1"},
		{"read charge", 507 * sim.Microsecond, "val=7 took=2.000s primary=1 events=24 frames=1 busy0=2.000s (335.400µs at the crash) rehomed=1"},
		{"context switch", 550 * sim.Microsecond, "val=7 took=2.000s primary=1 events=22 frames=1 busy0=2.000s (292.400µs at the crash) rehomed=1"},
	} {
		if _, fig := run(end - c.before); fig != c.want {
			t.Errorf("crash during the %s: %s, want %s", c.name, fig, c.want)
		}
	}
}

// skipUnderRace skips an allocation budget when the race detector, which
// allocates on its own account, is on.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts mean nothing under the race detector")
			}
		}
	}
}

// allocsPerOp advances a running cluster in ticks of virtual time and
// reports the allocations per operation completed meanwhile, ops being
// the running count of those.
func allocsPerOp(b *tb, tick sim.Time, ops *int) (perOp float64, done int) {
	now := b.env.Now()
	step := func() {
		now += tick
		b.env.RunUntil(now)
	}
	step()
	before := *ops
	perTick := testing.AllocsPerRun(10, step) // which ticks once more to warm up
	done = *ops - before
	return perTick * 11 / float64(done), done
}

// A remote read through the by-value entry point travels in two pooled
// packet boxes and two pooled records and comes back in the caller's
// frame: in the steady state nothing is allocated for it. (The budget of
// 2 leaves room for the reply cache's map; the []any form took 9.)
func TestP2PRemoteReadAllocations(t *testing.T) {
	skipUnderRace(t)
	cfg := DefaultP2PConfig()
	cfg.Placement = SingleCopy
	b, r := newP2PTB(t, 3, 2, cfg)
	defer b.done()
	ops := 0
	b.spawn(0, "main", func(w *Worker) {
		id := r.Create(w, "intcell", 1<<40)
		b.spawn(1, "reader", func(w *Worker) {
			for {
				res := r.Call(w, id, "get", Args{})
				if Get[int](&res, 0) != 1<<40 {
					t.Error("remote read returned", res.Values())
					return
				}
				ops++
			}
		})
	})
	if perOp, done := allocsPerOp(b, 100*sim.Millisecond, &ops); perOp > 2 || done < 500 {
		t.Errorf("%.2f allocations per remote read over %d reads, want at most 2 over at least 500", perOp, done)
	}
}

// A broadcast write at P = 16 costs nothing of its own: the operation
// travels inline in the sequenced frame's record, which the sequencer
// carves from its chunks and every member is delivered by reference,
// and the argument record, the send record with its timer and request
// body, the unicast request to the sequencer and the broadcast's payload
// record and fan-out cost nothing. (12.8 with []any arguments and a
// timer allocated per send, 8.3 before the group layer recycled its send
// records, 2.02 while the operation was a boxed body of its own, 1.02
// while the sequenced frame was an allocation.)
func TestBcastWriteAllocations(t *testing.T) {
	skipUnderRace(t)
	b, r := newBcastTB(t, 3, 16, nil)
	defer b.done()
	ops := 0
	b.spawn(1, "writer", func(w *Worker) {
		id := r.Create(w, "intcell", 0)
		for {
			var in Args
			Put(&in, nil, 1<<40+ops)
			r.Call(w, id, "set", in)
			ops++
		}
	})
	if perOp, done := allocsPerOp(b, 100*sim.Millisecond, &ops); perOp > 0.05 || done < 300 {
		t.Errorf("%.3f allocations per broadcast write over %d writes, want at most 0.05 over at least 300", perOp, done)
	}
}

// A write issued on its group's sequencer machine costs what one issued
// elsewhere does. The writer there waits only for its own delivery, so
// at P = 4 an open loop of them outpaces the other machines' interrupt
// service, whose queues grow by about a tenth of a frame per write, each
// frame holding its broadcast payload record until the last receiver
// opens it: 0.12 allocations per write from CPU 0 against 0.011 from
// CPU 1 while those records were made one at a time, 0.015 since they
// are carved in runs.
func TestSequencerWriteAllocations(t *testing.T) {
	skipUnderRace(t)
	per := make([]float64, 2)
	for node := range per {
		b, r := newBcastTB(t, 3, 4, nil)
		ops := 0
		b.spawn(node, "writer", func(w *Worker) {
			id := r.Create(w, "intcell", 0)
			for {
				var in Args
				Put(&in, nil, 1<<40+ops)
				r.Call(w, id, "set", in)
				ops++
			}
		})
		var done int
		per[node], done = allocsPerOp(b, 100*sim.Millisecond, &ops)
		b.done()
		if done < 300 {
			t.Fatalf("%d writes from CPU %d, want at least 300", done, node)
		}
	}
	if per[0] > 2*per[1] || per[0] > 0.05 {
		t.Errorf("%.4f allocations per write from CPU 0 (the sequencer), %.4f from CPU 1: want CPU 0 within twice CPU 1, and at most 0.05", per[0], per[1])
	}
	t.Logf("%.4f allocations per write from CPU 0, %.4f from CPU 1", per[0], per[1])
}

// Combined writes at P = 16 leave in frames of eight. A flush hands its
// batch to the group layer, whose steps queue the ops in a pooled outbox,
// so it allocates nothing of its own, each write travels inline in its
// sequenced record, carved with its frame from the sequencer's chunks,
// and the Linger deadlines, the combining buffer's and the group
// packers', are kernel deadlines on recycled records (0.90 allocations
// per write while each deadline was an event and a closure per arm, 1.14
// while every frame and its records were allocations as well, 1.39 while
// the packers' deadlines were a closure per arm, 2.39 while every write
// was a boxed body as well, 2.51 with a closure per flush).
func TestBatchedWriteAllocations(t *testing.T) {
	skipUnderRace(t)
	b, r := newBatchedTB(t, 3, 16, testBatch())
	defer b.done()
	ops := 0
	b.spawn(1, "writer", func(w *Worker) {
		id := r.Create(w, "intcell", 0)
		for {
			var in Args
			Put(&in, nil, 1<<40+ops)
			r.Call(w, id, "set", in)
			ops++
		}
	})
	if perOp, done := allocsPerOp(b, 100*sim.Millisecond, &ops); perOp > 0.05 || done < 4000 {
		t.Errorf("%.3f allocations per combined write over %d writes, want at most 0.05 over at least 4000", perOp, done)
	}
}

// A write to a primary copy from another machine, kv_primary's shape,
// allocates nothing in the steady state: the request and reply travel in
// pooled records, and the primary's commit refills its list of
// secondaries in place (sorting a fresh copy of the copyset took three
// allocations a write). Nor does one with two live secondaries under the
// update protocol: the primary's fan-out is a transaction per secondary
// in its queue's name, each on a pooled record, and the secondaries'
// phase-one apply and the primary's unlock walk run on continuations
// bound once (27.05 allocations a write while each secondary had a
// thread of its own, with a condition and closures). Nor does a write
// issued on the primary's own machine: its task travels in a record of
// the node's, condition and all (2.00 a write while each was a fresh
// record on the heap whose condition grew a waiter buffer). The
// measurement starts once the servers' reply caches have reached their
// 1024 entries and stopped growing.
func TestPrimaryWriteAllocations(t *testing.T) {
	skipUnderRace(t)
	for _, c := range []struct {
		name   string
		cfg    P2PConfig
		writer int
	}{
		{"single copy", P2PConfig{Protocol: Update, Placement: SingleCopy}, 1},
		{"two secondaries", P2PConfig{Protocol: Update, Placement: FullReplication}, 1},
		{"writer on the primary", P2PConfig{Protocol: Update, Placement: SingleCopy}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, r := newP2PTB(t, 3, 3, c.cfg)
			defer b.done()
			ops := 0
			b.spawn(0, "main", func(w *Worker) {
				id := r.Create(w, "intcell", 0)
				b.spawn(c.writer, "writer", func(w *Worker) {
					for {
						var in Args
						Put(&in, nil, 1<<40+ops)
						r.Call(w, id, "set", in)
						ops++
					}
				})
			})
			b.env.RunUntil(4 * sim.Second)
			if perOp, done := allocsPerOp(b, 200*sim.Millisecond, &ops); perOp > 0 || done < 500 {
				t.Errorf("%.3f allocations per primary-copy write over %d writes, want none over at least 500", perOp, done)
			}
		})
	}
}

// A fork across eight groups spanning both machines is one barrier fence:
// its record is carved once from the run's tables and shared by the
// eight groups' messages, and its shard list is the router's list of
// every group, and the target carves its record of the fence's arrivals
// too: 0.11 allocations per fork, the group layer's warm-up and chunk
// runs. (13.1 while each group's message boxed a copy of the record, the
// list was appended per fork and the target allocated its record.)
func TestForkFenceAllocations(t *testing.T) {
	skipUnderRace(t)
	b, r := newRouterTB(t, 3, 16, 8, 16, DefaultP2PConfig())
	defer b.done()
	forks, fired := 0, 0
	landed := sim.NewCond(b.env)
	r.SetExtraHandler(func(int, any) { fired++; landed.Signal() })
	body := new(int)
	b.spawn(1, "forker", func(w *Worker) {
		for {
			if !r.ForkFence(w, 2, "fork", body, 32) {
				t.Error("no group spans both machines")
				return
			}
			for forks++; fired < forks; {
				landed.Wait(w.P)
			}
		}
	})
	if perOp, done := allocsPerOp(b, 300*sim.Millisecond, &forks); perOp > 1 || done < 300 {
		t.Errorf("%.3f allocations per fork over %d forks, want at most 1 over at least 300", perOp, done)
	}
}
