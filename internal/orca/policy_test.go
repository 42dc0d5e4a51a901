package orca_test

// Per-object placement policies: the creation-options API, the policy
// routing rules of each runtime kind, and the mixed runtime hosting
// broadcast-replicated and primary-copy objects in one program.

import (
	"fmt"
	"testing"

	"repro/internal/orca"
	"repro/internal/orca/std"
)

// TestNewWithDefaultMatchesNew runs the same program through New and
// through NewWith with no options and requires bit-identical reports:
// the options API must be a pure superset of the old one.
func TestNewWithDefaultMatchesNew(t *testing.T) {
	run := func(create func(p *orca.Proc) orca.Handle[*cellState]) string {
		rt := orca.New(bcastCfg(3, 30), withCells)
		rep := rt.Run(func(p *orca.Proc) {
			o := create(p)
			p.Fork(1, "writer", func(wp *orca.Proc) {
				cellAdd.Call(wp, o, 7)
			})
			cellAwaitGE.Call(p, o, 7)
		})
		return fmt.Sprintf("%d %d %d", int64(rep.Elapsed), rep.Net.Messages, rep.Net.WireBytes)
	}
	plain := run(func(p *orca.Proc) orca.Handle[*cellState] { return cellB.New(p, 0) })
	withOpts := run(func(p *orca.Proc) orca.Handle[*cellState] { return cellB.NewWith(p, nil, 0) })
	if plain != withOpts {
		t.Fatalf("NewWith(nil opts) diverged from New:\n  New:     %s\n  NewWith: %s", plain, withOpts)
	}
}

// TestPrimaryCopyRequiresMixed checks a PrimaryCopy policy on a pure
// broadcast runtime panics with a helpful message.
func TestPrimaryCopyRequiresMixed(t *testing.T) {
	rt := orca.New(bcastCfg(2, 31), std.Register)
	rt.Run(func(p *orca.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic: PrimaryCopy on a pure broadcast runtime")
			}
		}()
		std.NewZeroCounter(p, orca.With(orca.PrimaryCopy{}))
	})
}

// TestPrimaryCopyOnP2PRuntime checks a pure point-to-point runtime can
// host a PrimaryCopy object with a per-object protocol override.
func TestPrimaryCopyOnP2PRuntime(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 2, RTS: orca.P2PUpdate, Seed: 32}, std.Register)
	var got int
	rt.Run(func(p *orca.Proc) {
		o := std.NewCounter(p, 5, orca.With(orca.PrimaryCopy{
			Protocol: orca.Invalidation, Placement: orca.SingleCopy,
		}))
		o.Add(p, 3)
		got = o.Value(p)
	})
	if got != 8 {
		t.Fatalf("value = %d, want 8", got)
	}
}

// TestAtPinsPrimaryToCreator checks At on a PrimaryCopy object accepts
// only the creating machine.
func TestAtPinsPrimaryToCreator(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 3, RTS: orca.Broadcast, Mixed: true, Seed: 33}, std.Register)
	rt.Run(func(p *orca.Proc) {
		o := std.NewCounter(p, 1, orca.With(orca.PrimaryCopy{}), orca.At(p.CPU()))
		if got := o.Value(p); got != 1 {
			t.Errorf("pinned primary value = %d, want 1", got)
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic: At cannot move a primary off the creating machine")
			}
		}()
		std.NewZeroCounter(p, orca.With(orca.PrimaryCopy{}), orca.At(2))
	})
}

// TestLastPolicyWins checks a later With replaces an earlier policy
// wholesale, including its replica restriction: no stale nodes leak
// into the final placement.
func TestLastPolicyWins(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 3, RTS: orca.Broadcast, Mixed: true, Seed: 38}, std.Register)
	rt.Run(func(p *orca.Proc) {
		// Replicated at 0, then Replicated: full replication, so a read
		// from node 2 must be served by a local replica, not forwarded.
		full := std.NewCounter(p, 9, orca.With(orca.Replicated), orca.At(0), orca.With(orca.Replicated))
		flag := std.NewFlag(p, false)
		p.Fork(2, "reader", func(wp *orca.Proc) {
			if got := full.Value(wp); got != 9 {
				t.Errorf("value = %d, want 9", got)
			}
			flag.Set(wp, true)
		})
		flag.Await(p)
		if fwd := rt.Stats().Forwarded; fwd != 0 {
			t.Errorf("read was forwarded (%d): earlier At nodes leaked into Replicated", fwd)
		}
		// Replicated at 1 and 2, then PrimaryCopy: the stale nodes must
		// not trip the primary pin check.
		o := std.NewCounter(p, 4, orca.With(orca.Replicated), orca.At(1, 2), orca.With(orca.PrimaryCopy{}))
		if got := o.Value(p); got != 4 {
			t.Errorf("primary-copy value = %d, want 4", got)
		}
	})
}

// TestMixedProgramMixesRuntimes is the tentpole scenario at the orca
// layer: one program, a broadcast-replicated counter and a primary-copy
// queue, both carrying traffic, with the unified report counting both.
func TestMixedProgramMixesRuntimes(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 34}, std.Register)
	const jobs = 12
	var sum int
	rep := rt.Run(func(p *orca.Proc) {
		total := std.NewCounter(p, 0) // broadcast-replicated (Config.RTS)
		q := std.NewQueue[int](p, orca.With(orca.PrimaryCopy{
			Protocol: orca.Update, Placement: orca.SingleCopy,
		}))
		fin := std.NewBarrier(p, 3)
		for cpu := 1; cpu <= 3; cpu++ {
			p.Fork(cpu, fmt.Sprintf("worker%d", cpu), func(wp *orca.Proc) {
				for {
					n, ok := q.Get(wp)
					if !ok {
						break
					}
					total.Add(wp, n)
				}
				fin.Arrive(wp)
			})
		}
		for j := 1; j <= jobs; j++ {
			q.Add(p, j)
		}
		q.Close(p)
		fin.Wait(p)
		sum = total.Value(p)
	})
	if rep.TimedOut {
		t.Fatalf("timed out; blocked: %v", rep.Blocked)
	}
	if want := jobs * (jobs + 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if rep.RTS.BcastWrites == 0 {
		t.Error("no broadcast writes: the counter did not use the broadcast runtime")
	}
	if rep.RTS.P2PWrites == 0 {
		t.Error("no p2p writes: the queue did not use the point-to-point runtime")
	}
	if sys := rt.System(); sys.Groups() != 1 || sys.P2P() == nil {
		t.Errorf("router has %d groups, p2p %v; want one group plus the point-to-point domain", sys.Groups(), sys.P2P() != nil)
	}
}

// TestMixedWithP2PDefault checks the other direction: a point-to-point
// default runtime hosting one broadcast-replicated object, with remote
// forks travelling the group's total order.
func TestMixedWithP2PDefault(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 3, RTS: orca.P2PUpdate, Mixed: true, Seed: 35}, std.Register)
	var readBack, cpu int
	rep := rt.Run(func(p *orca.Proc) {
		def := std.NewCounter(p, 0)                              // primary copy (Config.RTS → p2p)
		repl := std.NewCounter(p, 0, orca.With(orca.Replicated)) // broadcast-replicated
		done := std.NewFlag(p, false, orca.With(orca.Replicated))
		p.Fork(2, "remote", func(wp *orca.Proc) {
			cpu = wp.CPU()
			def.Add(wp, 3)
			repl.Add(wp, 4)
			done.Set(wp, true)
		})
		done.Await(p)
		readBack = def.Value(p) + repl.Value(p)
	})
	if rep.TimedOut {
		t.Fatalf("timed out; blocked: %v", rep.Blocked)
	}
	if cpu != 2 {
		t.Errorf("remote fork ran on cpu %d, want 2", cpu)
	}
	if readBack != 7 {
		t.Errorf("read back %d, want 7", readBack)
	}
	if rep.RTS.P2PWrites == 0 || rep.RTS.BcastWrites == 0 {
		t.Errorf("both runtimes should carry writes; got p2p=%d bcast=%d",
			rep.RTS.P2PWrites, rep.RTS.BcastWrites)
	}
}

// TestRuntimeStatsOnPureRuntimes checks Runtime.Stats fills the
// matching fields for each pure runtime kind.
func TestRuntimeStatsOnPureRuntimes(t *testing.T) {
	runB := orca.New(bcastCfg(2, 36), std.Register)
	runB.Run(func(p *orca.Proc) {
		c := std.NewCounter(p, 0)
		c.Add(p, 1)
		c.Value(p)
	})
	if st := runB.Stats(); st.BcastWrites == 0 || st.LocalReads == 0 {
		t.Errorf("broadcast stats not filled: %+v", st)
	}
	runP := orca.New(orca.Config{Processors: 2, RTS: orca.P2PInvalidate, Seed: 37}, std.Register)
	runP.Run(func(p *orca.Proc) {
		c := std.NewCounter(p, 0)
		c.Add(p, 1)
		c.Value(p)
	})
	if st := runP.Stats(); st.P2PWrites == 0 {
		t.Errorf("p2p stats not filled: %+v", st)
	}
}
