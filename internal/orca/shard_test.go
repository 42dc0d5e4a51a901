package orca_test

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/sim"
)

func shardedCfg(procs, shards int, seed int64) orca.Config {
	return orca.Config{Processors: procs, RTS: orca.Broadcast, Shards: shards, Seed: seed}
}

func TestShardedCounterProgram(t *testing.T) {
	const procs, shards, opsPer = 8, 4, 25
	rt := orca.New(shardedCfg(procs, shards, 11), std.Register)
	finals := make([]int, procs)
	rep := rt.Run(func(p *orca.Proc) {
		counters := make([]orca.Object, procs)
		for i := range counters {
			counters[i] = p.NewWith(std.IntObj, orca.Opts(orca.Sharded(i)))
		}
		done := p.New(std.BarrierObj, procs)
		for i := 0; i < procs; i++ {
			i := i
			p.Fork(i, fmt.Sprintf("w%d", i), func(wp *orca.Proc) {
				for k := 0; k < opsPer; k++ {
					wp.Invoke(counters[i], "inc")
				}
				wp.Invoke(done, "arrive")
			})
		}
		p.Invoke(done, "wait")
		for i := range counters {
			finals[i] = p.InvokeI(counters[i], "value")
		}
	})
	for i, v := range finals {
		if v != opsPer {
			t.Fatalf("counter %d = %d, want %d", i, v, opsPer)
		}
	}
	if rep.TimedOut {
		t.Fatal("timed out")
	}
	if len(rep.Shards) != shards {
		t.Fatalf("Report.Shards has %d entries, want %d", len(rep.Shards), shards)
	}
	busy, writes := 0, int64(0)
	for _, s := range rep.Shards {
		if s.BcastWrites > 0 {
			busy++
		}
		writes += s.BcastWrites
	}
	if busy < 2 {
		t.Fatalf("only %d shards carried writes; Sharded(i) should spread them", busy)
	}
	if writes != rep.RTS.BcastWrites {
		t.Fatalf("per-shard writes sum %d != merged %d", writes, rep.RTS.BcastWrites)
	}
}

func TestShardedForkSeesPriorWrites(t *testing.T) {
	// A remote fork travels as a barrier fence through every shard, so
	// the child must observe the parent's preceding writes in all of
	// them — including writes to objects in different shards.
	rt := orca.New(shardedCfg(4, 4, 12), std.Register)
	rt.Run(func(p *orca.Proc) {
		a := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(0)))
		b := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(3)))
		fin := p.New(std.FlagObj)
		p.Invoke(a, "add", 7)
		p.Invoke(b, "add", 9)
		p.Fork(2, "child", func(cp *orca.Proc) {
			if got := cp.InvokeI(a, "value"); got != 7 {
				t.Errorf("child read a = %d, want 7", got)
			}
			if got := cp.InvokeI(b, "value"); got != 9 {
				t.Errorf("child read b = %d, want 9", got)
			}
			cp.Invoke(fin, "set", true)
		})
		p.Invoke(fin, "await")
	})
}

func TestInvokeFencedAtomicTransfer(t *testing.T) {
	// Fenced writes on objects in different shards apply as one step
	// while unrelated traffic keeps both sequencers busy.
	const transfers, noise = 10, 40
	rt := orca.New(shardedCfg(4, 2, 13), std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		a := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(0)), 100)
		b := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(1)))
		na := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(0)))
		nb := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(1)))
		done := p.New(std.BarrierObj, 2)
		for i := 1; i <= 2; i++ {
			i := i
			p.Fork(i, fmt.Sprintf("noise%d", i), func(wp *orca.Proc) {
				for k := 0; k < noise; k++ {
					wp.Invoke(na, "inc")
					wp.Invoke(nb, "inc")
				}
				wp.Invoke(done, "arrive")
			})
		}
		for k := 0; k < transfers; k++ {
			p.InvokeFenced(
				orca.FencedOp{Obj: a, Op: "add", Args: []any{-3}},
				orca.FencedOp{Obj: b, Op: "add", Args: []any{3}},
			)
		}
		p.Invoke(done, "wait")
		if got := p.InvokeI(a, "value"); got != 100-3*transfers {
			t.Errorf("a = %d, want %d", got, 100-3*transfers)
		}
		if got := p.InvokeI(b, "value"); got != 3*transfers {
			t.Errorf("b = %d, want %d", got, 3*transfers)
		}
		if got := p.InvokeI(na, "value"); got != 2*noise {
			t.Errorf("na = %d, want %d", got, 2*noise)
		}
	})
	if rep.RTS.FencedOps != 2*transfers {
		t.Fatalf("FencedOps = %d, want %d", rep.RTS.FencedOps, 2*transfers)
	}
}

// TestInvokeFencedRejectsPrimaryCopy: a fence pauses sequencer-group
// streams; an object in the point-to-point domain has none.
func TestInvokeFencedRejectsPrimaryCopy(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 2, RTS: orca.P2PInvalidate, Seed: 14}, std.Register)
	rt.Run(func(p *orca.Proc) {
		o := p.New(std.IntObj)
		defer func() {
			if recover() == nil {
				t.Error("InvokeFenced on a primary-copy object did not panic")
			}
		}()
		p.InvokeFenced(orca.FencedOp{Obj: o, Op: "inc"})
	})
}

func TestShardOptionValidation(t *testing.T) {
	t.Run("OutOfRange", func(t *testing.T) {
		rt := orca.New(shardedCfg(4, 2, 15), std.Register)
		rt.Run(func(p *orca.Proc) {
			defer func() {
				if recover() == nil {
					t.Error("OnShard(2) with 2 shards did not panic")
				}
			}()
			p.NewWith(std.IntObj, orca.Opts(orca.OnShard(2)))
		})
	})
	t.Run("SingleGroup", func(t *testing.T) {
		// One sequencer group is shard 0 of 1: pinning to it is a no-op,
		// any other shard is out of range.
		rt := orca.New(bcastCfg(2, 16), std.Register)
		rt.Run(func(p *orca.Proc) {
			o := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(0)), 4)
			if got := p.InvokeI(o, "value"); got != 4 {
				t.Errorf("OnShard(0) object value = %d, want 4", got)
			}
			defer func() {
				if recover() == nil {
					t.Error("OnShard(1) with one sequencer group did not panic")
				}
			}()
			p.NewWith(std.IntObj, orca.Opts(orca.OnShard(1)))
		})
	})
}

func TestShardedDomainsForwardAcross(t *testing.T) {
	// ShardSpan 4 over 8 processors: two replication domains. A worker
	// outside an object's domain reaches it through the forwarder RPC.
	const procs, shards = 8, 4
	rt := orca.New(orca.Config{Processors: procs, RTS: orca.Broadcast,
		Shards: shards, ShardSpan: 4, Seed: 17}, std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		// Shard 0 spans machines 0-3; main (cpu 0) may pin to it.
		o := p.NewWith(std.IntObj, orca.Opts(orca.OnShard(0)))
		fin := p.New(std.FlagObj)
		p.Fork(6, "far", func(wp *orca.Proc) {
			wp.Invoke(o, "add", 5) // cpu 6 is outside shard 0's span
			if got := wp.InvokeI(o, "value"); got != 5 {
				t.Errorf("forwarded read = %d, want 5", got)
			}
			wp.Invoke(fin, "set", true)
		})
		p.Invoke(fin, "await")
		if got := p.InvokeI(o, "value"); got != 5 {
			t.Errorf("local read = %d, want 5", got)
		}
	})
	if rep.RTS.Forwarded == 0 {
		t.Fatal("no forwarded operations; cross-domain access should forward")
	}
}

func TestShardedDomainCreateOutsideSpanPanics(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 8, RTS: orca.Broadcast,
		Shards: 4, ShardSpan: 4, Seed: 18}, std.Register)
	rt.Run(func(p *orca.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("OnShard(1) from outside its span did not panic")
			}
		}()
		p.NewWith(std.IntObj, orca.Opts(orca.OnShard(1))) // shard 1 spans 4-7; main is cpu 0
	})
}

func TestShardedBatchingComposes(t *testing.T) {
	const procs, shards, opsPer = 8, 4, 60
	rt := orca.New(orca.Config{Processors: procs, RTS: orca.Broadcast,
		Shards: shards, Batching: orca.DefaultBatching(), Seed: 19}, std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		accs := make([]orca.Object, shards)
		for k := range accs {
			accs[k] = p.NewWith(std.AccumObj, orca.Opts(orca.OnShard(k)))
		}
		done := p.New(std.BarrierObj, procs)
		for i := 0; i < procs; i++ {
			i := i
			p.Fork(i, fmt.Sprintf("w%d", i), func(wp *orca.Proc) {
				for k := 0; k < opsPer; k++ {
					wp.Invoke(accs[i%shards], "add", 1)
				}
				wp.Invoke(done, "arrive")
			})
		}
		p.Invoke(done, "wait")
		for k := range accs {
			if got := wpValue(p, accs[k]); got != 2*opsPer {
				t.Errorf("acc %d = %d, want %d", k, got, 2*opsPer)
			}
		}
	})
	if rep.RTS.BatchedOps == 0 || rep.RTS.Frames == 0 {
		t.Fatalf("batching counters empty: %+v", rep.RTS)
	}
	if rep.RTS.Frames >= rep.RTS.BatchedOps {
		t.Fatalf("no amortization: %d frames for %d batched ops", rep.RTS.Frames, rep.RTS.BatchedOps)
	}
}

func wpValue(p *orca.Proc, o orca.Object) int {
	return p.InvokeI(o, "value")
}

func TestShardedDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, int64) {
		rt := orca.New(shardedCfg(8, 4, 20), std.Register)
		rep := rt.Run(func(p *orca.Proc) {
			counters := make([]orca.Object, 6)
			for i := range counters {
				counters[i] = p.New(std.IntObj)
			}
			done := p.New(std.BarrierObj, 8)
			for i := 0; i < 8; i++ {
				i := i
				p.Fork(i, fmt.Sprintf("w%d", i), func(wp *orca.Proc) {
					for k := 0; k < 20; k++ {
						wp.Invoke(counters[(i+k)%len(counters)], "inc")
					}
					wp.Invoke(done, "arrive")
				})
			}
			p.Invoke(done, "wait")
		})
		return rep.Elapsed, rep.RTS.BcastWrites
	}
	e1, w1 := run()
	e2, w2 := run()
	if e1 != e2 || w1 != w2 {
		t.Fatalf("runs diverged: (%v, %d) vs (%v, %d)", e1, w1, e2, w2)
	}
}

func TestShardedCrashOneShardOthersAdvance(t *testing.T) {
	// Full-span shards with sequencer rotation: shard k's sequencer is
	// machine k. Crashing machine 1 takes down exactly shard 1's
	// sequencer; the other shards' groups recover their dead member
	// while their sequencers keep ordering.
	const procs, shards = 4, 4
	plan := &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 1, At: 40 * sim.Millisecond}}}
	rt := orca.New(orca.Config{Processors: procs, RTS: orca.Broadcast,
		Shards: shards, Seed: 21, Faults: plan}, std.Register)
	finals := make([]int, shards)
	rep := rt.Run(func(p *orca.Proc) {
		counters := make([]orca.Object, shards)
		for k := range counters {
			counters[k] = p.NewWith(std.IntObj, orca.Opts(orca.OnShard(k)))
		}
		done := p.New(std.BarrierObj, 2)
		for _, cpu := range []int{2, 3} {
			cpu := cpu
			p.Fork(cpu, fmt.Sprintf("w%d", cpu), func(wp *orca.Proc) {
				for k := 0; k < 40; k++ {
					wp.Invoke(counters[cpu], "inc")
					wp.Work(2 * sim.Millisecond)
				}
				wp.Invoke(done, "arrive")
			})
		}
		p.Invoke(done, "wait")
		for k := range counters {
			finals[k] = p.InvokeI(counters[k], "value")
		}
	})
	if rep.TimedOut {
		t.Fatalf("timed out; blocked: %v", rep.Blocked)
	}
	if len(rep.Crashes) != 1 || rep.Crashes[0].Node != 1 {
		t.Fatalf("crash record = %+v, want node 1", rep.Crashes)
	}
	if finals[2] != 40 || finals[3] != 40 {
		t.Fatalf("surviving-shard counters = %v, want 40s in shards 2,3", finals)
	}
}
