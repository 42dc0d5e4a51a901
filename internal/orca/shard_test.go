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
		counters := make([]std.Counter, procs)
		for i := range counters {
			counters[i] = std.NewZeroCounter(p, orca.Sharded(i))
		}
		done := std.NewBarrier(p, procs)
		for i := 0; i < procs; i++ {
			i := i
			p.Fork(i, fmt.Sprintf("w%d", i), func(wp *orca.Proc) {
				for k := 0; k < opsPer; k++ {
					counters[i].Inc(wp)
				}
				done.Arrive(wp)
			})
		}
		done.Wait(p)
		for i := range counters {
			finals[i] = counters[i].Value(p)
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
		a := std.NewZeroCounter(p, orca.OnShard(0))
		b := std.NewZeroCounter(p, orca.OnShard(3))
		fin := std.NewFlag(p, false)
		a.Add(p, 7)
		b.Add(p, 9)
		p.Fork(2, "child", func(cp *orca.Proc) {
			if got := a.Value(cp); got != 7 {
				t.Errorf("child read a = %d, want 7", got)
			}
			if got := b.Value(cp); got != 9 {
				t.Errorf("child read b = %d, want 9", got)
			}
			fin.Set(cp, true)
		})
		fin.Await(p)
	})
}

func TestInvokeFencedAtomicTransfer(t *testing.T) {
	// Fenced writes on objects in different shards apply as one step
	// while unrelated traffic keeps both sequencers busy.
	const transfers, noise = 10, 40
	rt := orca.New(shardedCfg(4, 2, 13), withCells)
	rep := rt.Run(func(p *orca.Proc) {
		a := cellB.NewWith(p, orca.Opts(orca.OnShard(0)), 100)
		b := cellB.NewWith(p, orca.Opts(orca.OnShard(1)))
		na := std.NewZeroCounter(p, orca.OnShard(0))
		nb := std.NewZeroCounter(p, orca.OnShard(1))
		done := std.NewBarrier(p, 2)
		for i := 1; i <= 2; i++ {
			i := i
			p.Fork(i, fmt.Sprintf("noise%d", i), func(wp *orca.Proc) {
				for k := 0; k < noise; k++ {
					na.Inc(wp)
					nb.Inc(wp)
				}
				done.Arrive(wp)
			})
		}
		for k := 0; k < transfers; k++ {
			p.InvokeFenced(cellAdd.Fenced(a, -3), cellAdd.Fenced(b, 3))
		}
		done.Wait(p)
		if got := cellValue.Call(p, a); got != 100-3*transfers {
			t.Errorf("a = %d, want %d", got, 100-3*transfers)
		}
		if got := cellValue.Call(p, b); got != 3*transfers {
			t.Errorf("b = %d, want %d", got, 3*transfers)
		}
		if got := na.Value(p); got != 2*noise {
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
	rt := orca.New(orca.Config{Processors: 2, RTS: orca.P2PInvalidate, Seed: 14}, withCells)
	rt.Run(func(p *orca.Proc) {
		o := cellB.New(p)
		defer func() {
			if recover() == nil {
				t.Error("InvokeFenced on a primary-copy object did not panic")
			}
		}()
		p.InvokeFenced(cellInc.Fenced(o))
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
			std.NewZeroCounter(p, orca.OnShard(2))
		})
	})
	t.Run("SingleGroup", func(t *testing.T) {
		// One sequencer group is shard 0 of 1: pinning to it is a no-op,
		// any other shard is out of range.
		rt := orca.New(bcastCfg(2, 16), std.Register)
		rt.Run(func(p *orca.Proc) {
			o := std.NewCounter(p, 4, orca.OnShard(0))
			if got := o.Value(p); got != 4 {
				t.Errorf("OnShard(0) object value = %d, want 4", got)
			}
			defer func() {
				if recover() == nil {
					t.Error("OnShard(1) with one sequencer group did not panic")
				}
			}()
			std.NewZeroCounter(p, orca.OnShard(1))
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
		o := std.NewZeroCounter(p, orca.OnShard(0))
		fin := std.NewFlag(p, false)
		p.Fork(6, "far", func(wp *orca.Proc) {
			o.Add(wp, 5) // cpu 6 is outside shard 0's span
			if got := o.Value(wp); got != 5 {
				t.Errorf("forwarded read = %d, want 5", got)
			}
			fin.Set(wp, true)
		})
		fin.Await(p)
		if got := o.Value(p); got != 5 {
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
		std.NewZeroCounter(p, orca.OnShard(1)) // shard 1 spans 4-7; main is cpu 0
	})
}

func TestShardedBatchingComposes(t *testing.T) {
	const procs, shards, opsPer = 8, 4, 60
	rt := orca.New(orca.Config{Processors: procs, RTS: orca.Broadcast,
		Shards: shards, Batching: orca.DefaultBatching(), Seed: 19}, std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		accs := make([]std.Accum, shards)
		for k := range accs {
			accs[k] = std.NewAccum(p, orca.OnShard(k))
		}
		done := std.NewBarrier(p, procs)
		for i := 0; i < procs; i++ {
			i := i
			p.Fork(i, fmt.Sprintf("w%d", i), func(wp *orca.Proc) {
				for k := 0; k < opsPer; k++ {
					accs[i%shards].Add(wp, 1)
				}
				done.Arrive(wp)
			})
		}
		done.Wait(p)
		for k := range accs {
			if got := accs[k].Value(p); got != 2*opsPer {
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

func TestShardedDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, int64) {
		rt := orca.New(shardedCfg(8, 4, 20), std.Register)
		rep := rt.Run(func(p *orca.Proc) {
			counters := make([]std.Counter, 6)
			for i := range counters {
				counters[i] = std.NewZeroCounter(p)
			}
			done := std.NewBarrier(p, 8)
			for i := 0; i < 8; i++ {
				i := i
				p.Fork(i, fmt.Sprintf("w%d", i), func(wp *orca.Proc) {
					for k := 0; k < 20; k++ {
						counters[(i+k)%len(counters)].Inc(wp)
					}
					done.Arrive(wp)
				})
			}
			done.Wait(p)
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
		counters := make([]std.Counter, shards)
		for k := range counters {
			counters[k] = std.NewZeroCounter(p, orca.OnShard(k))
		}
		done := std.NewBarrier(p, 2)
		for _, cpu := range []int{2, 3} {
			cpu := cpu
			p.Fork(cpu, fmt.Sprintf("w%d", cpu), func(wp *orca.Proc) {
				for k := 0; k < 40; k++ {
					counters[cpu].Inc(wp)
					wp.Work(2 * sim.Millisecond)
				}
				done.Arrive(wp)
			})
		}
		done.Wait(p)
		for k := range counters {
			finals[k] = counters[k].Value(p)
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

// TestInvokeFencedFromOutsideReplicaSet: a machine that holds no replica
// of an object may still fence a write to it. The fence travels its
// group's total order and applies at the holder, and the fencer's next
// read, forwarded to the holder, sees it.
func TestInvokeFencedFromOutsideReplicaSet(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 2, RTS: orca.Broadcast, Seed: 3}, withCells)
	got := -1
	rep := rt.Run(func(p *orca.Proc) {
		obj := cellB.NewWith(p, orca.Opts(orca.At(0)))
		done := std.NewFlag(p, false)
		p.Fork(1, "fencer", func(fp *orca.Proc) {
			fp.InvokeFenced(cellAssign.Fenced(obj, 5))
			got = cellValue.Call(fp, obj)
			done.Set(fp, true)
		})
		done.Await(p)
	})
	if rep.TimedOut {
		t.Fatalf("the run timed out; blocked: %v", rep.Blocked)
	}
	if got != 5 || rep.RTS.FencedOps != 1 {
		t.Fatalf("fencer read %d with %d fenced ops; want 5 and 1", got, rep.RTS.FencedOps)
	}
}
