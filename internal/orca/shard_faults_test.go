package orca_test

import (
	"fmt"
	"testing"

	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/sim"
)

// shardedFenceRun executes a sharded program that mixes cross-shard
// fenced transfers with per-shard traffic while the wire drops
// fragments and one shard's sequencer crashes, and returns an
// outcome fingerprint. With full-span shards and sequencer rotation 0,
// shard k sequences on machine k: crashing machine 1 takes down
// exactly shard 1's sequencer.
func shardedFenceRun(t *testing.T, method group.Method, protocol group.Protocol) string {
	t.Helper()
	const procs, shards, transfers, opsPer = 4, 4, 8, 30
	plan := &netsim.FaultPlan{
		Crashes: []netsim.Crash{{Node: 1, At: 60 * sim.Millisecond}},
		Losses: []netsim.LossWindow{{
			Src: netsim.AnyNode, Dst: netsim.AnyNode,
			From: 10 * sim.Millisecond, Until: 150 * sim.Millisecond, Prob: 0.05,
		}},
	}
	cfg := orca.Config{Processors: procs, RTS: orca.Broadcast, Shards: shards,
		GroupMethod: method, Protocol: protocol, Seed: 33, Faults: plan}
	rt := orca.New(cfg, withCells)
	finals := make([]int, shards)
	rep := rt.Run(func(p *orca.Proc) {
		counters := make([]orca.Handle[*cellState], shards)
		for k := range counters {
			counters[k] = cellB.NewWith(p, orca.Opts(orca.OnShard(k)))
		}
		done := std.NewBarrier(p, 2)
		for _, cpu := range []int{2, 3} {
			cpu := cpu
			p.Fork(cpu, fmt.Sprintf("w%d", cpu), func(wp *orca.Proc) {
				for i := 0; i < opsPer; i++ {
					cellInc.Call(wp, counters[cpu])
					wp.Work(time1ms)
				}
				done.Arrive(wp)
			})
		}
		// Cross-shard fences spanning the crashed shard and a healthy
		// one: each must reserve a slot in both streams even while
		// shard 1 is recovering its sequencer.
		for i := 0; i < transfers; i++ {
			p.InvokeFenced(cellAdd.Fenced(counters[0], 2), cellAdd.Fenced(counters[1], 3))
			p.Work(5 * time1ms)
		}
		done.Wait(p)
		for k := range counters {
			finals[k] = cellValue.Call(p, counters[k])
		}
	})
	if rep.TimedOut {
		t.Fatalf("%v/%v: timed out (blocked: %v)", method, protocol, rep.Blocked)
	}
	if finals[0] != 2*transfers || finals[1] != 3*transfers {
		t.Fatalf("%v/%v: fenced counters = %v, want [%d %d ...]",
			method, protocol, finals, 2*transfers, 3*transfers)
	}
	if finals[2] != opsPer || finals[3] != opsPer {
		t.Fatalf("%v/%v: surviving-shard counters = %v, want %d in shards 2,3",
			method, protocol, finals, opsPer)
	}
	if len(rep.Crashes) != 1 || rep.Crashes[0].Node != 1 {
		t.Fatalf("%v/%v: crash record = %+v", method, protocol, rep.Crashes)
	}
	return fmt.Sprintf("finals=%v elapsed=%d msgs=%d frames=%d fenced=%d",
		finals, int64(rep.Elapsed), rep.Net.Messages, rep.Net.Frames, rep.RTS.FencedOps)
}

// TestShardedFenceDeterministicUnderFaults: the cross-shard fence stays
// bit-deterministic under fragment loss plus a one-shard sequencer
// crash, for all three sequencing protocols — two runs of each
// configuration must produce identical outcome fingerprints.
func TestShardedFenceDeterministicUnderFaults(t *testing.T) {
	cases := []struct {
		name     string
		method   group.Method
		protocol group.Protocol
	}{
		{"PB", group.ForcePB, group.ElectedSequencer},
		{"BB", group.ForceBB, group.ElectedSequencer},
		{"Consensus", group.Auto, group.Consensus},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fp1 := shardedFenceRun(t, tc.method, tc.protocol)
			fp2 := shardedFenceRun(t, tc.method, tc.protocol)
			if fp1 != fp2 {
				t.Fatalf("fence run not deterministic under %s:\n  %s\n  %s", tc.name, fp1, fp2)
			}
		})
	}
}

// fenceAbortRun drives a stream of back-to-back cross-shard fences
// from node 1 and kills that machine mid-stream, then proves the
// presumed-abort release: the shards the dead initiator had reserved
// un-pause after the abort grace without applying the interrupted
// fence's writes, so a survivor's writes to both shards complete and
// the two fenced counters stay in lock-step (all-or-nothing).
func fenceAbortRun(t *testing.T, method group.Method, protocol group.Protocol, crashAt sim.Time) string {
	t.Helper()
	const procs, shards = 4, 4
	plan := &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 1, At: crashAt}}}
	cfg := orca.Config{Processors: procs, RTS: orca.Broadcast, Shards: shards,
		GroupMethod: method, Protocol: protocol, Seed: 17, Faults: plan}
	rt := orca.New(cfg, withCells)
	var v0, v1 int
	rep := rt.Run(func(p *orca.Proc) {
		c0 := cellB.NewWith(p, orca.Opts(orca.OnShard(0)))
		c1 := cellB.NewWith(p, orca.Opts(orca.OnShard(1)))
		p.Fork(1, "initiator", func(wp *orca.Proc) {
			// Back-to-back fences: the crash instant is inside one of
			// them, between the shard-0 and shard-1 reservations.
			for i := 0; i < 200; i++ {
				wp.InvokeFenced(cellAdd.Fenced(c0, 2), cellAdd.Fenced(c1, 3))
			}
		})
		p.Sleep(crashAt + 2*sim.Millisecond)
		// Survivor writes to both shards: these sit behind the paused
		// streams until the presumed abort releases them.
		cellAdd.Call(p, c0, 10)
		cellAdd.Call(p, c1, 10)
		v0 = cellValue.Call(p, c0)
		v1 = cellValue.Call(p, c1)
	})
	if rep.TimedOut {
		t.Fatalf("%v/%v: timed out (blocked: %v)", method, protocol, rep.Blocked)
	}
	if len(rep.Crashes) != 1 || rep.Crashes[0].Node != 1 {
		t.Fatalf("%v/%v: crash record = %+v", method, protocol, rep.Crashes)
	}
	k0, k1 := v0-10, v1-10
	if k0%2 != 0 || k1%3 != 0 || k0/2 != k1/3 {
		t.Fatalf("%v/%v: fenced counters %d/%d: interrupted fence applied partially", method, protocol, v0, v1)
	}
	return fmt.Sprintf("v0=%d v1=%d elapsed=%d msgs=%d", v0, v1, int64(rep.Elapsed), rep.Net.Messages)
}

// TestFencePresumedAbortOnInitiatorCrash kills a fence initiator
// between its shard reservations: the paused shards must release after
// the abort grace with the fence applied nowhere, and the whole
// schedule must stay deterministic. Before the presumed-abort release
// this scenario deadlocked — every machine's shard-0 stream waited
// forever for a shard-1 arrival that can never come.
func TestFencePresumedAbortOnInitiatorCrash(t *testing.T) {
	cases := []struct {
		name     string
		method   group.Method
		protocol group.Protocol
		crashAt  sim.Time
	}{
		{"PB", group.ForcePB, group.ElectedSequencer, 20 * sim.Millisecond},
		{"Consensus", group.Auto, group.Consensus, 60 * sim.Millisecond},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fp1 := fenceAbortRun(t, tc.method, tc.protocol, tc.crashAt)
			fp2 := fenceAbortRun(t, tc.method, tc.protocol, tc.crashAt)
			if fp1 != fp2 {
				t.Fatalf("abort run not deterministic:\n  %s\n  %s", fp1, fp2)
			}
			t.Logf("%s", fp1)
		})
	}
}

// TestFencePresumedAbortOutlivesItsWatcher: the initiator dies between
// its shard reservations, and then, inside the abort grace, so does the
// lowest live machine, which is where the presumed-abort watch would
// run if it were a thread of a machine. The watch belongs to the
// environment, so the fence still aborts on every machine, the paused
// shards release, and a survivor's writes sequenced behind the fence
// complete with the fence applied nowhere.
func TestFencePresumedAbortOutlivesItsWatcher(t *testing.T) {
	const crashAt = 20 * sim.Millisecond
	plan := &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 1, At: crashAt}, {Node: 0, At: crashAt + 100*sim.Millisecond}}}
	cfg := orca.Config{Processors: 4, RTS: orca.Broadcast, Shards: 4, GroupMethod: group.ForcePB, Seed: 17, Faults: plan}
	rt := orca.New(cfg, withCells)
	var v0, v1 int
	rep := rt.Run(func(p *orca.Proc) {
		c0 := cellB.NewWith(p, orca.Opts(orca.OnShard(0)))
		c1 := cellB.NewWith(p, orca.Opts(orca.OnShard(1)))
		p.Fork(1, "initiator", func(wp *orca.Proc) {
			for i := 0; i < 200; i++ {
				wp.InvokeFenced(cellAdd.Fenced(c0, 2), cellAdd.Fenced(c1, 3))
			}
		})
		p.Fork(2, "survivor", func(wp *orca.Proc) {
			wp.Sleep(crashAt + 2*sim.Millisecond)
			cellAdd.Call(wp, c0, 10)
			cellAdd.Call(wp, c1, 10)
			v0 = cellValue.Call(wp, c0)
			v1 = cellValue.Call(wp, c1)
		})
		p.Sleep(sim.Second) // dies with machine 0
	})
	if rep.TimedOut {
		t.Fatalf("timed out: the fence never aborted (blocked: %v)", rep.Blocked)
	}
	if len(rep.Crashes) != 2 {
		t.Fatalf("crash records = %+v", rep.Crashes)
	}
	if k0, k1 := v0-10, v1-10; k0 < 0 || k0%2 != 0 || k1%3 != 0 || k0/2 != k1/3 {
		t.Fatalf("fenced counters %d/%d: the interrupted fence applied partially", v0, v1)
	}
}
