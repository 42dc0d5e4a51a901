package orca_test

// The batching configuration surface: Config.Batching wiring through
// Runtime (with and without Mixed), the RTSStats amortization counters, and the
// guard rails.

import (
	"fmt"
	"testing"

	"repro/internal/orca"
	"repro/internal/orca/std"
)

// runAssignStream runs P workers streaming no-result counter assigns
// and returns the run report.
func runAssignStream(cfg orca.Config, procs, opsPer int) orca.Report {
	rt := orca.New(cfg, std.Register)
	return rt.Run(func(p *orca.Proc) {
		c := std.NewCounter(p, 0)
		fin := std.NewBarrier(p, procs)
		for cpu := 0; cpu < procs; cpu++ {
			cpu := cpu
			p.Fork(cpu, fmt.Sprintf("w%d", cpu), func(wp *orca.Proc) {
				for i := 0; i < opsPer; i++ {
					c.Assign(wp, cpu*opsPer+i)
				}
				fin.Arrive(wp)
			})
		}
		fin.Wait(p)
	})
}

// TestBatchingAmortizes: the batched run moves the same op stream in
// far fewer frames and less virtual time, and reports it through the
// new RTSStats counters.
func TestBatchingAmortizes(t *testing.T) {
	const procs, opsPer = 4, 100
	base := runAssignStream(orca.Config{Processors: procs, RTS: orca.Broadcast, Seed: 1}, procs, opsPer)
	batched := runAssignStream(orca.Config{Processors: procs, RTS: orca.Broadcast, Seed: 1,
		Batching: orca.DefaultBatching()}, procs, opsPer)

	if base.RTS.BatchedOps != 0 || base.RTS.Frames != 0 {
		t.Errorf("unbatched run reports batching counters: %+v", base.RTS)
	}
	if batched.RTS.BatchedOps < int64(procs*opsPer) {
		t.Errorf("BatchedOps = %d, want >= %d", batched.RTS.BatchedOps, procs*opsPer)
	}
	if batched.RTS.Frames == 0 || batched.RTS.Frames*4 > batched.RTS.BatchedOps {
		t.Errorf("Frames = %d for %d batched ops: weak amortization", batched.RTS.Frames, batched.RTS.BatchedOps)
	}
	if batched.Net.Frames*2 > base.Net.Frames {
		t.Errorf("batched wire frames = %d, want well under unbatched %d", batched.Net.Frames, base.Net.Frames)
	}
	if batched.Elapsed*2 > base.Elapsed {
		t.Errorf("batched virtual time = %v, want well under unbatched %v", batched.Elapsed, base.Elapsed)
	}
}

// TestBatchingUnderMixed: batching applies to the broadcast subsystem
// of a mixed runtime; primary-copy objects still work alongside it.
func TestBatchingUnderMixed(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1,
		Batching: orca.DefaultBatching()}, std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		bc := std.NewCounter(p, 0) // broadcast-hosted: assigns combine
		pc := std.NewCounter(p, 0, orca.With(orca.PrimaryCopy{Protocol: orca.Update, Placement: orca.SingleCopy}))
		for i := 0; i < 50; i++ {
			bc.Assign(p, i)
			pc.Assign(p, i)
		}
		if got := bc.Value(p); got != 49 {
			t.Errorf("broadcast counter = %d, want 49", got)
		}
		if got := pc.Value(p); got != 49 {
			t.Errorf("primary-copy counter = %d, want 49", got)
		}
	})
	if rep.RTS.BatchedOps == 0 {
		t.Error("no ops combined under the mixed runtime")
	}
	if rep.RTS.P2PWrites == 0 {
		t.Error("no p2p writes recorded: the primary-copy object did not run on the p2p subsystem")
	}
	if rep.TimedOut {
		t.Fatal("mixed batched run timed out")
	}
}

// TestBatchingRequiresBroadcast: a pure point-to-point configuration
// cannot ask for batching.
func TestBatchingRequiresBroadcast(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Batching on a pure point-to-point runtime")
		}
	}()
	orca.New(orca.Config{Processors: 2, RTS: orca.P2PUpdate, Seed: 1,
		Batching: orca.DefaultBatching()}, std.Register)
}
