package orca_test

import (
	"testing"

	"repro/internal/orca"
	"repro/internal/orca/std"
)

// TestStoreBufferingLitmus runs the store-buffering (Dekker) litmus in
// every configuration-matrix cell, with both objects under each
// placement the cell can host, at three seeds: P1 assigns y and then
// reads x, P2 assigns x and then reads y. Under sequential consistency
// one of the two assignments comes first in the total order, so at
// least one read returns 1. With several sequencer groups both objects
// are pinned to group 0 (a primary copy has no group): sequential
// consistency across groups is per object only (DESIGN.md).
func TestStoreBufferingLitmus(t *testing.T) {
	matrixConfigs(t, func(t *testing.T, cfg orca.Config) {
		if cfg.Validate() != nil {
			t.Skip("not a configuration")
		}
		groups := cfg.RTS == orca.Broadcast || cfg.Mixed
		p2p := cfg.RTS != orca.Broadcast || cfg.Mixed
		for _, pl := range matrixPlacements {
			if pl.name == "Adaptive" || !pl.hosted(groups, p2p) {
				continue
			}
			for seed := int64(1); seed <= 3; seed++ {
				cfg.Seed = seed
				if rx, ry := storeBuffering(t, cfg, pl.opts); rx == 0 && ry == 0 {
					t.Errorf("%s, seed %d: both reads returned 0", pl.name, seed)
				}
			}
		}
	})
}

// storeBuffering runs the litmus once and returns P1's read of x and
// P2's read of y.
func storeBuffering(t *testing.T, cfg orca.Config, opts []orca.Option) (rx, ry int) {
	rt := orca.New(cfg, std.Register)
	if pinned := append(opts[:len(opts):len(opts)], orca.OnShard(0)); cfg.Shards > 1 && rt.CheckPlacement(pinned...) == nil {
		opts = pinned
	}
	rep := rt.Run(func(p *orca.Proc) {
		x, y := std.NewCounter(p, 0, opts...), std.NewCounter(p, 0, opts...)
		start := std.NewFlag(p, false)
		p.Fork(1, "p1", func(wp *orca.Proc) {
			start.Await(wp)
			y.Assign(wp, 1)
			rx = x.Value(wp)
		})
		p.Fork(2, "p2", func(wp *orca.Proc) {
			start.Await(wp)
			x.Assign(wp, 1)
			ry = y.Value(wp)
		})
		start.Set(p, true)
	})
	if rep.TimedOut {
		t.Fatalf("timed out; blocked: %v", rep.Blocked)
	}
	return rx, ry
}

// TestForwardedWriteVisibleToForwarder: a process outside an object's
// sequencer group reaches it through a holder, which runs the forwarded
// operation for it. A forwarded write is acknowledged only once the
// holder has applied it, so the process's next forwarded read returns
// what it just wrote — even under write combining, and with the holder
// not the group's sequencer.
func TestForwardedWriteVisibleToForwarder(t *testing.T) {
	cfg := orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1, Shards: 2, ShardSpan: 2, Sequencer: 1,
		Batching: orca.DefaultBatching()}
	rt := orca.New(cfg, std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		c := std.NewCounter(p, 0, orca.OnShard(0)) // span {0, 1}, sequencer 1
		p.Fork(2, "forwarder", func(wp *orca.Proc) {
			for i := 1; i <= 50; i++ {
				c.Assign(wp, i)
				if got := c.Value(wp); got != i {
					t.Errorf("read after assigning %d returned %d", i, got)
				}
			}
		})
	})
	if rep.TimedOut {
		t.Fatalf("timed out; blocked: %v", rep.Blocked)
	}
	if rep.RTS.Forwarded == 0 {
		t.Error("no operation was forwarded")
	}
}
