package orca

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// constructionAllocs returns the heap allocations build makes, divided
// by units, with the collector off (a collection may allocate for the
// runtime). A count over budget is taken again, up to three lives, so
// that a one-time cost of the process (a size class's first span, a
// type's first dictionary) is not charged to the first build.
func constructionAllocs(units int, budget float64, build func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var got float64
	for life := 1; life <= 3; life++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		if got = float64(after.Mallocs-before.Mallocs) / float64(units); got <= budget {
			break
		}
	}
	return got
}

// TestRunConstructionAllocations holds what building a run allocates per
// unit of what it builds. At tsp_p64_s8's configuration (P = 64, eight
// full-span sequencer groups, batching) New joins 512 group members and
// builds 512 object managers besides the machines and their object
// services; the unit is one (machine, group) pair. Under a P = 8 Mixed
// runtime the unit is one primary copy: its creation on machine 0 and a
// first read there, which make its replica, its queue, the consumer that
// serves it and its access statistics.
func TestRunConstructionAllocations(t *testing.T) {
	skipUnderRace(t)
	// Pinned a little above the figures measured (3.59 and 11.81); with a
	// closure bound per group member, per object manager (two) and per
	// primary copy's consumer they were 7.09 and 12.81, and the runtime
	// before the construction slabs took 33.34 and 29.7.
	const perPair, perPrimary = 4.0, 12.5

	tspCfg := Config{Processors: 64, RTS: Broadcast, Seed: 1, Shards: 8, Batching: DefaultBatching()}
	var built []*Runtime
	got := constructionAllocs(64*8, perPair, func() { built = append(built, New(tspCfg, cellsSetup)) })
	for _, rt := range built {
		rt.Env().Shutdown()
	}
	t.Logf("tsp_p64_s8: %.2f allocations per (machine, group) pair", got)
	if got > perPair {
		t.Errorf("building the tsp_p64_s8 runtime allocates %.2f times per (machine, group) pair, want at most %v", got, perPair)
	}

	const primaries = 64
	primary := Opts(With(PrimaryCopy{Protocol: Update, Placement: SingleCopy}))
	rt := New(Config{Processors: 8, RTS: Broadcast, Mixed: true, Seed: 1}, cellsSetup)
	rt.Run(func(p *Proc) {
		got = constructionAllocs(primaries, perPrimary, func() {
			for range primaries {
				h := cellsB.NewWith(p, primary, 4)
				if v := cellsGet.Call(p, h, 1); v != 0 {
					t.Errorf("a new primary copy reads %d, want 0", v)
				}
			}
		})
	})
	t.Logf("P = 8 Mixed: %.2f allocations per primary copy", got)
	if got > perPrimary {
		t.Errorf("creating a primary copy and reading it once allocates %.2f times, want at most %v", got, perPrimary)
	}
}
