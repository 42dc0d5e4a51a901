package rts

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// FuzzAdaptController drives the real placement controller (adaptInfo
// window fold + adaptDecide + dwell) with synthetic counter streams
// and checks its safety and liveness properties on every input:
//
//   - no flapping: two migrations of the same object are always at
//     least MinDwell of virtual time apart;
//   - decisions are well-formed: to-primary only from replicated,
//     to-replicated/re-home only from a primary copy, targets in
//     range and never the current primary;
//   - convergence on stationary workloads: a clearly write-heavy
//     concentrated stream ends as a primary copy on the dominant
//     writer and stops migrating; a clearly read-heavy stream never
//     leaves full replication.
//
// The stream is stationary by construction — fixed write fraction,
// fixed dominant-writer share — so the convergence assertions hold for
// any fuzzed parameters in the clear-cut regimes; near-threshold
// parameters still exercise the safety properties.
func FuzzAdaptController(f *testing.F) {
	f.Add(int64(1), byte(230), byte(240), byte(2)) // write-heavy, concentrated
	f.Add(int64(2), byte(10), byte(128), byte(3))  // read-heavy
	f.Add(int64(3), byte(100), byte(140), byte(4)) // near the thresholds
	f.Add(int64(4), byte(255), byte(0), byte(5))   // write-heavy, scattered writers
	f.Add(int64(5), byte(160), byte(255), byte(6)) // single sole writer
	f.Fuzz(func(t *testing.T, seed int64, wfB, dsB, nodesB byte) {
		nodes := 2 + int(nodesB)%6
		writeFrac := float64(wfB) / 255
		domShare := float64(dsB) / 255
		rng := rand.New(rand.NewSource(seed))
		dom := rng.Intn(nodes)
		cfg := AdaptConfig{}.withDefaults()
		info := &adaptInfo{
			cfg:    cfg,
			reads:  make([]int64, nodes),
			writes: make([]int64, nodes),
		}
		replicated, primary := true, -1
		now := sim.Time(0)
		const windows = 40
		var migrations []sim.Time
		lastMigWindow := -1
		for wdw := 0; wdw < windows; wdw++ {
			for a := 0; a < cfg.SampleEvery; a++ {
				now += 50 * sim.Microsecond
				n := rng.Intn(nodes)
				if rng.Float64() < writeFrac {
					if rng.Float64() < domShare {
						n = dom // concentrate this share of writes
					}
					info.writes[n]++
				} else {
					info.reads[n]++
				}
				info.seen++
			}
			act, target := info.step(replicated, primary, now)
			switch act {
			case adaptStay:
				continue
			case adaptToPrimary:
				if !replicated {
					t.Fatalf("window %d: to-primary from a primary copy", wdw)
				}
				if target < 0 || target >= nodes {
					t.Fatalf("window %d: to-primary target %d out of range [0,%d)", wdw, target, nodes)
				}
				replicated, primary = false, target
			case adaptToReplicated:
				if replicated {
					t.Fatalf("window %d: to-replicated while already replicated", wdw)
				}
				replicated, primary = true, -1
			case adaptRehome:
				if replicated {
					t.Fatalf("window %d: re-home of a replicated object", wdw)
				}
				if target < 0 || target >= nodes || target == primary {
					t.Fatalf("window %d: re-home target %d invalid (primary %d, %d nodes)", wdw, target, primary, nodes)
				}
				primary = target
			}
			migrations = append(migrations, now)
			info.last = now // what finishMigration stamps after the flip
			lastMigWindow = wdw
		}
		for i := 1; i < len(migrations); i++ {
			if gap := migrations[i] - migrations[i-1]; gap < cfg.MinDwell {
				t.Fatalf("flapping: migrations %d and %d only %v apart, dwell is %v",
					i-1, i, gap, cfg.MinDwell)
			}
		}
		// Clear-cut stationary regimes must converge. Margins keep the
		// per-window sampling noise (sigma ~ 0.05 at SampleEvery=64)
		// far from the decision thresholds.
		if writeFrac >= 0.55 && domShare >= 0.8 {
			if replicated || primary != dom {
				t.Fatalf("write-heavy concentrated stream (wf=%.2f ds=%.2f) ended replicated=%v primary=%d, want primary@%d",
					writeFrac, domShare, replicated, primary, dom)
			}
			if lastMigWindow >= windows-10 {
				t.Fatalf("still migrating at window %d of %d on a stationary stream", lastMigWindow, windows)
			}
		}
		if writeFrac <= 0.08 {
			if !replicated || len(migrations) != 0 {
				t.Fatalf("read-heavy stream (wf=%.2f) migrated %d times, want none", writeFrac, len(migrations))
			}
		}
	})
}
