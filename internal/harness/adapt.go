package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps/kv"
	"repro/internal/rts"
	"repro/internal/sim"
	"repro/internal/workload"
)

// adapt proves the adaptive placement controller on the input it was
// built for: a partitioned-affinity KV trace whose write traffic moves
// at mid-run (every machine's home key block rotates to the next
// machine). Static placements are wrong in at least one phase —
// replicated pays the total order for every write in both phases, a
// primary copy homed for phase 1 serves phase 2's writes by RPC —
// while the adaptive policy starts replicated, migrates each shard to
// a primary copy at its dominant writer, and re-homes when the traffic
// shifts.
//
// The checks are the acceptance bar: the adaptive policy's worst phase
// beats every static policy's worst phase on both throughput and p99
// latency, and each adaptive phase lands within 10% of the per-phase
// best static policy.
func adapt(s Scale) Spec {
	p, keyspace := at(s, 8, 4), at(s, int64(4096), 1024)
	dur := sim.Time(at(s, 400, 160)) * sim.Millisecond
	wl := workload.Config{
		Keys: keyspace, Dist: workload.Uniform,
		ReadFrac: 0.5, UpdateFrac: 0.25, Seed: 1,
		Rate: at(s, 1500.0, 1200.0) * float64(p), Duration: dur,
		ShiftFrac: 0.5, Partitions: p, LocalFrac: 0.9,
	}
	// The last row is the adaptive policy, the ones above it the statics.
	split := func(rows []Ran[kv.Result]) (statics []Ran[kv.Result], adaptive kv.Result) {
		return rows[:len(rows)-1], rows[len(rows)-1].Res
	}

	t := Tab[kv.Result]{
		Name: "policies",
		Heading: fmt.Sprintf("-- P=%d, %d keys, %.0f ops/s, 50/25/25 get/update/put, affine key->shard map --",
			p, keyspace, wl.Rate),
		Cols: []string{"policy", "ops", "ph0 ops/s", "ph1 ops/s", "ph0 p50us", "ph0 p99us", "ph1 p50us", "ph1 p99us", "migrations"},
		Cells: func(r Ran[kv.Result]) []any {
			kr := r.Res
			return []any{kr.Ops, fmt.Sprintf("%.0f", kr.PhaseThroughput[0]), fmt.Sprintf("%.0f", kr.PhaseThroughput[1]),
				fmt.Sprintf("%.0f", kr.PhaseP50US[0]), fmt.Sprintf("%.0f", kr.PhaseP99US[0]), fmt.Sprintf("%.0f", kr.PhaseP50US[1]), fmt.Sprintf("%.0f", kr.PhaseP99US[1]),
				r.Report.RTS.Migrations}
		},
		Checks: []Check[kv.Result]{noLostAcked,
			{"the adaptive policy migrates on the phase-shift trace", func(rows []Ran[kv.Result]) error {
				if _, ad := split(rows); ad.Report.RTS.Migrations == 0 {
					return fmt.Errorf("row %q: 0 migrations", rows[len(rows)-1])
				}
				return nil
			}},
			{"adaptive worst phase beats every static worst phase", func(rows []Ran[kv.Result]) error {
				statics, ad := split(rows)
				for _, st := range statics {
					if a, b := min(ad.PhaseThroughput[0], ad.PhaseThroughput[1]), min(st.Res.PhaseThroughput[0], st.Res.PhaseThroughput[1]); a <= b {
						return fmt.Errorf("worst-phase ops/s %.0f does not beat row %q's %.0f", a, st, b)
					}
					if a, b := max(ad.PhaseP99US[0], ad.PhaseP99US[1]), max(st.Res.PhaseP99US[0], st.Res.PhaseP99US[1]); a >= b {
						return fmt.Errorf("worst-phase p99 %.0fus does not beat row %q's %.0fus", a, st, b)
					}
				}
				return nil
			}},
			{"each adaptive phase within 10% of the best static", func(rows []Ran[kv.Result]) error {
				statics, ad := split(rows)
				for ph := 0; ph < 2; ph++ {
					bestRate, bestP99 := 0.0, statics[0].Res.PhaseP99US[ph]
					for _, st := range statics {
						bestRate = max(bestRate, st.Res.PhaseThroughput[ph])
						bestP99 = min(bestP99, st.Res.PhaseP99US[ph])
					}
					if ad.PhaseThroughput[ph] < 0.9*bestRate {
						return fmt.Errorf("phase %d ops/s %.0f more than 10%% behind best static %.0f", ph, ad.PhaseThroughput[ph], bestRate)
					}
					if ad.PhaseP99US[ph] > 1.1*bestP99 {
						return fmt.Errorf("phase %d p99 %.0fus more than 10%% above best static %.0fus", ph, ad.PhaseP99US[ph], bestP99)
					}
				}
				return nil
			}},
		},
		Summary: func(rows []Ran[kv.Result]) string {
			_, ad := split(rows)
			count := map[string]int{}
			for _, pl := range ad.Report.Placements {
				count[pl]++
			}
			var places []string
			for pl, n := range count {
				places = append(places, fmt.Sprintf(" %s x%d", pl, n))
			}
			sort.Strings(places)
			return "final adaptive placements:" + strings.Join(places, "")
		},
		Prose: `acceptance: adaptive beats every static policy's worst phase (ops/s, p99)
and lands within 10% of the per-phase best; migration runs fingerprint-identical.`,
	}
	for _, pol := range []kv.Policy{kv.PolicyReplicated, kv.PolicyPrimary, kv.PolicyMixed, kv.PolicyAdaptive} {
		t.Rows = append(t.Rows, kvRow(mixedRTS(p), kv.Params{
			Policy: pol, Shards: p, AffineKeys: true, Workload: wl,
			Adapt: rts.AdaptConfig{SampleEvery: 16, MinDwell: 10 * sim.Millisecond},
			// Per-phase percentiles are steady-state: the first half of each
			// phase is warmup, excluded for every policy equally. The adaptive
			// policy detects and migrates inside that window; the statics get
			// the same grace and still serve their steady state.
			PhaseWarmup: dur / 4,
		}, pol))
	}
	return Spec{Title: fmt.Sprintf("== Adaptive placement: affinity trace (%d partitions, %.0f%% local), home rotates at t=%.0f%% ==",
		p, wl.LocalFrac*100, wl.ShiftFrac*100), Tables: []Block{t}}
}
