package harness

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/apps/kv"
	"repro/internal/orca"
	"repro/internal/rts"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AdaptExperiment proves the adaptive placement controller on the
// input it was built for: a partitioned-affinity KV trace whose write
// traffic moves at mid-run (every machine's home key block rotates to
// the next machine). Static placements are wrong in at least one
// phase — replicated pays the total order for every write in both
// phases, a primary copy homed for phase 1 serves phase 2's writes by
// RPC — while the adaptive policy starts replicated, migrates each
// shard to a primary copy at its dominant writer, and re-homes when
// the traffic shifts.
//
// Every configuration runs twice (fingerprints must match), and the
// harness asserts the PR's acceptance bar: the adaptive policy's worst
// phase beats every static policy's worst phase on both throughput
// and p99 latency, and each adaptive phase lands within 10% of the
// per-phase best static policy.
func AdaptExperiment(w io.Writer, scale Scale) {
	p := 8
	keys := int64(4096)
	dur := 400 * sim.Millisecond
	ratePerProc := 1500.0
	if scale == Quick {
		p = 4
		keys = 1024
		dur = 160 * sim.Millisecond
		ratePerProc = 1200.0
	}
	wl := workload.Config{
		Keys: keys, Dist: workload.Uniform,
		ReadFrac: 0.5, UpdateFrac: 0.25, Seed: 1,
		Rate: ratePerProc * float64(p), Duration: dur,
		ShiftFrac: 0.5, Partitions: p, LocalFrac: 0.9,
	}
	adapt := rts.AdaptConfig{SampleEvery: 16, MinDwell: 10 * sim.Millisecond}
	// Per-phase percentiles are steady-state: the first half of each
	// phase is warmup, excluded for every policy equally. The adaptive
	// policy detects and migrates inside that window; the statics get
	// the same grace and still serve their steady state.
	warmup := dur / 4

	run := func(name string, params kv.Params) kv.Result {
		cfg := orca.Config{Processors: p, RTS: orca.Broadcast, Mixed: true, Seed: 1}
		r := twice("adapt "+name, func() (kv.Result, string) {
			r := kv.Run(cfg, params)
			mustFinish("adapt "+name, r.Report)
			return r, fmt.Sprintf("ops=%d elapsed=%d msgs=%d mig=%d ph=%v lost=%d",
				r.Ops, int64(r.Report.Elapsed), r.Report.Net.Messages,
				r.Report.RTS.Migrations, r.PhaseOps, r.LostAcked)
		})
		if r.LostAcked > 0 {
			panic(fmt.Sprintf("harness: adapt %s lost %d acknowledged writes", name, r.LostAcked))
		}
		return r
	}

	fmt.Fprintf(w, "== Adaptive placement: affinity trace (%d partitions, %.0f%% local), home rotates at t=%.0f%% ==\n",
		p, wl.LocalFrac*100, wl.ShiftFrac*100)
	fmt.Fprintf(w, "-- P=%d, %d keys, %.0f ops/s, 50/25/25 get/update/put, affine key->shard map --\n",
		p, keys, wl.Rate)
	policies := []kv.Policy{kv.PolicyReplicated, kv.PolicyPrimary, kv.PolicyMixed, kv.PolicyAdaptive}
	results := make(map[kv.Policy]kv.Result, len(policies))
	var rows [][]string
	for _, pol := range policies {
		params := kv.Params{Policy: pol, Shards: p, AffineKeys: true, Adapt: adapt,
			PhaseWarmup: warmup, Workload: wl}
		r := run(pol.String(), params)
		results[pol] = r
		rows = append(rows, []string{
			pol.String(), fmt.Sprint(r.Ops),
			fmt.Sprintf("%.0f", r.PhaseThroughput[0]), fmt.Sprintf("%.0f", r.PhaseThroughput[1]),
			fmt.Sprintf("%.0f", r.PhaseP50US[0]), fmt.Sprintf("%.0f", r.PhaseP99US[0]),
			fmt.Sprintf("%.0f", r.PhaseP50US[1]), fmt.Sprintf("%.0f", r.PhaseP99US[1]),
			fmt.Sprint(r.Report.RTS.Migrations),
		})
	}
	Table(w, []string{"policy", "ops", "ph0 ops/s", "ph1 ops/s",
		"ph0 p50us", "ph0 p99us", "ph1 p50us", "ph1 p99us", "migrations"}, rows)

	// Final placements of the adaptive run, grouped.
	ad := results[kv.PolicyAdaptive]
	byPlace := map[string]int{}
	for _, pl := range ad.Report.Placements {
		byPlace[pl]++
	}
	places := make([]string, 0, len(byPlace))
	for pl := range byPlace {
		places = append(places, pl)
	}
	sort.Strings(places)
	fmt.Fprintf(w, "final adaptive placements:")
	for _, pl := range places {
		fmt.Fprintf(w, " %s x%d", pl, byPlace[pl])
	}
	fmt.Fprintln(w)

	// Acceptance bar. Worst phase of each policy:
	worstTp := func(r kv.Result) float64 {
		if r.PhaseThroughput[0] < r.PhaseThroughput[1] {
			return r.PhaseThroughput[0]
		}
		return r.PhaseThroughput[1]
	}
	worstP99 := func(r kv.Result) float64 {
		if r.PhaseP99US[0] > r.PhaseP99US[1] {
			return r.PhaseP99US[0]
		}
		return r.PhaseP99US[1]
	}
	if ad.Report.RTS.Migrations == 0 {
		panic("harness: adapt: no migrations on the phase-shift trace")
	}
	for _, pol := range policies[:3] {
		st := results[pol]
		if worstTp(ad) <= worstTp(st) {
			panic(fmt.Sprintf("harness: adapt: worst-phase ops/s %.0f does not beat %v's %.0f",
				worstTp(ad), pol, worstTp(st)))
		}
		if worstP99(ad) >= worstP99(st) {
			panic(fmt.Sprintf("harness: adapt: worst-phase p99 %.0fus does not beat %v's %.0fus",
				worstP99(ad), pol, worstP99(st)))
		}
	}
	for ph := 0; ph < 2; ph++ {
		bestTp, bestP99 := 0.0, 0.0
		for _, pol := range policies[:3] {
			st := results[pol]
			if st.PhaseThroughput[ph] > bestTp {
				bestTp = st.PhaseThroughput[ph]
			}
			if bestP99 == 0 || st.PhaseP99US[ph] < bestP99 {
				bestP99 = st.PhaseP99US[ph]
			}
		}
		if ad.PhaseThroughput[ph] < 0.9*bestTp {
			panic(fmt.Sprintf("harness: adapt: phase %d ops/s %.0f more than 10%% behind best static %.0f",
				ph, ad.PhaseThroughput[ph], bestTp))
		}
		if ad.PhaseP99US[ph] > 1.1*bestP99 {
			panic(fmt.Sprintf("harness: adapt: phase %d p99 %.0fus more than 10%% above best static %.0fus",
				ph, ad.PhaseP99US[ph], bestP99))
		}
	}
	fmt.Fprintln(w, "acceptance: adaptive beats every static policy's worst phase (ops/s, p99)")
	fmt.Fprintln(w, "and lands within 10% of the per-phase best; migration runs fingerprint-identical.")
	fmt.Fprintln(w)
}
