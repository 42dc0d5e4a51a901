package harness

import (
	"fmt"
	"io"

	"repro/internal/apps/acp"
	"repro/internal/apps/tsp"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/sim"
)

// FaultsExperiment exercises the paper's fault-tolerance claim end to
// end: "if the sequencer machine subsequently crashes, the remaining
// members elect a new one" — and, above the group layer, the whole
// stack keeps computing. Three crash scenarios run against a no-fault
// baseline:
//
//   - tsp worker crash: a worker machine dies mid-search; the
//     crash-aware manager requeues its claimed jobs and the run must
//     report the same optimum as the baseline.
//   - tsp sequencer crash: the crashed machine also hosts the group
//     sequencer, so the survivors must elect a new one before any
//     further broadcast commits.
//   - acp participant crash: an arc-consistency participant dies; its
//     variables join the orphan pool and the survivors must reach the
//     identical fixpoint.
//
// Every scenario runs twice and panics if the two fingerprints differ:
// crashes are scheduled events, so a faulty run is exactly as
// deterministic as a healthy one.
func FaultsExperiment(w io.Writer, scale Scale) {
	cities, procs := 13, 8
	nVars, dom, extra := 32, 32, 20
	if scale == Quick {
		cities, procs = 11, 4
		nVars, dom, extra = 20, 20, 12
	}
	crashNode := procs - 1

	fmt.Fprintf(w, "== FAULTS: crash-surviving runs (TSP %d cities on P=%d, ACP %d variables) ==\n",
		cities, procs, nVars)

	inst := tsp.Generate(cities, 5)
	type row struct {
		name                string
		elapsed             sim.Time
		result              string
		elections           int64
		reproposals         int64
		recoveryUS          float64
		crashes, killed     int
		retried, guardWaits int64
	}
	var rows []row

	runTSP := func(name string, seqOn int, crashAt sim.Time) tsp.Result {
		cfg := orca.Config{Processors: procs, RTS: orca.Broadcast, Seed: 1, Sequencer: seqOn}
		if crashAt > 0 {
			cfg.Faults = &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: crashNode, At: crashAt}}}
		}
		r := twice("faults "+name, func() (tsp.Result, string) {
			r := tsp.RunOrca(cfg, inst, tsp.Params{FaultTolerant: true})
			mustFinish("faults "+name, r.Report)
			return r, tspFingerprint(r)
		})
		var elections int64
		for i, gs := range r.Runtime.GroupStats() {
			if i != crashNode || crashAt == 0 {
				elections += gs.Elections
			}
		}
		killed := 0
		for _, c := range r.Report.Crashes {
			killed += c.ProcsKilled
		}
		rows = append(rows, row{
			name: name, elapsed: r.Report.Elapsed,
			result: fmt.Sprint(r.Best), elections: elections,
			reproposals: r.Report.RTS.Reproposals, recoveryUS: r.Report.RTS.RecoveryVirtualUS,
			crashes: len(r.Report.Crashes), killed: killed,
			retried: r.Report.RTS.OpsRetried, guardWaits: r.Report.RTS.GuardWaits,
		})
		return r
	}

	base := runTSP("tsp/no-fault", 0, 0)
	crashAt := base.Report.Elapsed / 2
	worker := runTSP("tsp/worker-crash", 0, crashAt)
	seq := runTSP("tsp/sequencer-crash", crashNode, crashAt)
	for _, r := range []tsp.Result{worker, seq} {
		if r.Best != base.Best {
			panic(fmt.Sprintf("harness: crash run found %d, baseline optimum %d", r.Best, base.Best))
		}
	}

	// ACP: participant loss must reproduce the baseline fixpoint.
	ainst := acp.GeneratePropagation(nVars, dom, extra, 2)
	acfg := orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}
	abase := acp.RunOrca(acfg, ainst, acp.Params{FaultTolerant: true})
	acfg.Faults = &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 2, At: abase.Report.Elapsed / 3}}}
	acrash := twice("faults acp/participant-crash", func() (acp.Result, string) {
		r := acp.RunOrca(acfg, ainst, acp.Params{FaultTolerant: true})
		mustFinish("faults acp/participant-crash", r.Report)
		return r, fmt.Sprintf("rev=%d elapsed=%d", r.Revisions, int64(r.Report.Elapsed))
	})
	for i := range abase.Domains {
		if acrash.Domains[i] != abase.Domains[i] {
			panic(fmt.Sprintf("harness: acp crash run fixpoint differs at variable %d", i))
		}
	}
	rows = append(rows,
		row{name: "acp/no-fault", elapsed: abase.Report.Elapsed, result: fmt.Sprintf("rev=%d", abase.Revisions)},
		row{name: "acp/participant-crash", elapsed: acrash.Report.Elapsed,
			result:      fmt.Sprintf("rev=%d", acrash.Revisions),
			reproposals: acrash.Report.RTS.Reproposals, recoveryUS: acrash.Report.RTS.RecoveryVirtualUS,
			crashes: len(acrash.Report.Crashes), killed: acrash.Report.Crashes[0].ProcsKilled,
			retried: acrash.Report.RTS.OpsRetried, guardWaits: acrash.Report.RTS.GuardWaits,
		})

	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.name, fmtTime(r.elapsed), r.result,
			fmt.Sprint(r.crashes), fmt.Sprint(r.killed),
			fmt.Sprint(r.elections), fmt.Sprint(r.reproposals), fmt.Sprintf("%.0fus", r.recoveryUS),
			fmt.Sprint(r.retried), fmt.Sprint(r.guardWaits),
		})
	}
	Table(w, []string{"scenario", "time", "result", "crashes", "procs killed", "elections",
		"reproposals", "recovery", "ops retried", "guard waits"}, cells)
	fmt.Fprintln(w, "Every crash run is executed twice with identical fingerprints; the")
	fmt.Fprintln(w, "TSP crash scenarios report the baseline optimum and the ACP crash")
	fmt.Fprintln(w, "scenario reproduces the baseline fixpoint bit for bit. The sequencer")
	fmt.Fprintln(w, "scenario additionally forces an election, as the paper describes.")
	fmt.Fprintln(w)
}
