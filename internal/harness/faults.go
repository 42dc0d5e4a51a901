package harness

import (
	"fmt"

	"repro/internal/apps/acp"
	"repro/internal/apps/tsp"
	"repro/internal/orca"
)

// appRun is one application run of a crash scenario: what it printed
// as its result, its answer in full, and the answer its fault-free
// baseline gave ("" for the baseline itself).
type appRun struct {
	result       string
	answer, want string
	// survivorElections sums the election rounds of the machines that
	// did not crash.
	survivorElections int64
}

// sameAnswer: a crash may cost time, never the result.
var sameAnswer = each("crash runs reproduce the baseline answer", func(r Ran[appRun]) error {
	if r.Res.want != "" && r.Res.answer != r.Res.want {
		return fmt.Errorf("answered %s, its baseline %s", r.Res.answer, r.Res.want)
	}
	return nil
})

// tspScenario is a fault-tolerant TSP run. With crashNode >= 0 that
// machine dies halfway through the run of the table's first row, which
// is also the baseline whose optimum it must reproduce.
func tspScenario(name string, cfg orca.Config, inst *tsp.Instance, crashNode int) Row[appRun] {
	return Row[appRun]{Key: keys(name), Cfg: cfg,
		Run: func(cfg orca.Config, done []Ran[appRun]) (appRun, orca.Report) {
			var want string
			if crashNode >= 0 {
				cfg = crashing(cfg, crashNode, done[0].Report.Elapsed/2)
				want = done[0].Res.answer
			}
			r := tsp.RunOrca(cfg, inst, tsp.Params{FaultTolerant: true})
			out := appRun{result: fmt.Sprint(r.Best), answer: fmt.Sprint(r.Best), want: want}
			for i, gs := range r.Runtime.GroupStats() {
				if i != crashNode {
					out.survivorElections += gs.Elections
				}
			}
			return out, r.Report
		}}
}

// acpScenario is a fault-tolerant arc-consistency run on base. With
// crashNode >= 0 the row first runs base fault-free, then again with
// the sequencer on machine seq and machine crashNode dying a third of
// the way through, and must reach the identical fixpoint.
func acpScenario(name string, base orca.Config, inst *acp.Instance, seq, crashNode int) Row[appRun] {
	return Row[appRun]{Key: keys(name), Cfg: base,
		Run: func(cfg orca.Config, _ []Ran[appRun]) (appRun, orca.Report) {
			var want string
			if crashNode >= 0 {
				healthy := acp.RunOrca(cfg, inst, acp.Params{FaultTolerant: true})
				want = fmt.Sprint(healthy.Domains)
				cfg.Sequencer = seq
				cfg = crashing(cfg, crashNode, healthy.Report.Elapsed/3)
			}
			r := acp.RunOrca(cfg, inst, acp.Params{FaultTolerant: true})
			return appRun{result: fmt.Sprintf("rev=%d", r.Revisions), answer: fmt.Sprint(r.Domains), want: want}, r.Report
		}}
}

// faults exercises the paper's fault-tolerance claim end to end: "if
// the sequencer machine subsequently crashes, the remaining members
// elect a new one" — and, above the group layer, the whole stack keeps
// computing. Three crash scenarios run against a no-fault baseline:
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
// Crashes are scheduled events, so a faulty run is exactly as
// deterministic as a healthy one.
func faults(s Scale) Spec {
	cities, procs, nVars := at(s, 13, 11), at(s, 8, 4), at(s, 32, 20)
	inst := tsp.Generate(cities, 5)
	ainst := acp.GeneratePropagation(nVars, nVars, at(s, 20, 12), 2)
	last := procs - 1
	seqOnLast := bcast(procs)
	seqOnLast.Sequencer = last
	t := Tab[appRun]{
		Name: "scenarios",
		Cols: []string{"scenario", "time", "result", "crashes", "procs killed", "elections",
			"reproposals", "recovery", "ops retried", "guard waits"},
		Rows: []Row[appRun]{
			tspScenario("tsp/no-fault", bcast(procs), inst, -1),
			tspScenario("tsp/worker-crash", bcast(procs), inst, last),
			tspScenario("tsp/sequencer-crash", seqOnLast, inst, last),
			acpScenario("acp/no-fault", bcast(4), ainst, 0, -1),
			acpScenario("acp/participant-crash", bcast(4), ainst, 0, 2),
		},
		Cells: func(r Ran[appRun]) []any {
			rep, st := r.Report, r.Report.RTS
			return []any{rep.Elapsed, r.Res.result, len(rep.Crashes), procsKilled(rep), r.Res.survivorElections,
				st.Reproposals, fmt.Sprintf("%.0fus", st.RecoveryVirtualUS), st.OpsRetried, st.GuardWaits}
		},
		Checks: []Check[appRun]{sameAnswer,
			{"the sequencer crash forces an election", func(rows []Ran[appRun]) error {
				if r := rows[2]; r.Res.survivorElections == 0 {
					return fmt.Errorf("row %q: survivors ran 0 elections", r)
				}
				return nil
			}}},
		Prose: `Every crash run is executed twice with identical fingerprints; the
TSP crash scenarios report the baseline optimum and the ACP crash
scenario reproduces the baseline fixpoint bit for bit. The sequencer
scenario additionally forces an election, as the paper describes.`,
	}
	return Spec{Title: fmt.Sprintf("== FAULTS: crash-surviving runs (TSP %d cities on P=%d, ACP %d variables) ==", cities, procs, nVars), Tables: []Block{t}}
}
