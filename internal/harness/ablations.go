package harness

import (
	"fmt"

	"repro/internal/amoeba"
	"repro/internal/apps/tsp"
	"repro/internal/orca"
	"repro/internal/sim"
)

// pair is two TSP runs on one table line: a reference and the run the
// row is about.
type pair struct{ ref, run tsp.Result }

// partrepl is the ablation for the paper's remark on TSP's job queue:
// "The RTS described in this paper (the original one), replicates it
// on all machines, although keeping a single copy would be better." It
// compares the fully replicated queue against the partial-replication
// extension keeping one copy on the manager's machine.
func partrepl(s Scale) Spec {
	cities := at(s, 13, 11)
	inst := tsp.Generate(cities, 5)
	t := Tab[pair]{
		Name: "queue",
		Cols: []string{"procs", "replicated time", "bcasts", "single-copy time", "bcasts", "time saved"},
		Cells: func(r Ran[pair]) []any {
			repl, single := r.Res.ref.Report, r.Report
			return []any{repl.Elapsed, dataFrames(repl), single.Elapsed, dataFrames(single),
				fmt.Sprintf("%.1f%%", 100*(1-float64(single.Elapsed)/float64(repl.Elapsed)))}
		},
		Prose: `Paper: keeping a single copy of the (write-mostly) job queue would
be better than replicating it on all machines.`,
	}
	for _, p := range at(s, []int{4, 8, 16}, []int{4}) {
		t.Rows = append(t.Rows, Row[pair]{Key: keys(p), Cfg: bcast(p),
			Run: func(cfg orca.Config, _ []Ran[pair]) (pair, orca.Report) {
				out := pair{tsp.RunOrca(cfg, inst, tsp.Params{}), tsp.RunOrca(cfg, inst, tsp.Params{SingleCopyQueue: true})}
				return out, out.run.Report
			}})
	}
	return Spec{Title: fmt.Sprintf("== PARTREPL: replicated vs single-copy job queue (TSP, %d cities) ==", cities), Tables: []Block{t}}
}

// intrcost is a sensitivity ablation on the kernel cost model: the ACP
// speedup bend is driven by the per-message interrupt/handler cost the
// paper identifies; scaling that cost moves the knee.
func intrcost(s Scale) Spec {
	procs := at(s, 8, 4)
	inst := tsp.Generate(at(s, 12, 10), 5)
	t := Tab[pair]{
		Name: "cost",
		Cols: []string{"interrupt cost", fmt.Sprintf("time (P=%d)", procs), "speedup"},
		Cells: func(r Ran[pair]) []any {
			return []any{r.Report.Elapsed, fmt.Sprintf("%.2f", float64(r.Res.ref.Report.Elapsed)/float64(r.Report.Elapsed))}
		},
		Prose: `Replication's economics depend on message-handling CPU cost: as the
per-message tax grows, the same program's speedup erodes.`,
	}
	for _, mult := range []int{0, 1, 4, 16} {
		costs := amoeba.DefaultCosts()
		costs.Interrupt *= sim.Time(mult)
		costs.Protocol *= sim.Time(mult)
		cfg := bcast(procs)
		cfg.KernelCosts = &costs
		t.Rows = append(t.Rows, Row[pair]{Key: keys(fmt.Sprintf("%dx", mult)), Cfg: cfg,
			Run: func(cfg orca.Config, _ []Ran[pair]) (pair, orca.Report) {
				one := cfg
				one.Processors = 1
				out := pair{tsp.RunOrca(one, inst, tsp.Params{}), tsp.RunOrca(cfg, inst, tsp.Params{})}
				return out, out.run.Report
			}})
	}
	return Spec{Title: "== INTRCOST: sensitivity of speedup to per-message CPU cost ==", Tables: []Block{t}}
}

// mixed regenerates the paper's single-copy-vs-replicated job-queue
// comparison inside one program. The paper keeps it as a remark —
// "keeping a single copy would be better" — because its RTS binds the
// whole program to one strategy. With per-object placement the
// comparison is three variants of the same TSP program:
//
//   - replicated: everything on the broadcast runtime (the paper's
//     original RTS).
//   - partial: the queue replicated only on the manager's machine,
//     still inside the broadcast runtime (forwarded operations).
//   - mixed: the queue as a primary copy on the point-to-point
//     runtime (update protocol, single copy), the bound and the rest
//     broadcast-replicated — both runtimes live in one run.
//
// The table reports elapsed virtual time, broadcast data messages, and
// the unified runtime counters, showing queue traffic leaving the
// total order while bound reads stay local everywhere.
func mixed(s Scale) Spec {
	cities := at(s, 13, 11)
	inst := tsp.Generate(cities, 5)
	t := Tab[tsp.Result]{
		Name: "queue",
		Cols: []string{"procs", "queue", "time", "bcasts", "local reads", "bcast writes", "forwarded", "p2p writes"},
		Cells: func(r Ran[tsp.Result]) []any {
			st := r.Report.RTS
			return []any{r.Report.Elapsed, dataFrames(r.Report), st.LocalReads, st.BcastWrites, st.Forwarded, st.P2PWrites}
		},
		Checks: []Check[tsp.Result]{sameOptimum},
		Prose: `Paper: the job queue is write-mostly, so replicating it on all
machines is wasted update work; per-object placement keeps the bound
replicated (reads stay local) while the queue lives in one copy —
as a forwarded broadcast object or on the point-to-point runtime.`,
	}
	for _, p := range at(s, []int{4, 8, 16}, []int{4}) {
		both := bcast(p)
		both.Mixed = true
		t.Rows = append(t.Rows,
			tspRow(inst, tsp.Params{}, bcast(p), p, "replicated"),
			tspRow(inst, tsp.Params{SingleCopyQueue: true}, bcast(p), p, "partial"),
			tspRow(inst, tsp.Params{PrimaryCopyQueue: true}, both, p, "mixed"))
	}
	return Spec{Title: fmt.Sprintf("== MIXED: per-object placement, one program, mixed runtimes (TSP, %d cities) ==", cities), Tables: []Block{t}}
}
