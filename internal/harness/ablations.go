package harness

import (
	"fmt"
	"io"

	"repro/internal/amoeba"
	"repro/internal/apps/tsp"
	"repro/internal/orca"
	"repro/internal/sim"
)

// PartReplExperiment is the ablation for the paper's remark on TSP's
// job queue: "The RTS described in this paper (the original one),
// replicates it on all machines, although keeping a single copy would
// be better." It compares the fully replicated queue against the
// partial-replication extension keeping one copy on the manager's
// machine.
func PartReplExperiment(w io.Writer, scale Scale) {
	cities := 13
	procs := []int{4, 8, 16}
	if scale == Quick {
		cities = 11
		procs = []int{4}
	}
	inst := tsp.Generate(cities, 5)
	fmt.Fprintf(w, "== PARTREPL: replicated vs single-copy job queue (TSP, %d cities) ==\n", cities)
	var rows [][]string
	for _, p := range procs {
		repl := tsp.RunOrca(orca.Config{Processors: p, RTS: orca.Broadcast, Seed: 1}, inst, tsp.Params{})
		single := tsp.RunOrca(orca.Config{Processors: p, RTS: orca.Broadcast, Seed: 1}, inst,
			tsp.Params{SingleCopyQueue: true})
		// grp-data is the sequenced data frame, whatever its capacity.
		rows = append(rows, []string{
			fmt.Sprint(p),
			fmtTime(repl.Report.Elapsed), fmt.Sprint(repl.Report.Net.CountsByKind["grp-data"]),
			fmtTime(single.Report.Elapsed), fmt.Sprint(single.Report.Net.CountsByKind["grp-data"]),
			fmt.Sprintf("%.1f%%", 100*(1-float64(single.Report.Elapsed)/float64(repl.Report.Elapsed))),
		})
	}
	Table(w, []string{"procs", "replicated time", "bcasts", "single-copy time", "bcasts", "time saved"}, rows)
	fmt.Fprintln(w, "Paper: keeping a single copy of the (write-mostly) job queue would")
	fmt.Fprintln(w, "be better than replicating it on all machines.")
	fmt.Fprintln(w)
}

// InterruptCostExperiment is a sensitivity ablation on the kernel
// cost model: the ACP speedup bend is driven by the per-message
// interrupt/handler cost the paper identifies; scaling that cost
// moves the knee.
func InterruptCostExperiment(w io.Writer, scale Scale) {
	cities := 12
	procs := 8
	if scale == Quick {
		cities = 10
		procs = 4
	}
	inst := tsp.Generate(cities, 5)
	fmt.Fprintln(w, "== INTRCOST: sensitivity of speedup to per-message CPU cost ==")
	var rows [][]string
	for _, mult := range []int{0, 1, 4, 16} {
		costs := amoeba.DefaultCosts()
		costs.Interrupt *= sim.Time(mult)
		costs.Protocol *= sim.Time(mult)
		run := func(p int) tsp.Result {
			return tsp.RunOrca(orca.Config{
				Processors: p, RTS: orca.Broadcast, Seed: 1, KernelCosts: &costs,
			}, inst, tsp.Params{})
		}
		t1 := run(1)
		tp := run(procs)
		rows = append(rows, []string{
			fmt.Sprintf("%dx", mult),
			fmtTime(tp.Report.Elapsed),
			fmt.Sprintf("%.2f", float64(t1.Report.Elapsed)/float64(tp.Report.Elapsed)),
		})
	}
	Table(w, []string{"interrupt cost", "time (P=" + fmt.Sprint(procs) + ")", "speedup"}, rows)
	fmt.Fprintln(w, "Replication's economics depend on message-handling CPU cost: as the")
	fmt.Fprintln(w, "per-message tax grows, the same program's speedup erodes.")
	fmt.Fprintln(w)
}
