package harness

import (
	"fmt"
	"slices"

	"repro/internal/apps/acp"
	"repro/internal/apps/atpg"
	"repro/internal/apps/chess"
	"repro/internal/apps/tsp"
	"repro/internal/orca"
)

// sweep is a speedup experiment as data: one application, one or more
// named variants of it, run on the broadcast runtime at each processor
// count. The four application experiments of §4 differ only in the
// values of this struct.
type sweep struct {
	title string
	curve string // the plot's title
	axis  int    // the plot's processor axis
	prose string

	procs  []int
	label  []string // header of the variant column; none when there is one variant
	extra  []string // headers of the application's own columns
	series []series
	// minSpeedup is demanded of every variant at the largest processor
	// count.
	minSpeedup float64
}

// series is one variant: its name in the table and the plot's legend,
// and a run returning the application's own cells.
type series struct {
	name string
	run  func(cfg orca.Config) ([]any, orca.Report)
}

// point is one run of a sweep.
type point struct {
	series  string
	speedup float64 // over the variant's first processor count
	extra   []any
}

func (sw sweep) spec() Spec {
	t := Tab[point]{
		Name:  "speedup",
		Cols:  slices.Concat(sw.label, []string{"procs", "time", "speedup"}, sw.extra, []string{"messages"}),
		Curve: &Curve[point]{sw.curve, sw.axis, func(r Ran[point]) (string, float64) { return r.Res.series, r.Res.speedup }},
		Prose: sw.prose,
		Cells: func(r Ran[point]) []any {
			return slices.Concat([]any{r.Report.Elapsed, fmt.Sprintf("%.2f", r.Res.speedup)}, r.Res.extra, []any{r.Report.Net.Messages})
		},
	}
	for _, s := range sw.series {
		first := len(t.Rows)
		for _, p := range sw.procs {
			key := keys(p)
			if sw.label != nil {
				key = keys(s.name, p)
			}
			t.Rows = append(t.Rows, Row[point]{Key: key, Cfg: bcast(p),
				Run: func(cfg orca.Config, done []Ran[point]) (point, orca.Report) {
					extra, rep := s.run(cfg)
					base := rep.Elapsed
					if len(done) > first {
						base = done[first].Report.Elapsed
					}
					return point{s.name, float64(base) / float64(rep.Elapsed), extra}, rep
				}})
		}
	}
	n := len(sw.procs)
	t.Checks = []Check[point]{
		{fmt.Sprintf("%d series of %d points from speedup 1.00", len(sw.series), n), func(rows []Ran[point]) error {
			if len(rows) != len(sw.series)*n {
				return fmt.Errorf("%d rows, want %d", len(rows), len(sw.series)*n)
			}
			for i := 0; i < len(rows); i += n {
				if rows[i].Res.speedup != 1 {
					return fmt.Errorf("row %q (%s): base speedup %v, want 1", rows[i], rows[i].Res.series, rows[i].Res.speedup)
				}
			}
			return nil
		}},
		each(fmt.Sprintf("speedup at P=%d is at least %.2f", sw.procs[n-1], sw.minSpeedup), func(r Ran[point]) error {
			if r.Cfg.Processors == sw.procs[n-1] && r.Res.speedup < sw.minSpeedup {
				return fmt.Errorf("%s: speedup %.2f, want >= %.2f", r.Res.series, r.Res.speedup, sw.minSpeedup)
			}
			return nil
		}),
	}
	return Spec{Title: sw.title, Tables: []Block{t}}
}

// quickProcs is every sweep's processor axis at Quick.
var quickProcs = []int{1, 2, 4}

// upTo is 1..n, the paper's processor axis.
func upTo(n int) []int {
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i + 1
	}
	return ps
}

// fig2 reproduces Figure 2: TSP speedup on a 14-city problem, 1..16
// processors.
func fig2(s Scale) Spec {
	cities := at(s, 14, 11)
	inst := tsp.Generate(cities, 5)
	return sweep{
		title: fmt.Sprintf("== FIG2: Traveling Salesman Problem (%d cities, branch and bound, broadcast RTS) ==", cities),
		curve: "Fig. 2 — Speedup for the Traveling Salesman Problem", axis: 16,
		procs: at(s, upTo(16), quickProcs), extra: []string{"nodes", "best"}, minSpeedup: 1.5,
		series: []series{{fmt.Sprintf("TSP %d cities", cities), func(cfg orca.Config) ([]any, orca.Report) {
			r := tsp.RunOrca(cfg, inst, tsp.Params{})
			return []any{r.Nodes, r.Best}, r.Report
		}}},
	}.spec()
}

// fig3 reproduces Figure 3: Arc Consistency speedup with 64 variables,
// workers on processors 2..16 (the master has its own).
func fig3(s Scale) Spec {
	n := at(s, 64, 24)
	inst := acp.GeneratePropagation(n, n, at(s, 40, 16), 2)
	return sweep{
		title: fmt.Sprintf("== FIG3: Arc Consistency Problem (%d variables, static partition, broadcast RTS) ==", n),
		curve: "Fig. 3 — Speedup for the Arc Consistency Problem", axis: 16,
		procs: at(s, upTo(16), quickProcs), extra: []string{"revisions"}, minSpeedup: 1,
		series: []series{{fmt.Sprintf("ACP %d variables", n), func(cfg orca.Config) ([]any, orca.Report) {
			r := acp.RunOrca(cfg, inst, acp.Params{})
			return []any{r.Revisions}, r.Report
		}}},
	}.spec()
}

// midgame is the quiet middlegame position every chess run searches.
const midgame = "r1bq1rk1/pp1n1ppp/2pbpn2/3p4/2PP4/2NBPN2/PP3PPP/R1BQ1RK1 w - - 0 1"

// acpRow runs the arc-consistency program on the row's configuration.
func acpRow(inst *acp.Instance, params acp.Params, cfg orca.Config, key ...any) Row[acp.Result] {
	return Row[acp.Result]{Key: keys(key...), Cfg: cfg, Run: func(cfg orca.Config, _ []Ran[acp.Result]) (acp.Result, orca.Report) {
		r := acp.RunOrca(cfg, inst, params)
		return r, r.Report
	}}
}

// chessRow runs Oracol on the middlegame position.
func chessRow(params chess.Params, cfg orca.Config, key ...any) Row[chess.Result] {
	b := must(chess.FromFEN(midgame))
	return Row[chess.Result]{Key: keys(key...), Cfg: cfg, Run: func(cfg orca.Config, _ []Ran[chess.Result]) (chess.Result, orca.Report) {
		r := chess.RunOrca(cfg, b, params)
		return r, r.Report
	}}
}

// atpgRow runs test generation for every fault of circuit c.
func atpgRow(c *atpg.Circuit, params atpg.Params, cfg orca.Config, key ...any) Row[atpg.Result] {
	faults := atpg.AllFaults(c)
	return Row[atpg.Result]{Key: keys(key...), Cfg: cfg, Run: func(cfg orca.Config, _ []Ran[atpg.Result]) (atpg.Result, orca.Report) {
		r := atpg.RunOrca(cfg, c, faults, params)
		return r, r.Report
	}}
}

// chessSweep reproduces §4.3: Oracol speedups (the paper reports
// 4.5-5.5 on 10 CPUs) and the shared-vs-local table comparison.
func chessSweep(s Scale) Spec {
	depth := at(s, 6, 4)
	b := must(chess.FromFEN(midgame))
	tables := func(name string, shared bool) series {
		return series{name, func(cfg orca.Config) ([]any, orca.Report) {
			r := chess.RunOrca(cfg, b, chess.Params{MaxDepth: depth, SharedTT: shared, SharedKiller: shared, SplitMinDepth: 1})
			return []any{r.Nodes}, r.Report
		}}
	}
	return sweep{
		title: fmt.Sprintf("== CHESS: Oracol parallel alpha-beta (depth %d, PV-splitting) ==", depth),
		curve: "§4.3 — Oracol speedup, shared vs local tables", axis: 10,
		procs: at(s, []int{1, 2, 4, 6, 8, 10}, quickProcs), label: []string{"tables"}, extra: []string{"nodes"}, minSpeedup: 1,
		series: []series{tables("shared tables", true), tables("local tables", false)},
		prose: `Paper: speedups between 4.5 and 5.5 on 10 CPUs; almost all overhead
is search overhead. Shared tables are most efficient, especially the
killer table.`,
	}.spec()
}

// atpgSweep reproduces §4.4: near-linear speedup without fault
// simulation; with fault simulation about 3x faster in absolute terms
// but inferior speedup. The dynamic work distribution the paper lists
// as future work is included.
func atpgSweep(s Scale) Spec {
	c := atpg.Generate(at(s, 24, 12), at(s, 10, 5), at(s, 60, 20), 42)
	faults := atpg.AllFaults(c)
	sw := sweep{
		title: fmt.Sprintf("== ATPG: PODEM on a generated circuit (%d lines, %d faults) ==", c.Lines(), len(faults)),
		curve: "§4.4 — ATPG speedup by mode", axis: 16,
		procs: at(s, []int{1, 2, 4, 8, 12, 16}, quickProcs), label: []string{"mode"}, extra: []string{"detected", "patterns"}, minSpeedup: 1,
		prose: `Paper: the basic program achieves speedups close to linear; the
fault-simulation version is about 3x faster in absolute speed but
obtains inferior speedups (communication overhead, load imbalance).`,
	}
	for _, mode := range []atpg.Mode{atpg.Static, atpg.StaticFaultSim, atpg.DynamicFaultSim} {
		sw.series = append(sw.series, series{mode.String(), func(cfg orca.Config) ([]any, orca.Report) {
			r := atpg.RunOrca(cfg, c, faults, atpg.Params{Mode: mode})
			return []any{r.Detected, r.Patterns}, r.Report
		}})
	}
	return sw.spec()
}
