package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/apps/tsp"
	"repro/internal/orca"
	"repro/internal/sim"
)

// Experiment is one named table or figure of the evaluation.
type Experiment struct {
	Name string
	Run  func(w io.Writer, scale Scale)
}

// Experiments lists every experiment in the order RunAll prints them.
var Experiments = []Experiment{
	{"pbbb", PBBBExperiment},
	{"micro", MicroExperiment},
	{"rtscmp", RTSCompareExperiment},
	{"dynrepl", DynReplExperiment},
	{"fig2", func(w io.Writer, s Scale) { Fig2TSP(w, s) }},
	{"fig3", func(w io.Writer, s Scale) { Fig3ACP(w, s) }},
	{"chess", func(w io.Writer, s Scale) { ChessExperiment(w, s) }},
	{"atpg", func(w io.Writer, s Scale) { ATPGExperiment(w, s) }},
	{"partrepl", PartReplExperiment},
	{"intrcost", InterruptCostExperiment},
	{"mixed", MixedPlacementExperiment},
	{"faults", FaultsExperiment},
	{"scale", ScaleExperiment},
	{"kv", KVExperiment},
	{"consensus", ProtocolBakeoff},
	{"shard", ShardExperiment},
	{"adapt", AdaptExperiment},
}

// RunAll prints every experiment, a blank line after each. Its output
// at Quick is committed as testdata/quick.golden.
func RunAll(w io.Writer, scale Scale) {
	for _, e := range Experiments {
		e.Run(w, scale)
		fmt.Fprintln(w)
	}
}

// twice runs a scenario two times and panics unless both runs return
// the same fingerprint: a run is a pure function of its seed, faults
// included, so a mismatch is a bug (map iteration, host-time leakage).
func twice[T any](name string, run func() (T, string)) T {
	a, fa := run()
	_, fb := run()
	if fa != fb {
		panic(fmt.Sprintf("harness: %s not deterministic:\n  %s\n  %s", name, fa, fb))
	}
	return a
}

// mustFinish panics if a run hit the runtime's deadlock timeout.
func mustFinish(name string, rep orca.Report) {
	if rep.TimedOut {
		panic(fmt.Sprintf("harness: %s timed out (blocked: %v)", name, rep.Blocked))
	}
}

// tspFingerprint is the double-run fingerprint of a TSP run.
func tspFingerprint(r tsp.Result) string {
	return fmt.Sprintf("best=%d elapsed=%d msgs=%d", r.Best, int64(r.Report.Elapsed), r.Report.Net.Messages)
}

// SpeedupPoint is one measurement in a processor sweep.
type SpeedupPoint struct {
	Procs    int
	Elapsed  sim.Time
	Speedup  float64
	Messages int64
	Extra    map[string]any
}

// Series is a named speedup curve.
type Series struct {
	Name   string
	Points []SpeedupPoint
}

// RenderCurve draws an ASCII speedup-vs-processors plot in the style
// of the paper's Figures 2 and 3, including the dotted perfect-speedup
// diagonal.
func RenderCurve(w io.Writer, title string, series []Series, maxProcs int) {
	fmt.Fprintf(w, "%s\n", title)
	height := maxProcs
	if height > 16 {
		height = 16
	}
	marks := []byte{'*', 'o', '+', 'x'}
	grid := make([][]byte, height+1)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", maxProcs*3+2))
	}
	plot := func(p int, s float64, mark byte) {
		row := int(s*float64(height)/float64(maxProcs) + 0.5)
		if row < 0 {
			row = 0
		}
		if row > height {
			row = height
		}
		col := p * 3
		if col < len(grid[0]) {
			grid[row][col] = mark
		}
	}
	for p := 1; p <= maxProcs; p++ {
		plot(p, float64(p), '.')
	}
	for si, s := range series {
		for _, pt := range s.Points {
			plot(pt.Procs, pt.Speedup, marks[si%len(marks)])
		}
	}
	for row := height; row >= 0; row-- {
		label := "  "
		v := row * maxProcs / height
		if row%2 == 0 {
			label = fmt.Sprintf("%2d", v)
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(grid[row]))
	}
	fmt.Fprintf(w, "   +%s\n    ", strings.Repeat("-", maxProcs*3+2))
	for p := 1; p <= maxProcs; p++ {
		fmt.Fprintf(w, "%3d", p)
	}
	fmt.Fprintln(w)
	for si, s := range series {
		fmt.Fprintf(w, "    %c = %s\n", marks[si%len(marks)], s.Name)
	}
	fmt.Fprintln(w, "    . = perfect speedup")
}

// Table prints a simple aligned table.
func Table(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(headers)
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range rows {
		line(r)
	}
}

// fmtTime renders a virtual time compactly for tables.
func fmtTime(t sim.Time) string { return t.String() }
