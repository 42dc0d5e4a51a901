package harness

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/orca"
)

// Spec is one experiment at one scale: a title and the tables under
// it. Everything an experiment measures, prints and asserts is in this
// value; the driver below is the only code that runs, double-runs,
// checks or renders.
type Spec struct {
	Title  string // the "== ... ==" line, plus any introduction
	Tables []Block
}

// Block is a Tab of any result type.
type Block interface {
	run(w io.Writer) ([]verdict, error)
}

// Tab is one table of an experiment. Each row is a configuration and
// a workload returning a result of type R; the columns, checks and the
// summary line read results, never the simulator.
type Tab[R any] struct {
	Name    string   // names the table in errors and subtests
	Heading string   // printed above the table, if any
	Cols    []string // headers: of the rows' keys, then of their cells; none = no table is drawn
	Rows    []Row[R] // run top to bottom
	// Cells returns a row's value cells, in column order after its
	// keys; the driver renders each with fmt.Sprint.
	Cells   func(r Ran[R]) []any
	Checks  []Check[R]
	Curve   *Curve[R]                  // a speedup plot under the table
	Summary func(rows []Ran[R]) string // computed closing line(s); "" prints nothing
	Prose   string                     // fixed closing text
}

// Row is one line of a table: what to run and on which configuration.
type Row[R any] struct {
	Key []string    // leading cells; joined, they name the row in errors
	Cfg orca.Config // zero for rows that drive the kernel or group layer directly
	// Run executes the row once. done holds the rows above it, for
	// rows measured against a baseline (a speedup, a crash instant at
	// half the healthy run). The report is that of the run the row is
	// about; the driver reads its TimedOut and folds it into the
	// determinism fingerprint.
	Run func(cfg orca.Config, done []Ran[R]) (R, orca.Report)
}

// Ran is a row after it ran.
type Ran[R any] struct {
	Key    []string
	Cfg    orca.Config
	Res    R
	Report orca.Report
	line   []string // the rendered row
}

func (r Ran[R]) String() string { return strings.Join(r.Key, " ") }

// Check is one named assertion over a table's rows. Its error names
// the offending row and the figures compared.
type Check[R any] struct {
	Name string
	Fn   func(rows []Ran[R]) error
}

// Curve plots speedup against Cfg.Processors, one mark per series.
type Curve[R any] struct {
	Title    string
	MaxProcs int
	Point    func(r Ran[R]) (series string, speedup float64)
}

// verdict is the outcome of one check.
type verdict struct {
	Table, Check string
	Err          error
}

// drive runs and renders a spec. Every check is evaluated, failed or
// not, so the tables always print in full; the error is for a run the
// driver could not use at all (timed out, or not deterministic).
func drive(w io.Writer, s Spec) (verdicts []verdict, err error) {
	fmt.Fprintln(w, s.Title)
	for _, b := range s.Tables {
		vs, err := b.run(w)
		if verdicts = append(verdicts, vs...); err != nil {
			return verdicts, err
		}
	}
	return verdicts, nil
}

func (t Tab[R]) run(w io.Writer) ([]verdict, error) {
	var ran []Ran[R]
	var lines [][]string
	for _, row := range t.Rows {
		// A run is a pure function of its configuration, faults
		// included, so two runs that differ are a bug (map iteration,
		// host-time leakage).
		r, err := twice(func() (Ran[R], string, error) {
			res, rep := row.Run(row.Cfg, ran)
			r := Ran[R]{Key: row.Key, Cfg: row.Cfg, Res: res, Report: rep}
			if err := mustFinish(rep); err != nil {
				return r, "", err
			}
			r.line = append(r.line, row.Key...)
			if t.Cells != nil {
				for _, c := range t.Cells(r) {
					r.line = append(r.line, fmt.Sprint(c))
				}
			}
			return r, fmt.Sprintf("%q elapsed=%d net=%+v rts=%+v", r.line, int64(rep.Elapsed), rep.Net, rep.RTS), nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: row %q: %w", t.Name, r, err)
		}
		ran, lines = append(ran, r), append(lines, r.line)
	}

	if t.Heading != "" {
		fmt.Fprintln(w, t.Heading)
	}
	if len(t.Cols) > 0 {
		Table(w, t.Cols, lines)
	}
	if c := t.Curve; c != nil {
		// A plot follows the blank line that otherwise closes a table,
		// and the text goes under it.
		var series []Series
		for _, r := range ran {
			name, speedup := c.Point(r)
			if len(series) == 0 || series[len(series)-1].Name != name {
				series = append(series, Series{Name: name})
			}
			s := &series[len(series)-1]
			s.Points = append(s.Points, SpeedupPoint{Procs: r.Cfg.Processors, Speedup: speedup})
		}
		fmt.Fprintln(w)
		RenderCurve(w, c.Title, series, c.MaxProcs)
	}
	if t.Summary != nil {
		if s := t.Summary(ran); s != "" {
			fmt.Fprintln(w, s)
		}
	}
	if t.Prose != "" {
		fmt.Fprintln(w, t.Prose)
	}
	if t.Curve == nil && len(t.Cols) > 0 {
		fmt.Fprintln(w)
	}

	var verdicts []verdict
	for _, c := range t.Checks {
		verdicts = append(verdicts, verdict{t.Name, c.Name, c.Fn(ran)})
	}
	return verdicts, nil
}

// twice runs a scenario two times, the second on its own goroutine so
// that the twin takes a second core where GOMAXPROCS gives one, and
// fails unless both runs return the same fingerprint.
func twice[T any](run func() (T, string, error)) (T, error) {
	var fb string
	var errb error
	done := make(chan struct{})
	go func() { _, fb, errb = run(); close(done) }()
	a, fa, err := run()
	<-done
	if err == nil {
		err = errb
	}
	if err == nil && fa != fb {
		err = fmt.Errorf("not deterministic:\n  %s\n  %s", fa, fb)
	}
	return a, err
}

// mustFinish fails if a run hit the runtime's deadlock timeout.
func mustFinish(rep orca.Report) error {
	if rep.TimedOut {
		return fmt.Errorf("timed out (blocked: %v)", rep.Blocked)
	}
	return nil
}

// must unwraps the result of parsing one of the harness's own
// constants (a FEN string); failing is a typo in this package.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Experiment is one named table or figure of the evaluation.
type Experiment struct {
	Name string
	Spec func(Scale) Spec
}

// Run executes the experiment, prints it, and returns an error naming
// experiment, table, check and row for every check that failed.
func (e Experiment) Run(w io.Writer, scale Scale) error {
	verdicts, err := drive(w, e.Spec(scale))
	var errs []error
	if err != nil {
		errs = append(errs, fmt.Errorf("%s: %w", e.Name, err))
	}
	for _, v := range verdicts {
		if v.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %s: %s: %w", e.Name, v.Table, v.Check, v.Err))
		}
	}
	return errors.Join(errs...)
}

// RunAll prints every experiment, a blank line after each, and returns
// their errors joined. Its output at Quick is committed as
// testdata/quick.golden.
func RunAll(w io.Writer, scale Scale) error {
	var errs []error
	for _, e := range Experiments {
		errs = append(errs, e.Run(w, scale))
		fmt.Fprintln(w)
	}
	return errors.Join(errs...)
}

// SpeedupPoint is one measurement in a processor sweep.
type SpeedupPoint struct {
	Procs   int
	Speedup float64
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
	height := min(maxProcs, 16)
	marks := []byte{'*', 'o', '+', 'x'}
	grid := make([][]byte, height+1)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", maxProcs*3+2))
	}
	plot := func(p int, s float64, mark byte) {
		row := min(max(int(s*float64(height)/float64(maxProcs)+0.5), 0), height)
		if col := p * 3; col < len(grid[0]) {
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
		for i, c := range r[:min(len(r), len(widths))] {
			widths[i] = max(widths[i], len(c))
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
