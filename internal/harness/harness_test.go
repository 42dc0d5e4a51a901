package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/orca"
	"repro/internal/rts"
)

// TestQuickGolden runs every experiment at Quick scale, in RunAll's
// order — each a subtest, each of its checks a subtest of that — and
// compares the output byte for byte with the committed run. Every
// figure the harness prints is virtual time or a count, so the output
// is a pure function of the code. After a change that is meant to move
// a figure, regenerate from the repository root and review the diff:
//
//	go run ./cmd/orca-bench -exp all -quick > internal/harness/testdata/quick.golden
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			verdicts, err := drive(&buf, e.Spec(Quick))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&buf)
			for _, v := range verdicts {
				t.Run(v.Table+"/"+v.Check, func(t *testing.T) {
					if v.Err != nil {
						t.Fatal(v.Err)
					}
				})
			}
		})
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("quick run differs from testdata/quick.golden at line %d:\n got  %q\n want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("quick run has %d lines, testdata/quick.golden %d", len(gl), len(wl))
}

// failing is an experiment that fails a check at Full and has a row
// that is not a function of its configuration at Quick.
func failing(calls *int) Experiment {
	row := func(name string, run func() (int, orca.Report)) Row[int] {
		return Row[int]{Key: keys(name), Run: func(orca.Config, []Ran[int]) (int, orca.Report) { return run() }}
	}
	spec := func(rows ...Row[int]) Spec {
		return Spec{Title: "== FAILING ==", Tables: []Block{Tab[int]{
			Name: "t", Cols: []string{"row", "value"}, Rows: rows,
			Cells: func(r Ran[int]) []any { return []any{r.Res} },
			Checks: []Check[int]{
				{"holds", func([]Ran[int]) error { return nil }},
				each("value below 5", func(r Ran[int]) error {
					if r.Res >= 5 {
						return fmt.Errorf("value %d, want < 5", r.Res)
					}
					return nil
				}),
			}}}}
	}
	return Experiment{"failing", func(s Scale) Spec {
		switch s {
		case Full:
			return spec(row("steady", func() (int, orca.Report) { return 7, orca.Report{} }))
		default:
			return spec(
				row("steady", func() (int, orca.Report) { return 1, orca.Report{} }),
				row("drifting", func() (int, orca.Report) { *calls++; return *calls, orca.Report{} }))
		}
	}}
}

func TestDriverReportsFailuresAsErrors(t *testing.T) {
	var calls int
	e := failing(&calls)

	// A failed check: the table still prints in full, and the error
	// names experiment, table, check, row and both numbers.
	var buf bytes.Buffer
	err := e.Run(&buf, Full)
	if want := "failing: t: value below 5: row \"steady\": value 7, want < 5"; err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant %s", err, want)
	}
	if want := "== FAILING ==\n  row     value\n  ------  -----\n  steady  7    \n\n"; buf.String() != want {
		t.Fatalf("rendered %q, want %q", buf.String(), want)
	}

	// A run that differs between its two executions stops the
	// experiment at that row.
	err = e.Run(io.Discard, Quick)
	if err == nil || !strings.HasPrefix(err.Error(), "failing: t: row \"drifting\": not deterministic:") {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("drifting row ran %d times, want 2", calls)
	}
}

func TestDriverReportsTimeout(t *testing.T) {
	timedOut := Tab[int]{Name: "t", Rows: []Row[int]{{Key: keys("stuck"),
		Run: func(orca.Config, []Ran[int]) (int, orca.Report) {
			return 0, orca.Report{TimedOut: true, Blocked: []string{"w3"}}
		}}}}
	_, err := drive(io.Discard, Spec{Title: "x", Tables: []Block{timedOut}})
	if want := `t: row "stuck": timed out (blocked: [w3])`; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}

func TestRunAllJoinsErrors(t *testing.T) {
	saved := Experiments
	defer func() { Experiments = saved }()
	var calls int
	Experiments = []Experiment{failing(&calls), failing(&calls)}
	err := RunAll(io.Discard, Full)
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
		t.Fatalf("err = %v, want both experiments' failures", err)
	}
}

func TestP2PWorkloadBothProtocols(t *testing.T) {
	for _, proto := range []rts.P2PProtocol{rts.Update, rts.Invalidation} {
		r := P2PWorkload(proto, rts.DynamicPlacement, 3, 4, 1, 2)
		if r.Elapsed <= 0 {
			t.Fatalf("%v: no elapsed time", proto)
		}
		if r.Msgs == 0 {
			t.Fatalf("%v: no messages", proto)
		}
	}
}

func TestRenderCurveAndTable(t *testing.T) {
	var buf bytes.Buffer
	RenderCurve(&buf, "test", []Series{{
		Name:   "s",
		Points: []SpeedupPoint{{Procs: 1, Speedup: 1}, {Procs: 4, Speedup: 3.5}},
	}}, 4)
	out := buf.String()
	if !strings.Contains(out, "perfect speedup") || !strings.Contains(out, "* = s") {
		t.Fatalf("curve rendering broken:\n%s", out)
	}
	buf.Reset()
	Table(&buf, []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(buf.String(), "333") {
		t.Fatal("table rendering broken")
	}
}
