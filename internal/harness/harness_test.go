package harness

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/rts"
)

// TestQuickGolden runs every experiment at Quick scale, in RunAll's
// order, and compares the output byte for byte with the committed run.
// Every figure the harness prints is virtual time or a count, so the
// output is a pure function of the code. After a change that is meant
// to move a figure, regenerate from the repository root and review the
// diff:
//
//	go run ./cmd/orca-bench -exp all -quick > internal/harness/testdata/quick.golden
func TestQuickGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RunAll(&buf, Quick)
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

// The golden pins what the experiments print; these pin what they
// return.

func TestFig2Quick(t *testing.T) {
	s := Fig2TSP(io.Discard, Quick)
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].Speedup != 1.0 {
		t.Fatalf("base speedup = %f", s.Points[0].Speedup)
	}
	last := s.Points[len(s.Points)-1]
	if last.Speedup < 1.5 {
		t.Fatalf("TSP quick speedup at P=%d is %f", last.Procs, last.Speedup)
	}
}

func TestFig3Quick(t *testing.T) {
	if s := Fig3ACP(io.Discard, Quick); len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
}

func TestChessQuick(t *testing.T) {
	if series := ChessExperiment(io.Discard, Quick); len(series) != 2 {
		t.Fatalf("series = %d, want shared+local", len(series))
	}
}

func TestATPGQuick(t *testing.T) {
	if series := ATPGExperiment(io.Discard, Quick); len(series) != 3 {
		t.Fatalf("series = %d, want 3 modes", len(series))
	}
}

func TestP2PWorkloadBothProtocols(t *testing.T) {
	for _, proto := range []rts.P2PProtocol{rts.Update, rts.Invalidation} {
		elapsed, msgs, _ := P2PWorkload(proto, rts.DynamicPlacement, 3, 4, 1, 2)
		if elapsed <= 0 {
			t.Fatalf("%v: no elapsed time", proto)
		}
		if msgs == 0 {
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
