package repro

// Size checks. TestCodeLines is the committed line counter the north
// star's "least code" is measured by (go test -run TestCodeLines -v .);
// TestConfigSurface pins every settable field of the configuration
// records, so a new knob is a visible line in review.

import (
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/rts"
)

// codeLines counts the lines of a Go source that hold a token: blank
// lines and lines holding only comments do not count.
func codeLines(src []byte) int {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, 0)
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted at a line end: the line already counts
		}
		first := file.Line(pos)
		for l := first; l <= first+strings.Count(lit, "\n"); l++ {
			lines[l] = true // a raw string spans its lines
		}
	}
	return len(lines)
}

func TestCodeLines(t *testing.T) {
	perPkg := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "bench") {
				return filepath.SkipDir // bench/ is a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		perPkg[filepath.ToSlash(filepath.Dir(path))] += codeLines(src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]string, 0, len(perPkg))
	for p := range perPkg {
		pkgs = append(pkgs, p)
	}
	slices.Sort(pkgs)
	var core, all int
	for _, p := range pkgs {
		n := perPkg[p]
		t.Logf("%6d %s", n, p)
		all += n
		if strings.HasPrefix(p, "internal/") || strings.HasPrefix(p, "cmd/") {
			core += n
		}
	}
	t.Logf("%6d internal/ + cmd/", core)
	t.Logf("%6d all", all)
	if core == 0 {
		t.Fatal("no code lines under internal/ or cmd/")
	}
}

// TestConfigSurface pins the exported fields of every configuration
// record. A field earns its place when two non-test callers set it to
// different values (DESIGN.md, "Configuration surface").
func TestConfigSurface(t *testing.T) {
	want := []struct {
		v      any
		fields string
	}{
		{orca.Config{}, "Processors RTS Mixed Seed Net KernelCosts GroupMethod Protocol Batching Sequencer Shards ShardSpan Faults MaxTime"},
		{orca.Batching{}, "MaxOps MaxBytes Linger"},
		{group.Config{}, "Members Sequencer Method Protocol ProposeTimeout Batch SenderTimeout SenderRetries GapTimeout StatusEvery ElectionWait Heartbeat Port"},
		{group.BatchConfig{}, "MaxOps MaxBytes Linger"},
		{rts.P2PConfig{}, "Protocol Placement"},
		{rts.AdaptConfig{}, "SampleEvery MinDwell WriteHeavyFrac ReadHeavyFrac DominantFrac Alpha"},
		{rts.Costs{}, "ReadLocal WriteApply GuardCheck Create DefaultOp"},
		{rts.ObjectType{}, "Name New Clone SizeOf Ops"},
		{rts.Worker{}, "P M"},
		{amoeba.Costs{}, "Interrupt Protocol Send Switch Quantum"},
		{netsim.Params{}, "BandwidthBps PropDelay FrameOverhead MTU DropProb BroadcastCapable"},
	}
	for _, w := range want {
		typ := reflect.TypeOf(w.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		t.Logf("%-18s %2d fields", typ.String(), len(got))
		if strings.Join(got, " ") != w.fields {
			t.Errorf("%s fields are\n\t%s\nwant\n\t%s", typ, strings.Join(got, " "), w.fields)
		}
	}
}
