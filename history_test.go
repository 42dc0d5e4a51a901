package repro

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchHistory checks the performance trajectory, one line per
// measured commit appended by `bash bench/run.sh -history
// BENCH_history.jsonl`: every line parses, names a commit this
// repository knows, and carries every workload BENCHMARK.json declares.
// Wall-clock figures compare only within one session on one host, so
// lines measured together share a date (its YYYY-MM-DD prefix), and two
// consecutive lines that share it must name a commit and a descendant
// of it, in that order: a parent measured beside its change. The commit
// checks need the history, so they are skipped outside a git checkout
// and in a shallow clone.
func TestBenchHistory(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil || len(spec.Workloads) == 0 {
		t.Fatalf("BENCHMARK.json: %v, %d workloads", err, len(spec.Workloads))
	}
	f, err := os.Open("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shallow, err := exec.Command("git", "rev-parse", "--is-shallow-repository").Output()
	checkCommits := err == nil && strings.TrimSpace(string(shallow)) == "false"
	if !checkCommits {
		t.Log("not a full git checkout: commits are not checked")
	}
	lines, prevCommit, prevDay := 0, "", ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var line struct {
			Commit  string                        `json:"commit"`
			Date    string                        `json:"date"`
			Metrics map[string]map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if line.Commit == "" {
			t.Errorf("line %d names no commit", lines)
		} else if checkCommits {
			if err := exec.Command("git", "cat-file", "-e", line.Commit+"^{commit}").Run(); err != nil {
				t.Errorf("line %d: commit %s is not in this repository", lines, line.Commit)
			}
			day := line.Date[:min(len(line.Date), len("2006-01-02"))]
			if day == prevDay && exec.Command("git", "merge-base", "--is-ancestor", prevCommit, line.Commit).Run() != nil {
				t.Errorf("line %d: %s shares the date %s with %s on the line before, which is not its ancestor", lines, line.Commit, day, prevCommit)
			}
			prevCommit, prevDay = line.Commit, day
		}
		for _, w := range spec.Workloads {
			if len(line.Metrics[w.Name]) == 0 {
				t.Errorf("line %d (%s) carries no metrics for workload %s", lines, line.Commit, w.Name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("BENCH_history.jsonl is empty")
	}
}
