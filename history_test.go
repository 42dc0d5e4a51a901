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
// The commit check needs the history, so it is skipped outside a git
// checkout and in a shallow clone.
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
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var line struct {
			Commit  string                        `json:"commit"`
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
