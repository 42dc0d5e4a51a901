// Command orca-ab runs the benchmark on two commits in alternating
// pairs and says, metric by metric, whether the second commit wins.
//
//	go run ./cmd/orca-ab -repo CLONE -base C1 -head C2 -workload tsp_p64_s8 [-seed 1] [-seconds 20] [-pairs 10]
//
// CLONE is a git clone made for the measurement (git clone . CLONE), not
// a checkout being worked in: the command adds two worktrees to it and
// removes them with --force when it is done. It checks both commits out
// with git worktree under a temporary directory and runs
// bash bench/run.sh --workload W --seed S --seconds T --trace 0 from each
// checkout, the base first in even pairs and the head first in odd ones.
// Each run's last line is the benchmark's JSON result. For every
// end-to-end metric that BENCHMARK.json declares it prints both sides'
// medians and quartiles, the change of the medians, the pairs the head
// won and lost, and a verdict: "gain" when the head won at least nine
// tenths of the pairs (ties count for neither side) and the medians
// differ by more than the base's interquartile distance, "loss" by the
// same rule the other way, and otherwise nothing. A change beyond the
// metric's bound in the worse direction is flagged.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		repo     = flag.String("repo", "", "a git clone holding both commits, not a working checkout (required)")
		base     = flag.String("base", "HEAD^", "the parent commit")
		head     = flag.String("head", "HEAD", "the commit measured against it")
		workload = flag.String("workload", "", "the benchmark workload")
		seed     = flag.Int64("seed", 1, "the benchmark's seed")
		seconds  = flag.Float64("seconds", 20, "how long each run measures")
		pairs    = flag.Int("pairs", 10, "how many pairs of runs")
	)
	flag.Parse()
	if *repo == "" || *workload == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: orca-ab -repo CLONE -workload W [-base C] [-head C] [-seed S] [-seconds T] [-pairs N]")
		fmt.Fprintln(os.Stderr, "CLONE is a git clone made for the run: orca-ab adds two worktrees to it and force-removes them")
		os.Exit(2)
	}
	args := []string{"bench/run.sh", "--workload", *workload, "--seed", strconv.FormatInt(*seed, 10),
		"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0"}
	if err := run(os.Stdout, *repo, *base, *head, args, *pairs); err != nil {
		fmt.Fprintln(os.Stderr, "orca-ab:", err)
		os.Exit(1)
	}
}

// metricDef is an end-to-end metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run checks out base and head, runs the benchmark command args from
// each in pairs alternating which runs first, and prints the table.
func run(w io.Writer, repo, base, head string, args []string, pairs int) (err error) {
	tmp, err := os.MkdirTemp("", "orca-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sides := [2]string{"base", "head"}
	var dirs [2]string
	for i, commit := range []string{base, head} {
		dir := filepath.Join(tmp, sides[i])
		if out, err := exec.Command("git", "-C", repo, "worktree", "add", "--detach", dir, commit).CombinedOutput(); err != nil {
			return fmt.Errorf("git worktree add %s: %v: %s", commit, err, out)
		}
		defer func() {
			if out, rmErr := exec.Command("git", "-C", repo, "worktree", "remove", "--force", dir).CombinedOutput(); rmErr != nil && err == nil {
				err = fmt.Errorf("git worktree remove %s: %v: %s", dir, rmErr, out)
			}
		}()
		dirs[i] = dir
	}
	spec, err := os.ReadFile(filepath.Join(dirs[1], "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(spec, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	fmt.Fprintf(w, "base %s, head %s: %d pairs of bash %s\n", base, head, pairs, strings.Join(args, " "))
	var samples [2]map[string][]float64
	for i := range samples {
		samples[i] = map[string][]float64{}
	}
	for p := 0; p < pairs; p++ {
		for k := 0; k < 2; k++ {
			side := (p + k) % 2 // the base first in even pairs
			t0 := time.Now()
			ms, err := runOnce(dirs[side], args)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %v", p+1, sides[side], err)
			}
			for name, v := range ms {
				samples[side][name] = append(samples[side][name], v)
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d: %s done in %.0f s\n", p+1, pairs, sides[side], time.Since(t0).Seconds())
		}
	}
	fmt.Fprintf(w, "%-20s %-40s %-40s %9s %4s %4s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "won", "lost", "verdict")
	for _, m := range bench.EndToEnd {
		b, h := samples[0][m.Name], samples[1][m.Name]
		if len(b) != pairs || len(h) != pairs {
			continue // a metric this workload does not report
		}
		c := compare(b, h, m.Better == "lower")
		note := c.verdict()
		if c.worseBy() > m.Bound {
			note = strings.TrimSpace(note + " beyond bound")
		}
		fmt.Fprintf(w, "%-20s %-40s %-40s %+8.2f%% %4d %4d  %s\n", m.Name, c.base, c.head, 100*c.change(), c.wins, c.losses, note)
	}
	return nil
}

// runOnce runs the benchmark command in dir and returns the metric
// values of the JSON line it prints last.
func runOnce(dir string, args []string) (map[string]float64, error) {
	cmd := exec.Command("bash", args...)
	cmd.Dir = dir
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("the last line is not a result: %v", err)
	}
	if !res.Correct {
		return nil, errors.New("the run reports an incorrect result")
	}
	ms := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		ms[name] = m.Value
	}
	return ms, nil
}
