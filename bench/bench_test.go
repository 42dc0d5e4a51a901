package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const (
	smokeScale = 0.02
	smokeSeed  = 2 // not the seed the sizes were chosen on
)

// TestBenchmarkJSON holds BENCHMARK.json to the tables in spec.go and
// to the limits of the contract it is checked against.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with run.sh -spec")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	contract := 0
	for _, d := range endToEnd {
		if !d.Contract {
			continue
		}
		contract++
		check(d.Name, d.Unit)
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	if contract < 1 || contract > 16 || !seen["setup_s"] {
		t.Errorf("%d end-to-end metrics, want 1 to 16 with setup_s among them", contract)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
}

// lastLine parses the JSON line a driver run prints last.
func lastLine(t *testing.T, out *bytes.Buffer) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

func sameNames(t *testing.T, what string, got map[string]lineMetric, want []string) {
	t.Helper()
	var have []string
	for name := range got {
		have = append(have, name)
	}
	sort.Strings(have)
	sort.Strings(want)
	if strings.Join(have, " ") != strings.Join(want, " ") {
		t.Errorf("%s: emitted metrics\n  %v\nwant\n  %v", what, have, want)
	}
}

// TestDriverRun runs every workload the way BENCHMARK.json's command
// does, on a seed the sizes were not chosen on: the oracles must pass
// and the metrics printed must be exactly the ones declared.
func TestDriverRun(t *testing.T) {
	var e2eNames, layerNames []string
	for _, d := range endToEnd {
		if d.Contract {
			e2eNames = append(e2eNames, d.Name)
		}
	}
	for _, d := range perLayer {
		layerNames = append(layerNames, d.Name)
	}
	for i := range workloads {
		w := &workloads[i]
		var out bytes.Buffer
		if err := driverRun(&out, w, smokeSeed, 0.05, smokeScale, false, t.TempDir()); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		line := lastLine(t, &out)
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("%s: correct %v, %d attempted, %d failed", w.name, line.Correct, line.Attempted, line.Failed)
		}
		sameNames(t, w.name, line.Metrics, e2eNames)
		for name, m := range line.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
			}
		}
	}
	// One traced run: a rate ladder, every rung and a profiled repetition.
	var out bytes.Buffer
	dir := t.TempDir()
	if err := driverRun(&out, findWorkload("kv_primary"), smokeSeed, 0.05, smokeScale, true, dir); err != nil {
		t.Fatal(err)
	}
	line := lastLine(t, &out)
	sameNames(t, "kv_primary traced", line.Metrics, layerNames)
	var shares float64
	for _, b := range profileBuckets {
		shares += line.Metrics[b].Value
	}
	if shares < 0.98 || shares > 1.02 {
		t.Errorf("profile shares sum to %v, want 1", shares)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
		t.Error(err)
	}
}

// TestFullRun runs the whole command small, then checks the results
// file: every end-to-end metric appears on the workloads it applies
// to, the budget rows add up exactly, and a file agrees with itself
// under -compare -aa.
func TestFullRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	var out bytes.Buffer
	if err := fullRun(&out, smokeSeed, 2, smokeScale, path, filepath.Join(dir, "history.jsonl"), dir); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	where := map[string][]string{}
	for _, wr := range res.Workloads {
		for name := range wr.EndToEnd {
			where[name] = append(where[name], wr.Name)
		}
	}
	all := "kv_read kv_write kv_primary tsp_p64_s8 kv_seqcrash"
	hostTimed := "kv_read kv_write kv_primary tsp_p64_s8"
	want := map[string]string{
		"setup_s": hostTimed, "wall_s": hostTimed, "ops_per_wall_s": hostTimed,
		"allocs_per_op": hostTimed, "alloc_bytes_per_op": hostTimed,
		"virtual_elapsed_s": all, "virtual_ops_per_s": all, "mean_virtual_us": all,
		"p50_virtual_us": all, "p99_virtual_us": all, "failed_ops_frac": all,
		"knee_virtual_ops_per_s": "kv_read kv_write kv_primary", "recovery_virtual_ms": "kv_seqcrash",
	}
	if len(want) != len(endToEnd) {
		t.Errorf("test covers %d end-to-end metrics, spec.go declares %d", len(want), len(endToEnd))
	}
	for name, on := range want {
		if got := strings.Join(where[name], " "); got != on {
			t.Errorf("%s reported on %q, want %q", name, got, on)
		}
	}
	if len(res.LayerLadder) != len(rungs) {
		t.Errorf("%d rungs ran, want %d", len(res.LayerLadder), len(rungs))
	}
	for _, row := range res.Budget {
		var v, w int64
		for _, l := range budgetLayers {
			v += row.VirtualPS[l]
			w += row.WallPS[l]
		}
		if v != row.TotalVPS || w != row.TotalWPS {
			t.Errorf("budget row %q sums to %d/%d ps, top rung %s is %d/%d ps", row.Op, v, w, row.TopRung, row.TotalVPS, row.TotalWPS)
		}
	}
	// Two repetitions this short may spread wider than a host bound;
	// anything else is a disagreement of the file with itself.
	if err := compareFiles(&out, path, path, true); err != nil {
		for _, finding := range strings.Split(err.Error(), "\n")[1:] {
			if !strings.HasSuffix(finding, " unresolved") {
				t.Errorf("a results file disagrees with itself: %s", finding)
			}
		}
	}
}

func findDef(t *testing.T, name string) metricDef {
	t.Helper()
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no end-to-end metric %s", name)
	return metricDef{}
}

// TestCompareVerdicts pins the four verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	file := func(wall, q1, q3, p99 float64) string {
		host, virt := findDef(t, "wall_s"), findDef(t, "p99_virtual_us")
		res := results{Workloads: []workloadResult{{Name: "kv_read", EndToEnd: map[string]metricValue{
			"wall_s":         {stat{wall, q1, q3, 5}, host.Unit, host.Better, host.Bound, false},
			"p99_virtual_us": {exact(p99, 5), virt.Unit, virt.Better, virt.Bound, true},
		}}}}
		data, err := json.Marshal(&res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file(1.00, 0.99, 1.01, 1000)
	for _, tc := range []struct {
		name      string
		other     string
		wall, p99 string
		fails     bool
	}{
		{"same", file(1.02, 1.01, 1.03, 1000), "same", "same", false},
		{"better", file(0.70, 0.69, 0.71, 900), "better", "better", false},
		{"worse", file(1.40, 1.39, 1.41, 1300), "worse", "worse", true},
		{"unresolved", file(1.40, 1.00, 1.80, 1010), "unresolved", "same", false},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, base, tc.other, false)
		if (err != nil) != tc.fails {
			t.Errorf("%s: error %v, want failure %v", tc.name, err, tc.fails)
		}
		rows := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
		for i, want := range []string{tc.wall, tc.p99} {
			if !strings.HasSuffix(rows[i], " "+want) {
				t.Errorf("%s: row %q, want verdict %s", tc.name, rows[i], want)
			}
		}
	}
}
