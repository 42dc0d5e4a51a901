// Command bench is the repository's benchmark: five named workloads
// through the whole stack, measured on two clocks (simulated time and
// counts, which repeat exactly, and the simulator's own host time and
// allocations, which are medians of repetitions), a rate ladder per
// serving workload, a ladder of isolated layer rungs and a profiled
// repetition. See README.md in this directory.
//
// Three ways to run it, all through run.sh:
//
//	run.sh                                   the full run: every workload, every table
//	run.sh -compare a.json b.json            judge two results files against the bounds
//	run.sh --workload W --seed N --seconds S --trace 0|1
//	                                         one workload for S seconds, one JSON line last
//	                                         (the contract BENCHMARK.json declares)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/rts"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print one JSON result line last")
		seed     = flag.Int64("seed", 1, "feeds orca.Config.Seed, workload.Config.Seed and the TSP relabelling")
		seconds  = flag.Float64("seconds", runSeconds, "with -workload: how long to measure")
		trace    = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics instead of the end-to-end ones")
		reps     = flag.Int("reps", 5, "full run: timed repetitions per workload")
		scale    = flag.Float64("scale", 1, "shrink every workload and rung (smoke tests); results are not comparable across scales")
		out      = flag.String("out", "", "full run: write the results as JSON to this file")
		history  = flag.String("history", "", "full run: append one line of end-to-end medians to this file")
		outdir   = flag.String("outdir", defaultOutDir(), "directory for trace.json")
		compare  = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		aa       = flag.Bool("aa", false, "with -compare: the files are two runs of one commit, so every virtual figure must agree exactly")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json")
	)
	flag.Parse()
	// The engine runs one goroutine at a time; a second P only adds
	// cross-thread wake-ups, that is, it measures the Go scheduler.
	runtime.GOMAXPROCS(1)
	var err error
	switch {
	case *spec:
		var data []byte
		if data, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(data)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare a.json b.json")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *aa)
	case *workload != "":
		w := findWorkload(*workload)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *workload)
			break
		}
		err = driverRun(os.Stdout, w, *seed, *seconds, *scale, *trace != 0, *outdir)
	default:
		err = fullRun(os.Stdout, *seed, *reps, *scale, *out, *history, *outdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOutDir is bench/out seen from the repository root, or out
// seen from this directory.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// sample is one timed repetition.
type sample struct {
	wallS          float64
	mallocs, bytes uint64
	out            repOut
}

// runner repeats one workload and holds what the repetitions showed.
type runner struct {
	w       *workloadDef
	p       prepared
	setups  []float64 // seconds per set-up
	samples []sample
	first   string // fingerprint every repetition must reproduce
}

// setUp makes the inputs and reference results, then warms up: with a
// full repetition whose fingerprint the timed ones must reproduce
// (full run), or with a short run (driver run, which sets up several
// times to report a median).
func (r *runner) setUp(seed int64, scale float64, fullWarmUp bool) error {
	t0 := time.Now()
	p, err := r.w.prepare(seed, scale)
	if err != nil {
		return err
	}
	r.p = p
	if fullWarmUp {
		out, err := p.rep()
		if err != nil {
			return err
		}
		r.first = out.fingerprint()
	} else {
		p.warm()
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	return nil
}

// rep runs one timed repetition. Work is fixed by operation count and
// virtual duration, never by wall time, so every repetition must
// produce the same virtual result.
func (r *runner) rep() error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out, err := r.p.rep()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	if fp := out.fingerprint(); r.first == "" {
		r.first = fp
	} else if fp != r.first {
		return fmt.Errorf("%s is not deterministic:\n  %s\n  %s", r.w.name, r.first, fp)
	}
	r.samples = append(r.samples, sample{wallS: wall.Seconds(), mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc, out: out})
	return nil
}

func (r *runner) host(f func(s sample) float64) stat {
	xs := make([]float64, len(r.samples))
	for i, s := range r.samples {
		xs[i] = f(s)
	}
	return summarise(xs)
}

// endToEnd computes every end-to-end metric the repetitions give.
func (r *runner) endToEnd() map[string]stat {
	n := len(r.samples)
	o := &r.samples[0].out
	ops := float64(o.ops)
	return map[string]stat{
		"setup_s":            summarise(r.setups),
		"wall_s":             r.host(func(s sample) float64 { return s.wallS }),
		"ops_per_wall_s":     r.host(func(s sample) float64 { return ops / s.wallS }),
		"allocs_per_op":      r.host(func(s sample) float64 { return float64(s.mallocs) / ops }),
		"alloc_bytes_per_op": r.host(func(s sample) float64 { return float64(s.bytes) / ops }),
		"virtual_elapsed_s":  exact(o.elapsed.Seconds(), n),
		"virtual_ops_per_s":  exact(o.throughput, n),
		"mean_virtual_us":    exact(o.meanUS, n),
		"p50_virtual_us":     exact(o.p50US, n),
		"p99_virtual_us":     exact(o.p99US, n),
		"failed_ops_frac":    exact(float64(o.failed)/float64(o.attempted), n),
	}
}

// layerMetrics computes the per-layer metrics of the full-stack runs:
// the exact counters, the rate ladder's figures when the workload has
// one and, for a workload whose host time means something, the two
// host figures of the engine and the profiled repetition's shares.
func (r *runner) layerMetrics(w io.Writer, seed int64, scale float64, host bool) (map[string]float64, []ladderRow, error) {
	o := &r.samples[0].out
	m, err := o.layerCounters(r.w.seqNodes)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", r.w.name, err)
	}
	var rows []ladderRow
	if r.w.kv != nil && !r.w.kv.crash {
		var knee float64
		if rows, knee, err = rateLadder(r.w.kv, r.w.name, seed, scale); err != nil {
			return nil, nil, err
		}
		ladderMetrics(rows, knee, m)
		printLadder(w, r.w.name, rows, knee)
	}
	if !host {
		return m, rows, nil
	}
	m["sim.wall_ns_per_event"] = r.host(func(s sample) float64 { return s.wallS * 1e9 / float64(o.events) }).Median
	m["sim.wall_us_per_virtual_ms"] = r.host(func(s sample) float64 { return s.wallS * 1e6 / o.elapsed.Milliseconds() }).Median
	// The profiler samples at 100 Hz: repeat for enough samples.
	profileFor := time.Duration(max(0.3, 3*min(scale, 1)) * float64(time.Second))
	var profiled int
	var wall time.Duration
	shares, n, err := profileRun(func() error {
		for t0 := time.Now(); wall < profileFor; wall = time.Since(t0) {
			if _, err := r.p.rep(); err != nil {
				return err
			}
			profiled++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for k, v := range shares {
		m[k] = v
	}
	m["bench.trace_overhead_frac"] = wall.Seconds()/float64(profiled)/r.host(func(s sample) float64 { return s.wallS }).Median - 1
	fmt.Fprintf(w, "profiled %s: %d repetitions, %d samples\n", r.w.name, profiled, n)
	return m, rows, nil
}

// layerLadder runs the isolated rungs, prints their table and the
// budget, and writes the spans.
func layerLadder(w io.Writer, scale float64, outdir string) ([]rungResult, []budgetRow, map[string]float64, error) {
	tr := &tracer{epoch: time.Now()}
	results, metrics := runLadder(tr, scale)
	rows := budget(results)
	printLadderResults(w, results)
	printBudget(w, rows)
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	path := filepath.Join(outdir, "trace.json")
	if err := tr.writeTrace(path); err != nil {
		return nil, nil, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "wrote %d spans to %s\n", len(tr.spans), path)
	return results, rows, metrics, nil
}

// resultLine is the last line a driver run prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is the contract of BENCHMARK.json: one workload, measured
// for the given seconds, every end-to-end metric (trace off) or every
// per-layer metric (trace on) in one JSON line printed last.
func driverRun(w io.Writer, wl *workloadDef, seed int64, seconds, scale float64, trace bool, outdir string) error {
	const setUps = 3 // set-up time is their median
	r := &runner{w: wl}
	for i := 0; i < setUps; i++ {
		if err := r.setUp(seed, scale, false); err != nil {
			return err
		}
	}
	if trace {
		seconds /= 4 // the traced run needs the untraced repetitions only as its baseline
	}
	for t0 := time.Now(); len(r.samples) < 2 || time.Since(t0).Seconds() < seconds; {
		if err := r.rep(); err != nil {
			return err
		}
	}
	line := resultLine{Metrics: map[string]lineMetric{}}
	for _, s := range r.samples {
		line.Attempted += s.out.attempted
		line.Failed += s.out.failed
	}
	line.Correct = line.Failed == 0 // every other oracle has already returned its error
	fmt.Fprintf(w, "%s seed %d: %d repetitions, %d set-ups, gob sizings %d\n", wl.name, seed, len(r.samples), setUps, rts.GobSizings())
	fmt.Fprintf(w, "  wall s per repetition:")
	for _, s := range r.samples {
		fmt.Fprintf(w, " %.4f", s.wallS)
	}
	fmt.Fprintln(w)
	if !trace {
		e2e := r.endToEnd()
		for _, d := range endToEnd {
			if d.Contract {
				printMetric(w, d, e2e[d.Name])
				line.Metrics[d.Name] = lineMetric{e2e[d.Name].Median, d.Unit}
			}
		}
	} else {
		m, _, err := r.layerMetrics(w, seed, scale, true)
		if err != nil {
			return err
		}
		_, _, rungMetrics, err := layerLadder(w, scale, outdir)
		if err != nil {
			return err
		}
		for name, v := range rungMetrics {
			m[name] = v
		}
		for _, d := range perLayer { // a metric the workload does not have (apps.kv.* on tsp) reads 0
			fmt.Fprintf(w, "  %-46s %16.6g %s\n", d.Name, m[d.Name], d.Unit)
			line.Metrics[d.Name] = lineMetric{m[d.Name], d.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", data)
	if line.Failed != 0 {
		return fmt.Errorf("%s: %d of %d operations failed", wl.name, line.Failed, line.Attempted)
	}
	return nil
}

func printMetric(w io.Writer, d metricDef, s stat) {
	clock := "host"
	if d.Virtual {
		clock = "virtual"
	}
	fmt.Fprintf(w, "  %-24s %16.6g %-14s %-7s q1 %.6g q3 %.6g n %d\n", d.Name, s.Median, d.Unit, clock, s.Q1, s.Q3, s.N)
}

// results is the file -out writes and -compare reads.
type results struct {
	Environment environment      `json:"environment"`
	Workloads   []workloadResult `json:"workloads"`
	LayerLadder []rungResult     `json:"layer_ladder"`
	Budget      []budgetRow      `json:"budget"`
}

type environment struct {
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Scale      float64 `json:"scale"`
	GobSizings int64   `json:"gob_sizings"`
}

type metricValue struct {
	stat
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound"`
	Virtual bool    `json:"virtual"`
}

type workloadResult struct {
	Name       string                 `json:"name"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Samples    int64                  `json:"latency_samples"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]float64     `json:"per_layer"`
	RateLadder []ladderRow            `json:"rate_ladder,omitempty"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

// fullRun is the whole benchmark: every workload warmed up and
// repeated, the repetitions interleaved round-robin (the sandbox has
// slow and fast phases tens of seconds long; consecutive repetitions of
// one workload would all land in one phase), then the ladders and the
// profiled repetitions.
func fullRun(w io.Writer, seed int64, reps int, scale float64, outPath, historyPath, outdir string) error {
	env := environment{Commit: commit(), Date: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Seed: seed, Reps: reps, Scale: scale}
	fmt.Fprintf(w, "commit %s, %s, %d CPUs, GOMAXPROCS %d, seed %d, %d repetitions, scale %g\n",
		env.Commit, env.GoVersion, env.NumCPU, env.GoMaxProcs, seed, reps, scale)
	runners := make([]*runner, len(workloads))
	for i := range workloads {
		runners[i] = &runner{w: &workloads[i]}
		if err := runners[i].setUp(seed, scale, true); err != nil {
			return err
		}
	}
	for i := 0; i < reps; i++ {
		for _, r := range runners {
			if err := r.rep(); err != nil {
				return err
			}
		}
	}
	res := results{Environment: env}
	for _, r := range runners {
		layer, rows, err := r.layerMetrics(w, seed, scale, r.w.hostTimed)
		if err != nil {
			return err
		}
		o := &r.samples[0].out
		wr := workloadResult{Name: r.w.name, Attempted: o.attempted, Failed: o.failed, Samples: o.samples,
			EndToEnd: map[string]metricValue{}, PerLayer: layer, RateLadder: rows}
		e2e := r.endToEnd()
		if rows != nil {
			e2e["knee_virtual_ops_per_s"] = exact(layer["apps.kv.knee_virtual_ops_per_s"], len(r.samples))
		}
		if r.w.kv != nil && r.w.kv.crash {
			e2e["recovery_virtual_ms"] = exact(layer["group.recovery_virtual_ms"], len(r.samples))
		}
		for _, d := range endToEnd {
			if s, ok := e2e[d.Name]; ok && (d.Virtual || r.w.hostTimed) {
				wr.EndToEnd[d.Name] = metricValue{s, d.Unit, d.Better, d.Bound, d.Virtual}
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	var err error
	if res.LayerLadder, res.Budget, _, err = layerLadder(w, scale, outdir); err != nil {
		return err
	}
	res.Environment.GobSizings = rts.GobSizings()
	printResults(w, &res)
	if outPath != "" {
		data, err := json.MarshalIndent(&res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", outPath)
	}
	if historyPath != "" {
		return appendHistory(historyPath, &res)
	}
	return nil
}

func printResults(w io.Writer, res *results) {
	fmt.Fprintf(w, "\ngob sizings: %d (not 0: a hot path fell back to gob sizing and the host figures are suspect)\n", res.Environment.GobSizings)
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n%s: %d attempted, %d failed, latency over %d samples\n", wr.Name, wr.Attempted, wr.Failed, wr.Samples)
		for _, d := range endToEnd {
			if v, ok := wr.EndToEnd[d.Name]; ok {
				printMetric(w, d, v.stat)
			}
		}
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "    %-44s %16.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
}

// appendHistory adds one line to the trajectory file: the commit and,
// per workload, the median of every end-to-end metric.
func appendHistory(path string, res *results) error {
	line := struct {
		Commit  string                        `json:"commit"`
		Date    string                        `json:"date"`
		Seed    int64                         `json:"seed"`
		Metrics map[string]map[string]float64 `json:"metrics"`
	}{res.Environment.Commit, res.Environment.Date, res.Environment.Seed, map[string]map[string]float64{}}
	for _, wr := range res.Workloads {
		line.Metrics[wr.Name] = map[string]float64{}
		for name, v := range wr.EndToEnd {
			line.Metrics[wr.Name][name] = v.Median
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareFiles judges results file b against baseline a, one row per
// workload and end-to-end metric:
//
//	same        within the metric's bound (virtual metrics under -aa: identical)
//	better      improved by more than the bound (virtual metrics: at all)
//	worse       worsened by more than the bound
//	unresolved  a host metric whose repetitions spread wider than the bound
//
// It fails when any row is worse; under -aa also when a row is
// unresolved or a per-layer counter or rate-ladder row differs.
func compareFiles(w io.Writer, pathA, pathB string, aa bool) error {
	load := func(path string) (res results, err error) {
		data, err := os.ReadFile(path)
		if err == nil {
			if err = json.Unmarshal(data, &res); err != nil {
				err = fmt.Errorf("%s: %w", path, err)
			}
		}
		return res, err
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-12s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", a.Environment.Commit, b.Environment.Commit, "change", "bound", "verdict")
	var bad []string
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			bad = append(bad, wa.Name+" missing")
			continue
		}
		for _, d := range endToEnd {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			// worsening as a share of the baseline, whichever way is better
			change := 0.0
			if va.Median != 0 {
				change = (vb.Median - va.Median) / va.Median
			} else if vb.Median != 0 {
				change = 1
			}
			worsening := change
			if d.Better == "higher" {
				worsening = -change
			}
			verdict := "same"
			switch {
			case !d.Virtual && max(va.spread(), vb.spread()) > d.Bound:
				verdict = "unresolved"
			case worsening > d.Bound:
				verdict = "worse"
			case d.Virtual && worsening < 0, worsening < -d.Bound:
				verdict = "better"
			case d.Virtual && aa && va.Median != vb.Median:
				verdict = "worse" // two runs of one commit must agree exactly
			}
			fmt.Fprintf(w, "%-12s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", wa.Name, d.Name, va.Median, vb.Median, 100*change, 100*d.Bound, verdict)
			if verdict == "worse" || aa && verdict != "same" {
				bad = append(bad, wa.Name+" "+d.Name+" "+verdict)
			}
		}
		if aa {
			for _, d := range perLayer {
				if d.Virtual && wa.PerLayer[d.Name] != wb.PerLayer[d.Name] {
					bad = append(bad, fmt.Sprintf("%s %s %v != %v", wa.Name, d.Name, wa.PerLayer[d.Name], wb.PerLayer[d.Name]))
				}
			}
			la, _ := json.Marshal(wa.RateLadder)
			lb, _ := json.Marshal(wb.RateLadder)
			if string(la) != string(lb) {
				bad = append(bad, wa.Name+" rate ladder differs")
			}
		}
	}
	if aa {
		// The rungs' events and virtual time are exact too.
		exactRungs := func(rs []rungResult) string {
			var sb strings.Builder
			for _, r := range rs {
				fmt.Fprintf(&sb, "%s %d %v %v\n", r.Name, r.Ops, r.EventsPerOp, r.VirtualUsPerOp)
			}
			return sb.String()
		}
		if exactRungs(a.LayerLadder) != exactRungs(b.LayerLadder) {
			bad = append(bad, "layer ladder: events or virtual time differ")
		}
	}
	if bad != nil {
		sort.Strings(bad)
		return fmt.Errorf("%d findings:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
