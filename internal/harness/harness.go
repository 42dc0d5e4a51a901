package harness

import (
	"fmt"

	"repro/internal/apps/tsp"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/sim"
)

// Experiments lists every experiment in the order RunAll prints them.
// Adding one is adding an entry: a function from Scale to a Spec (see
// doc.go).
var Experiments = []Experiment{
	{"pbbb", pbbb},
	{"micro", micro},
	{"rtscmp", rtscmp},
	{"dynrepl", dynrepl},
	{"fig2", fig2},
	{"fig3", fig3},
	{"chess", chessSweep},
	{"atpg", atpgSweep},
	{"partrepl", partrepl},
	{"intrcost", intrcost},
	{"mixed", mixed},
	{"faults", faults},
	{"scale", scaleOut},
	{"kv", kvServing},
	{"consensus", consensus},
	{"shard", shard},
	{"adapt", adapt},
}

// Scale trims the processor sweeps (for quick runs and benchmarks).
type Scale int

// Scales.
const (
	Full  Scale = iota // the paper's full sweeps
	Quick              // a few points, small inputs
)

// at picks a parameter by scale.
func at[T any](s Scale, full, quick T) T {
	if s == Quick {
		return quick
	}
	return full
}

// The pieces below are shared by several experiments.

// bcast is the configuration every application run starts from: the
// paper's broadcast runtime on p processors.
func bcast(p int) orca.Config {
	return orca.Config{Processors: p, RTS: orca.Broadcast, Seed: 1}
}

// crashing returns cfg with machine node dying at the given instant.
func crashing(cfg orca.Config, node int, at sim.Time) orca.Config {
	cfg.Faults = &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: node, At: at}}}
	return cfg
}

// keys renders a row's leading cells.
func keys(vs ...any) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprint(v)
	}
	return out
}

// bare is a row that drives the kernel, group or point-to-point layer
// directly: no orca configuration, no report.
func bare[R any](run func() R, key ...any) Row[R] {
	return Row[R]{Key: keys(key...), Run: func(orca.Config, []Ran[R]) (R, orca.Report) { return run(), orca.Report{} }}
}

// dataFrames counts sequenced data frames, whatever their capacity.
func dataFrames(rep orca.Report) int64 { return rep.Net.CountsByKind["grp-data"] }

func procsKilled(rep orca.Report) int {
	n := 0
	for _, c := range rep.Crashes {
		n += c.ProcsKilled
	}
	return n
}

// each is a check that holds row by row.
func each[R any](name string, holds func(r Ran[R]) error) Check[R] {
	return Check[R]{name, func(rows []Ran[R]) error {
		for _, r := range rows {
			if err := holds(r); err != nil {
				return fmt.Errorf("row %q: %w", r, err)
			}
		}
		return nil
	}}
}

// onOff renders a batched/unbatched flag.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// batched returns cfg with the write-combining pipeline on or off.
func batched(cfg orca.Config, on bool) orca.Config {
	if on {
		cfg.Batching = orca.DefaultBatching()
	}
	return cfg
}

// tspRow runs the TSP program on the row's configuration.
func tspRow(inst *tsp.Instance, params tsp.Params, cfg orca.Config, key ...any) Row[tsp.Result] {
	return Row[tsp.Result]{Key: keys(key...), Cfg: cfg,
		Run: func(cfg orca.Config, _ []Ran[tsp.Result]) (tsp.Result, orca.Report) {
			r := tsp.RunOrca(cfg, inst, params)
			return r, r.Report
		}}
}

// sameOptimum: no variant of a program may change what it computes.
var sameOptimum = Check[tsp.Result]{"optimum unchanged", func(rows []Ran[tsp.Result]) error {
	for _, r := range rows[1:] {
		if r.Res.Best != rows[0].Res.Best {
			return fmt.Errorf("row %q found optimum %d, row %q found %d", r, r.Res.Best, rows[0], rows[0].Res.Best)
		}
	}
	return nil
}}
