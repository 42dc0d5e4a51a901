// Command orca-bench regenerates every table and figure of the
// paper's evaluation on the simulated Amoeba multicomputer.
//
// Usage:
//
//	orca-bench [-exp all|fig2|fig3|chess|atpg|pbbb|rtscmp|dynrepl|micro|partrepl|intrcost|mixed|faults|scale|kv|consensus|shard|adapt] [-quick]
//
// Each experiment prints the measured series next to a summary of what
// the paper reports. Every figure is virtual time or a count, so the
// output is a pure function of the flags: internal/harness pins the
// -exp all -quick run byte for byte (testdata/quick.golden), and
// EXPERIMENTS.md quotes the full-size runs. Wall-clock cost is
// measured elsewhere, by bash bench/run.sh.
//
// Every row runs twice and every experiment checks its own figures; a
// run that times out or differs from its twin, or a check that fails,
// is reported on stderr in one line naming experiment, table and row,
// after the tables, and the exit status is 1. An unknown experiment is
// exit status 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
)

func main() {
	var have []string
	for _, e := range harness.Experiments {
		have = append(have, e.Name)
	}
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(have, ", "))
	quick := flag.Bool("quick", false, "run reduced sweeps on smaller inputs")
	flag.Parse()

	scale := harness.Full
	if *quick {
		scale = harness.Quick
	}
	var failed []error
next:
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			failed = append(failed, harness.RunAll(os.Stdout, scale))
			continue
		}
		for _, e := range harness.Experiments {
			if e.Name == name {
				failed = append(failed, e.Run(os.Stdout, scale))
				fmt.Println()
				continue next
			}
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q; have %s\n", name, strings.Join(have, ", "))
		os.Exit(2)
	}
	if err := errors.Join(failed...); err != nil {
		fmt.Fprintf(os.Stderr, "orca-bench: %v\n", err)
		os.Exit(1)
	}
}
