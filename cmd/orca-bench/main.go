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
package main

import (
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
	w := os.Stdout
next:
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			harness.RunAll(w, scale)
			continue
		}
		for _, e := range harness.Experiments {
			if e.Name == name {
				e.Run(w, scale)
				fmt.Fprintln(w)
				continue next
			}
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q; have %s\n", name, strings.Join(have, ", "))
		os.Exit(2)
	}
}
