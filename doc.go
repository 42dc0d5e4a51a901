// Package repro reproduces "Programming a Distributed System Using
// Shared Objects" (Tanenbaum, Bal, Kaashoek; HPDC 1993): the Orca
// shared data-object model, the Amoeba microkernel substrate with its
// totally-ordered broadcast protocols (PB and BB), the broadcast and
// point-to-point runtime systems (invalidation and two-phase update),
// and the paper's four applications (TSP, ACP, chess, ATPG) — all on a
// deterministic discrete-event simulation of the 16-processor,
// 10 Mb/s-Ethernet testbed.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results.
// The root determinism_test.go runs every pinned configuration of
// harness.Catalogue twice against its pinned fingerprint, and
// bench_test.go times each as a sub-benchmark; cmd/orca-bench
// regenerates every table and figure from the command line.
package repro
