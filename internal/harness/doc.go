// Package harness drives the experiments that regenerate every table
// and figure of the paper's evaluation, plus the protocol analyses of
// §3 and the fault-injection scenarios. Each experiment returns a
// structured result and can render itself as text (tables and ASCII
// speedup curves in the style of the paper's figures); several panic
// on wrong answers so CI smoke runs double as correctness checks.
// Everything printed is virtual time or a count — the harness never
// reads the host clock — so testdata/quick.golden pins the output of
// all experiments at Quick scale byte for byte (TestQuickGolden).
//
// Downward: experiments run the applications in internal/apps on
// orca runtimes. Upward: cmd/orca-bench is the command-line driver,
// and EXPERIMENTS.md quotes the full-size runs. PAPER_MAP.md maps each
// experiment back to the paper section it reproduces.
package harness
