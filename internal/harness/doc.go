// Package harness regenerates every table and figure of the paper's
// evaluation, plus the protocol analyses of §3 and the fault-injection
// scenarios. An experiment is a value, and one driver (driver.go) is
// the only code that runs, double-runs, checks or renders one.
//
// Adding an experiment is adding one entry to Experiments: a name and a
// function from Scale to a Spec. A Spec is a title and its tables. A
// table (Tab[R], R being whatever one run returns) is
//
//   - Cols: the column headers;
//   - Rows: each a Key (its leading cells, which also name it in
//     errors), an orca.Config, and a Run closure that executes the
//     workload on that configuration and returns an R and the run's
//     orca.Report. Run also sees the rows above it, for rows measured
//     against a baseline (a speedup; a crash at half the healthy run);
//   - Cells: the row's remaining cells, computed from its R and Report;
//   - Checks: named assertions over all rows (optimum unchanged,
//     frames/op < 0.25 at P >= 32, no acknowledged write lost, …),
//     each returning an error that names the row and the figures;
//   - optionally a Heading above, a speedup Curve and a computed
//     Summary line below, and the closing Prose.
//
// The driver runs every row twice, the twin on its own goroutine (a
// second core where GOMAXPROCS gives one), and compares fingerprints
// (the rendered cells plus the report's elapsed time, wire and runtime
// counters): a run is a pure function of its configuration, faults
// included. A run that differs from its twin or hits the deadlock
// timeout stops the experiment with an error naming experiment, table
// and row; a failed check is reported the same way after the tables
// have printed. cmd/orca-bench turns either into exit status 1, and
// TestQuickGolden runs every experiment as a subtest and every check
// as a subtest of that.
//
// Experiments are built from shared pieces: one speedup sweep (fig2,
// fig3, chess, atpg differ only in the data handed to it), one
// counter-stream program (scale, shard), one kv row and cell set (kv,
// adapt), one crash-scenario row per application (faults, consensus),
// one modern cost profile. Everything printed is virtual time or a
// count — the harness never reads the host clock — so
// testdata/quick.golden pins the output of all experiments at Quick
// scale byte for byte.
//
// Catalogue (catalogue.go) is the list of pinned configurations, rows
// built from the same pieces: the root determinism test runs each
// twice (Pin.Twice) against its pinned fingerprint, and the root
// benchmark times each.
//
// Downward: experiments run the applications in internal/apps on
// orca runtimes. Upward: cmd/orca-bench is the command-line driver,
// and EXPERIMENTS.md quotes the full-size runs. PAPER_MAP.md maps each
// experiment back to the paper section it reproduces.
package harness
