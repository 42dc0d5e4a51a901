package harness

import (
	"fmt"

	"repro/internal/amoeba"
	"repro/internal/apps/tsp"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/sim"
)

// modern returns cfg on the modern cost profile: a 1 Gb/s switch-class
// wire and microsecond-scale kernel paths, against which the ordering
// structure (not the 1992 CPU) is the bottleneck.
func modern(cfg orca.Config) orca.Config {
	cfg.Net = &netsim.Params{
		BandwidthBps:     1_000_000_000,
		PropDelay:        5 * sim.Microsecond,
		FrameOverhead:    42,
		MTU:              1500,
		BroadcastCapable: true,
	}
	cfg.KernelCosts = &amoeba.Costs{
		Interrupt: 5 * sim.Microsecond,
		Protocol:  3 * sim.Microsecond,
		Send:      6 * sim.Microsecond,
		Switch:    2 * sim.Microsecond,
	}
	return cfg
}

// sharded returns cfg split into n sequencer groups; with domains,
// each group's objects are replicated on its own P/n machines only.
func sharded(cfg orca.Config, n int, domains bool) orca.Config {
	if n > 1 {
		cfg.Shards = n
		if domains {
			cfg.ShardSpan = cfg.Processors / n
		}
	}
	return cfg
}

// isolation is one run of the crash-isolation program: when the
// workers on shards other than 1 finished, when all did, and what each
// worker's counter held at the end.
type isolation struct {
	survivors, all sim.Time
	counted        []int
}

// shard measures the sharded total order: N independent sequencer
// groups on the same machines, each with its own replication domain,
// against the single group every earlier experiment uses (see
// DESIGN.md, "Sharded total order"). Three parts:
//
//   - counter throughput sweep: every machine streams no-result
//     assigns to a counter homed in its own domain, P=8..512 × shard
//     counts {1,4,16,P/8}. One group flatlines — every write funnels
//     through one sequencer and is applied by every machine — while
//     sharding with domains scales the write throughput with the
//     shard count. Runs use the modern cost profile: sharding is the
//     structure for the millions-of-ops regime, not the paper's
//     10 Mb/s testbed. At full scale P=256 with 16 shards must reach
//     3x the single group's write throughput on the same trace.
//   - TSP optimum: the paper's Figure 2 application with its shared
//     objects hash-spread over shards (full spans); the optimum must
//     match the single-group run bit-for-bit.
//   - crash isolation: one shard's sequencer machine dies mid-run;
//     workers on the surviving shards must finish in (near) baseline
//     time while the crashed shard recovers and completes after.
func shard(s Scale) Spec {
	counter := Tab[stream]{
		Name:    "counter",
		Heading: "-- counter: per-machine no-result assigns, modern profile (1 Gb/s, µs kernel), batching on --",
		Cols:    []string{"procs", "shards", "span", "writes", "writes/s", "vs 1 shard"},
		Cells: func(r Ran[stream]) []any {
			return []any{r.Res.writes, fmt.Sprintf("%.2fM", r.Res.perSec/1e6), fmt.Sprintf("%.2fx", r.Res.overFirst)}
		},
	}
	// The counter sweep: P, assigns per machine (fewer at large P to
	// bound the run), and shard counts {1, 4, 16, P/8}.
	type cut struct {
		p, opsPer int
		shards    []int
	}
	for _, c := range at(s,
		[]cut{{8, 200, []int{1, 4}}, {64, 200, []int{1, 4, 16, 8}}, {256, 100, []int{1, 4, 16, 32}}, {512, 50, []int{1, 4, 16, 64}}},
		[]cut{{8, 100, []int{1, 4}}, {32, 100, []int{1, 4}}}) {
		for _, n := range c.shards {
			span := any("all")
			if n > 1 {
				span = c.p / n
			}
			counter.Rows = append(counter.Rows,
				counterStream(false, c.opsPer, sharded(batched(modern(bcast(c.p)), true), n, true), c.p, n, span))
		}
	}
	if s == Full {
		big := func(rows []Ran[stream]) Ran[stream] {
			for _, r := range rows {
				if r.Cfg.Processors == 256 && r.Cfg.Shards == 16 {
					return r
				}
			}
			return Ran[stream]{}
		}
		counter.Summary = func(rows []Ran[stream]) string {
			return fmt.Sprintf("P=256: 16 shards deliver %.1fx the single group's write throughput.", big(rows).Res.overFirst)
		}
		counter.Checks = []Check[stream]{{"16 shards at P=256 write at least 3x as fast as one group", func(rows []Ran[stream]) error {
			if r := big(rows); r.Res.overFirst < 3 {
				return fmt.Errorf("row %q: %.2fx the single group, want >= 3x", r, r.Res.overFirst)
			}
			return nil
		}}}
	}

	// Sharding the total order must not change what the program
	// computes. Shared objects hash-spread over full-span shards.
	cities := at(s, 12, 11)
	inst := tsp.Generate(cities, 5)
	app := Tab[tsp.Result]{
		Name:    "tsp",
		Heading: fmt.Sprintf("-- TSP %d cities: optimum must match the single group --", cities),
		Cols:    []string{"procs", "shards", "best", "virtual", "frames"},
		Cells:   func(r Ran[tsp.Result]) []any { return []any{r.Res.Best, r.Report.Elapsed, r.Report.Net.Frames} },
		Checks:  []Check[tsp.Result]{sameOptimum},
	}
	for _, p := range at(s, []int{8, 64}, []int{8}) {
		for _, n := range at(s, []int{1, 4, 8}, []int{1, 4}) {
			app.Rows = append(app.Rows, tspRow(inst, tsp.Params{}, sharded(bcast(p), n, false), p, n))
		}
	}

	// Crash isolation: shard k sequences on machine k (full spans,
	// rotation 0). Machine 1 dies mid-run, taking exactly shard 1's
	// sequencer; workers bound to the other shards must finish in
	// near-baseline time while shard 1 recovers.
	const crashP, crashShards = 8, 4
	ops := at(s, 60, 40)
	workers := []int{2, 3, 4, 5, 6, 7}
	isolate := func(cfg orca.Config, _ []Ran[isolation]) (isolation, orca.Report) {
		var out isolation
		rep := orca.New(cfg, std.Register).Run(func(pr *orca.Proc) {
			counters := make([]std.Counter, crashP)
			for _, cpu := range workers {
				counters[cpu] = std.NewZeroCounter(pr, orca.OnShard(cpu%crashShards))
			}
			fin := std.NewBarrier(pr, len(workers))
			for _, cpu := range workers {
				pr.Fork(cpu, fmt.Sprintf("crash-w%d", cpu), func(wp *orca.Proc) {
					for k := 0; k < ops; k++ {
						counters[cpu].Inc(wp)
						wp.Work(sim.Millisecond)
					}
					out.all = max(out.all, wp.Now())
					if cpu%crashShards != 1 {
						out.survivors = max(out.survivors, wp.Now())
					}
					fin.Arrive(wp)
				})
			}
			fin.Wait(pr)
			for _, cpu := range workers {
				out.counted = append(out.counted, counters[cpu].Value(pr))
			}
		})
		return out, rep
	}
	slack := func(rows []Ran[isolation]) float64 {
		return float64(rows[1].Res.survivors) / float64(rows[0].Res.survivors)
	}
	crash := Tab[isolation]{
		Name: "crash",
		Heading: fmt.Sprintf("-- crash isolation at P=%d, %d shards: machine 1 (shard 1's sequencer) dies mid-run --",
			crashP, crashShards),
		Cols: []string{"scenario", "survivors done", "all done", "virtual", "elect+takeover", "recovery", "crashes"},
		Rows: []Row[isolation]{
			{Key: keys("no-fault"), Cfg: sharded(bcast(crashP), crashShards, false), Run: isolate},
			{Key: keys("seq-crash"), Cfg: crashing(sharded(bcast(crashP), crashShards, false), 1, 30*sim.Millisecond), Run: isolate},
		},
		Cells: func(r Ran[isolation]) []any {
			rep, st := r.Report, r.Report.RTS
			return []any{r.Res.survivors, r.Res.all, rep.Elapsed, st.Elections + st.Takeovers,
				fmt.Sprintf("%.0fµs", st.RecoveryVirtualUS), len(rep.Crashes)}
		},
		Checks: []Check[isolation]{
			each("every worker's counter holds its increments", func(r Ran[isolation]) error {
				for i, got := range r.Res.counted {
					if got != ops {
						return fmt.Errorf("worker %d counted %d, want %d", workers[i], got, ops)
					}
				}
				return nil
			}),
			{"survivors within 1.15x of baseline", func(rows []Ran[isolation]) error {
				if x := slack(rows); x > 1.15 {
					return fmt.Errorf("row %q: surviving shards done at %v, %.2fx the %v of row %q, want <= 1.15x",
						rows[1], rows[1].Res.survivors, x, rows[0].Res.survivors, rows[0])
				}
				return nil
			}},
		},
		Summary: func(rows []Ran[isolation]) string {
			return fmt.Sprintf("Workers on the surviving shards finished within %.1f%% of baseline while", (slack(rows)-1)*100)
		},
		Prose: `shard 1 elected a new sequencer and its workers completed afterwards:
one shard's recovery is not a stop-the-world event.`,
	}
	return Spec{Title: "== SHARD: N sequencer groups, domain replication, scale-out past one total order ==",
		Tables: []Block{counter, app, crash}}
}
