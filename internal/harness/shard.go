package harness

import (
	"fmt"
	"io"

	"repro/internal/amoeba"
	"repro/internal/apps/tsp"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/sim"
)

// ShardExperiment measures the sharded total order: N independent
// sequencer groups on the same machines, each with its own replication
// domain, against the single group every earlier experiment uses (see
// DESIGN.md, "Sharded total order"). Three parts:
//
//   - counter throughput sweep: every machine streams no-result
//     assigns to a counter homed in its own domain, P=8..512 × shard
//     counts {1,4,16,P/8}. One group flatlines — every write funnels
//     through one sequencer and is applied by every machine — while
//     sharding with domains scales the write throughput with the
//     shard count. Runs use a modern cost profile (1 Gb/s wire,
//     microsecond kernel paths): sharding is the structure for the
//     millions-of-ops regime, not the paper's 10 Mb/s testbed.
//   - TSP optimum: the paper's Figure 2 application with its shared
//     objects hash-spread over shards (full spans); the optimum must
//     match the single-group run bit-for-bit.
//   - crash isolation: one shard's sequencer machine dies mid-run;
//     workers on the surviving shards must finish in (near) baseline
//     time while the crashed shard recovers and completes after.
//
// Every configuration runs twice and the harness panics if the two
// fingerprints differ, and at full scale if P=256 with 16 shards does
// not reach at least 3x the single-group write throughput on the same
// trace.
func ShardExperiment(w io.Writer, scale Scale) {
	type sweepRow struct {
		procs, shards int
		ops           int64
		opsPerSec     float64
	}
	procs := []int{8, 64, 256, 512}
	shardsFor := func(p int) []int {
		set := []int{1, 4, 16, p / 8}
		var out []int
		for _, s := range set {
			dup := false
			for _, t := range out {
				dup = dup || t == s
			}
			if !dup && s >= 1 && s <= p && p%s == 0 {
				out = append(out, s)
			}
		}
		return out
	}
	opsFor := func(p int) int {
		switch {
		case p >= 512:
			return 50
		case p >= 256:
			return 100
		default:
			return 200
		}
	}
	tspProcs, tspShards, cities := []int{8, 64}, []int{1, 4, 8}, 12
	crashP, crashShards, crashOps := 8, 4, 60
	if scale == Quick {
		procs = []int{8, 32}
		shardsFor = func(p int) []int { return []int{1, 4} }
		opsFor = func(int) int { return 100 }
		tspProcs, tspShards, cities = []int{8}, []int{1, 4}, 11
		crashOps = 40
	}

	// Modern cost profile: a 1 Gb/s switch-class wire and
	// microsecond-scale kernel paths, against which the ordering
	// structure (not the 1992 CPU) is the bottleneck.
	modernNet := netsim.Params{
		BandwidthBps:     1_000_000_000,
		PropDelay:        5 * sim.Microsecond,
		FrameOverhead:    42,
		MTU:              1500,
		BroadcastCapable: true,
	}
	modernKernel := amoeba.Costs{
		Interrupt: 5 * sim.Microsecond,
		Protocol:  3 * sim.Microsecond,
		Send:      6 * sim.Microsecond,
		Switch:    2 * sim.Microsecond,
		Quantum:   amoeba.DefaultCosts().Quantum,
	}

	fmt.Fprintln(w, "== SHARD: N sequencer groups, domain replication, scale-out past one total order ==")
	fmt.Fprintf(w, "-- counter: per-machine no-result assigns, modern profile (1 Gb/s, µs kernel), batching on --\n")

	// runCounter executes the counter workload once: worker m creates
	// its own counter inside its domain's shard and streams opsPer
	// assigns through the combining buffer. The issued trace is
	// identical across shard counts at fixed P — only the ordering
	// structure changes.
	runCounter := func(name string, p, shards, opsPer int) (sweepRow, string) {
		cfg := orca.Config{Processors: p, RTS: orca.Broadcast, Seed: 1,
			Net: &modernNet, KernelCosts: &modernKernel, Batching: orca.DefaultBatching()}
		if shards > 1 {
			cfg.Shards = shards
			cfg.ShardSpan = p / shards
		}
		span := p
		if shards > 1 {
			span = p / shards
		}
		rt := orca.New(cfg, std.Register)
		rep := rt.Run(func(pr *orca.Proc) {
			fin := std.NewBarrier(pr, p)
			for cpu := 0; cpu < p; cpu++ {
				cpu := cpu
				pr.Fork(cpu, fmt.Sprintf("shard-w%d", cpu), func(wp *orca.Proc) {
					var opts []orca.Option
					if shards > 1 {
						opts = append(opts, orca.OnShard(cpu/span))
					}
					c := std.NewCounter(wp, 0, opts...)
					for i := 0; i < opsPer; i++ {
						c.Assign(wp, cpu*opsPer+i)
					}
					fin.Arrive(wp)
				})
			}
			fin.Wait(pr)
		})
		mustFinish(name, rep)
		st := rep.RTS
		ops := st.BcastWrites + st.BatchedOps
		row := sweepRow{procs: p, shards: shards, ops: ops,
			opsPerSec: float64(ops) / rep.Elapsed.Seconds()}
		fp := fmt.Sprintf("elapsed=%d msgs=%d frames=%d writes=%d batched=%d fwd=%d",
			int64(rep.Elapsed), rep.Net.Messages, rep.Net.Frames,
			st.BcastWrites, st.BatchedOps, st.Forwarded)
		return row, fp
	}

	var rows [][]string
	byConfig := map[[2]int]sweepRow{}
	for _, p := range procs {
		opsPer := opsFor(p)
		var base float64
		for _, s := range shardsFor(p) {
			name := fmt.Sprintf("shard counter P=%d S=%d", p, s)
			row := twice(name, func() (sweepRow, string) { return runCounter(name, p, s, opsPer) })
			if s == 1 {
				base = row.opsPerSec
			}
			byConfig[[2]int{p, s}] = row
			speedup := row.opsPerSec / base
			span := "all"
			if s > 1 {
				span = fmt.Sprint(p / s)
			}
			rows = append(rows, []string{
				fmt.Sprint(p), fmt.Sprint(s), span, fmt.Sprint(row.ops),
				fmt.Sprintf("%.2fM", row.opsPerSec/1e6), fmt.Sprintf("%.2fx", speedup),
			})
		}
	}
	Table(w, []string{"procs", "shards", "span", "writes", "writes/s", "vs 1 shard"}, rows)
	if scale == Full {
		one, sixteen := byConfig[[2]int{256, 1}], byConfig[[2]int{256, 16}]
		ratio := sixteen.opsPerSec / one.opsPerSec
		if ratio < 3 {
			panic(fmt.Sprintf("harness: P=256 S=16 throughput only %.2fx the single group, want >= 3x", ratio))
		}
		fmt.Fprintf(w, "P=256: 16 shards deliver %.1fx the single group's write throughput.\n", ratio)
	}
	fmt.Fprintln(w)

	// TSP: sharding the total order must not change what the program
	// computes. Shared objects hash-spread over full-span shards.
	fmt.Fprintf(w, "-- TSP %d cities: optimum must match the single group --\n", cities)
	inst := tsp.Generate(cities, 5)
	rows = rows[:0]
	best := -1
	for _, p := range tspProcs {
		for _, s := range tspShards {
			cfg := orca.Config{Processors: p, RTS: orca.Broadcast, Seed: 1}
			if s > 1 {
				cfg.Shards = s
			}
			r := twice(fmt.Sprintf("sharded TSP P=%d S=%d", p, s), func() (tsp.Result, string) {
				r := tsp.RunOrca(cfg, inst, tsp.Params{})
				return r, tspFingerprint(r)
			})
			if best == -1 {
				best = r.Best
			} else if r.Best != best {
				panic(fmt.Sprintf("harness: TSP optimum drifted under sharding: %d vs %d (P=%d S=%d)", r.Best, best, p, s))
			}
			rows = append(rows, []string{
				fmt.Sprint(p), fmt.Sprint(s), fmt.Sprint(r.Best), fmtTime(r.Report.Elapsed),
				fmt.Sprint(r.Report.Net.Frames),
			})
		}
	}
	Table(w, []string{"procs", "shards", "best", "virtual", "frames"}, rows)
	fmt.Fprintln(w)

	// Crash isolation: shard k sequences on machine k (full spans,
	// rotation 0). Machine 1 dies mid-run, taking exactly shard 1's
	// sequencer; workers bound to the other shards must finish in
	// near-baseline time while shard 1 recovers.
	fmt.Fprintf(w, "-- crash isolation at P=%d, %d shards: machine 1 (shard 1's sequencer) dies mid-run --\n",
		crashP, crashShards)
	runCrash := func(name string, crash bool) (doneSurvivors, doneAll sim.Time, rep orca.Report) {
		cfg := orca.Config{Processors: crashP, RTS: orca.Broadcast, Shards: crashShards, Seed: 1}
		if crash {
			cfg.Faults = &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 1, At: 30 * sim.Millisecond}}}
		}
		workers := []int{2, 3, 4, 5, 6, 7}
		doneAt := make([]sim.Time, crashP)
		shardOf := func(cpu int) int { return cpu % crashShards }
		rep = twice("shard crash run "+name, func() (orca.Report, string) {
			rt := orca.New(cfg, std.Register)
			rep := rt.Run(func(pr *orca.Proc) {
				counters := make([]orca.Object, crashP)
				for _, cpu := range workers {
					counters[cpu] = pr.NewWith(std.IntObj, orca.Opts(orca.OnShard(shardOf(cpu))))
				}
				fin := std.NewBarrier(pr, len(workers))
				for _, cpu := range workers {
					cpu := cpu
					pr.Fork(cpu, fmt.Sprintf("crash-w%d", cpu), func(wp *orca.Proc) {
						for k := 0; k < crashOps; k++ {
							wp.Invoke(counters[cpu], "inc")
							wp.Work(sim.Millisecond)
						}
						doneAt[cpu] = wp.Now()
						fin.Arrive(wp)
					})
				}
				fin.Wait(pr)
				for _, cpu := range workers {
					if got := pr.InvokeI(counters[cpu], "value"); got != crashOps {
						panic(fmt.Sprintf("harness: shard crash worker %d counted %d, want %d", cpu, got, crashOps))
					}
				}
			})
			mustFinish("shard crash run "+name, rep)
			return rep, fmt.Sprintf("elapsed=%d msgs=%d", int64(rep.Elapsed), rep.Net.Messages)
		})
		for _, cpu := range workers {
			d := doneAt[cpu]
			if d > doneAll {
				doneAll = d
			}
			if shardOf(cpu) != 1 && d > doneSurvivors {
				doneSurvivors = d
			}
		}
		return doneSurvivors, doneAll, rep
	}
	baseSurv, baseAll, baseRep := runCrash("baseline", false)
	crashSurv, crashAll, crashRep := runCrash("crash", true)
	rows = rows[:0]
	for _, rr := range []struct {
		name      string
		surv, all sim.Time
		rep       orca.Report
	}{{"no-fault", baseSurv, baseAll, baseRep}, {"seq-crash", crashSurv, crashAll, crashRep}} {
		rows = append(rows, []string{
			rr.name, fmtTime(rr.surv), fmtTime(rr.all), fmtTime(rr.rep.Elapsed),
			fmt.Sprint(rr.rep.RTS.Elections + rr.rep.RTS.Takeovers),
			fmt.Sprintf("%.0fµs", rr.rep.RTS.RecoveryVirtualUS),
			fmt.Sprint(len(rr.rep.Crashes)),
		})
	}
	Table(w, []string{"scenario", "survivors done", "all done", "virtual", "elect+takeover", "recovery", "crashes"}, rows)
	slack := float64(crashSurv) / float64(baseSurv)
	if slack > 1.15 {
		panic(fmt.Sprintf("harness: surviving shards slowed %.2fx under a one-shard sequencer crash, want <= 1.15x", slack))
	}
	fmt.Fprintf(w, "Workers on the surviving shards finished within %.1f%% of baseline while\n", (slack-1)*100)
	fmt.Fprintln(w, "shard 1 elected a new sequencer and its workers completed afterwards:")
	fmt.Fprintln(w, "one shard's recovery is not a stop-the-world event.")
	fmt.Fprintln(w)
}
