package harness

import (
	"fmt"
	"io"

	"repro/internal/apps/acp"
	"repro/internal/apps/kv"
	"repro/internal/apps/tsp"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/rts"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ProtocolBakeoff compares the sequencing protocols — the paper's
// elected sequencer (over PB and BB) against the consensus-replicated
// log — on latency, wire cost, and crash recovery.
//
// Part 1 is a group-level sweep: P members broadcast a fixed op
// stream while the sequencer machine crashes mid-run. Every op still
// delivers exactly once in one agreed order; the table reports
// sender-observed latency percentiles, wire frames per op, and the
// recovery gap (crash instant to the first delivery of an op
// submitted after the crash). The elected protocols pay the election
// window; consensus pays one takeover round trip — the harness panics
// if consensus does not recover faster than PB at the smallest P.
//
// Part 2 replays the application crash schedules (TSP optimum, ACP
// fixpoint, KV acknowledged-write audit) under the consensus
// protocol: results must match the no-fault baselines, with zero
// elections.
//
// Every configuration runs twice and panics on fingerprint mismatch:
// a consensus takeover is exactly as deterministic as an election.
func ProtocolBakeoff(w io.Writer, scale Scale) {
	ps := []int{8, 16, 32, 64, 128}
	perNode := 20
	cities, procs := 13, 8
	nVars, dom, extra := 32, 32, 20
	kvP := 8
	if scale == Quick {
		ps = []int{8, 16}
		perNode = 10
		cities, procs = 11, 4
		nVars, dom, extra = 20, 20, 12
		kvP = 4
	}
	const crashAt = 100 * sim.Millisecond

	type variant struct {
		name string
		mut  func(*group.Config)
	}
	variants := []variant{
		{"seq/pb", func(c *group.Config) { c.Method = group.ForcePB }},
		{"seq/bb", func(c *group.Config) { c.Method = group.ForceBB }},
		{"consensus", func(c *group.Config) { c.Protocol = group.Consensus }},
	}

	type res struct {
		hist        rts.LatencyHist
		framesPerOp float64
		recovery    sim.Time
		elections   int64
		takeovers   int64
		reproposals int64
	}

	// One group-level run: nodes 1..P-1 each broadcast perNode ops,
	// the sequencer (node 0) crashes at crashAt, and the run ends when
	// every survivor holds the full agreed stream.
	run := func(n int, v variant) (res, string) {
		// Failure-detection timeouts scale with P (every variant gets the
		// same factor, so the comparison stays fair at each P). A bigger
		// group means more ack traffic, bigger elections, and a bigger
		// post-crash backlog on the same 10 Mb/s wire; timeouts sized for
		// P=8 read that congestion as sequencer death and thrash —
		// thousands of back-to-back elections, none of which install.
		f := sim.Time(1)
		if n > 16 {
			f = sim.Time(n / 16)
		}
		c := newProtoCluster(17, n, func(cfg *group.Config) {
			cfg.Heartbeat = 80 * sim.Millisecond * f
			cfg.SenderTimeout = 40 * sim.Millisecond * f
			cfg.SenderRetries = 3
			cfg.GapTimeout = 20 * sim.Millisecond * f
			cfg.ElectionWait = 60 * sim.Millisecond * f
			cfg.ProposeTimeout = 40 * sim.Millisecond * f
			v.mut(cfg)
		})
		total := (n - 1) * perNode
		out := res{}
		submitAt := make(map[int64]sim.Time, total)
		var uids []int64 // node 1's delivery order, for the fingerprint
		var firstPost sim.Time
		counts := make([]int, n)
		for i := 1; i < n; i++ {
			i := i
			c.ms[i].SpawnThread("consume", func(p *sim.Proc) {
				for {
					d, ok := c.gs[i].Deliveries().Get(p)
					if !ok {
						return
					}
					counts[i]++
					sub := submitAt[d.UID]
					if i == 1 {
						uids = append(uids, d.UID)
						if firstPost == 0 && sub > crashAt {
							firstPost = p.Now()
						}
					}
					if d.Src == i {
						out.hist.Record(p.Now() - sub)
					}
				}
			})
			// Pace the stream across the crash instant (recovery is only
			// observable if submissions continue past it), and scale the
			// per-sender period with P so the aggregate offered load stays
			// constant: the 10 Mb/s wire saturates otherwise, and a
			// saturated wire measures queueing collapse, not protocols.
			pace := 15 * sim.Millisecond
			if n > 16 {
				pace *= sim.Time(n / 16)
			}
			c.ms[i].SpawnThread("produce", func(p *sim.Proc) {
				p.Sleep(sim.Time(1+i%5) * sim.Millisecond)
				for k := 0; k < perNode; k++ {
					uid := c.gs[i].Broadcast(p, "op", k, 128)
					submitAt[uid] = p.Now()
					p.Sleep(pace)
				}
			})
		}
		c.env.At(crashAt, func() { c.ms[0].Crash() })
		c.env.RunUntil(300 * sim.Second)
		for i := 1; i < n; i++ {
			if counts[i] != total {
				panic(fmt.Sprintf("harness: bakeoff %s P=%d node %d delivered %d/%d ops",
					v.name, n, i, counts[i], total))
			}
			st := c.gs[i].Stats()
			if st.Elections > out.elections {
				out.elections = st.Elections
			}
			if st.Takeovers > out.takeovers {
				out.takeovers = st.Takeovers
			}
			out.reproposals += st.Reproposals
		}
		out.framesPerOp = float64(c.net.Stats().Frames) / float64(total)
		out.recovery = firstPost - crashAt
		c.env.Stop()
		c.env.Shutdown()
		return out, fmt.Sprintf("uids=%v recovery=%d", uids, int64(out.recovery))
	}

	fmt.Fprintf(w, "== CONSENSUS: sequencing-protocol bakeoff, sequencer crash at %v ==\n", crashAt)
	fmt.Fprintf(w, "P-1 survivors broadcast %d ops each; recovery is crash instant to the\n", perNode)
	fmt.Fprintln(w, "first delivery of a post-crash submission at a survivor.")
	var rows [][]string
	recoveries := map[string]sim.Time{}
	for _, n := range ps {
		for _, v := range variants {
			a := twice(fmt.Sprintf("bakeoff %s P=%d", v.name, n), func() (res, string) { return run(n, v) })
			if n == ps[0] {
				recoveries[v.name] = a.recovery
			}
			rows = append(rows, []string{
				fmt.Sprint(n), v.name,
				fmtTime(a.hist.Percentile(0.50)), fmtTime(a.hist.Percentile(0.99)),
				fmt.Sprintf("%.2f", a.framesPerOp), fmtTime(a.recovery),
				fmt.Sprint(a.elections), fmt.Sprint(a.takeovers), fmt.Sprint(a.reproposals),
			})
		}
	}
	Table(w, []string{"procs", "protocol", "lat p50", "lat p99", "frames/op",
		"recovery", "elections", "takeovers", "reproposals"}, rows)
	if recoveries["consensus"] >= recoveries["seq/pb"] {
		panic(fmt.Sprintf("harness: consensus recovery %v not below the election window %v at P=%d",
			recoveries["consensus"], recoveries["seq/pb"], ps[0]))
	}
	fmt.Fprintln(w, "The elected protocols stall for the election window (sender retries,")
	fmt.Fprintln(w, "vote collection, view install); consensus re-proposes the in-flight")
	fmt.Fprintln(w, "slots under the successor's ballot — one round trip, no election.")
	fmt.Fprintln(w)

	// Part 2: the application crash schedules under consensus.
	fmt.Fprintf(w, "-- applications under consensus sequencing (TSP %d cities on P=%d, ACP %d vars, KV P=%d) --\n",
		cities, procs, nVars, kvP)
	crashNode := procs - 1
	inst := tsp.Generate(cities, 5)
	runTSP := func(name string, protocol group.Protocol, crash sim.Time) tsp.Result {
		cfg := orca.Config{Processors: procs, RTS: orca.Broadcast, Seed: 1,
			Protocol: protocol, Sequencer: crashNode}
		if crash > 0 {
			cfg.Faults = &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: crashNode, At: crash}}}
		}
		return twice("bakeoff "+name, func() (tsp.Result, string) {
			r := tsp.RunOrca(cfg, inst, tsp.Params{FaultTolerant: true})
			mustFinish("bakeoff "+name, r.Report)
			return r, tspFingerprint(r)
		})
	}
	tspBase := runTSP("tsp/consensus", group.Consensus, 0)
	tspCons := runTSP("tsp/consensus-crash", group.Consensus, tspBase.Report.Elapsed/2)
	tspElec := runTSP("tsp/elected-crash", group.ElectedSequencer, tspBase.Report.Elapsed/2)
	for _, r := range []tsp.Result{tspCons, tspElec} {
		if r.Best != tspBase.Best {
			panic(fmt.Sprintf("harness: bakeoff crash run found %d, baseline optimum %d", r.Best, tspBase.Best))
		}
	}
	if tspCons.Report.RTS.Elections != 0 || tspCons.Report.RTS.Takeovers == 0 {
		panic(fmt.Sprintf("harness: bakeoff consensus crash ran %d elections, %d takeovers",
			tspCons.Report.RTS.Elections, tspCons.Report.RTS.Takeovers))
	}

	ainst := acp.GeneratePropagation(nVars, dom, extra, 2)
	abase := acp.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1,
		Protocol: group.Consensus}, ainst, acp.Params{FaultTolerant: true})
	acrash := acp.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1,
		Protocol: group.Consensus, Sequencer: 2,
		Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 2, At: abase.Report.Elapsed / 3}}}},
		ainst, acp.Params{FaultTolerant: true})
	mustFinish("bakeoff acp/consensus-crash", acrash.Report)
	for i := range abase.Domains {
		if acrash.Domains[i] != abase.Domains[i] {
			panic(fmt.Sprintf("harness: bakeoff acp fixpoint differs at variable %d", i))
		}
	}

	wl := workload.Config{
		Keys: 2048, Dist: workload.Zipf, Theta: 0.99,
		ReadFrac: 0.95, UpdateFrac: 0.02, Seed: 1,
		Rate: 2000 * float64(kvP), Duration: 80 * sim.Millisecond,
	}
	kvr := kv.Run(orca.Config{Processors: kvP, RTS: orca.Broadcast, Mixed: true, Seed: 1,
		Protocol: group.Consensus, Sequencer: kvP - 1,
		Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: kvP - 1, At: 40 * sim.Millisecond}}}},
		kv.Params{Policy: kv.PolicyReplicated, Workload: wl})
	mustFinish("bakeoff kv/consensus-crash", kvr.Report)
	if kvr.LostAcked > 0 {
		panic(fmt.Sprintf("harness: bakeoff kv lost %d acknowledged writes under consensus", kvr.LostAcked))
	}

	appRows := [][]string{}
	appRow := func(name string, rep orca.Report, result string) {
		appRows = append(appRows, []string{
			name, fmtTime(rep.Elapsed), result,
			fmt.Sprint(rep.RTS.Elections), fmt.Sprint(rep.RTS.Takeovers),
			fmt.Sprint(rep.RTS.Reproposals), fmt.Sprintf("%.0fus", rep.RTS.RecoveryVirtualUS),
		})
	}
	appRow("tsp/consensus", tspBase.Report, fmt.Sprint(tspBase.Best))
	appRow("tsp/consensus-crash", tspCons.Report, fmt.Sprint(tspCons.Best))
	appRow("tsp/elected-crash", tspElec.Report, fmt.Sprint(tspElec.Best))
	appRow("acp/consensus-crash", acrash.Report, fmt.Sprintf("rev=%d", acrash.Revisions))
	appRow("kv/consensus-crash", kvr.Report, fmt.Sprintf("acked=%d lost=%d", kvr.AckedPuts, kvr.LostAcked))
	Table(w, []string{"scenario", "time", "result", "elections", "takeovers",
		"reproposals", "recovery"}, appRows)
	fmt.Fprintln(w, "Consensus crash runs reproduce the baseline results with zero")
	fmt.Fprintln(w, "elections: the log survives the leader, so recovery is a takeover's")
	fmt.Fprintln(w, "re-proposal, not a view change.")
	fmt.Fprintln(w)
}
