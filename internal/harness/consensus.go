package harness

import (
	"fmt"

	"repro/internal/apps/acp"
	"repro/internal/apps/kv"
	"repro/internal/apps/tsp"
	"repro/internal/group"
	"repro/internal/orca"
	"repro/internal/rts"
	"repro/internal/sim"
)

// bakeoffCrashAt is when the sequencer machine dies in the group-level
// bakeoff.
const bakeoffCrashAt = 100 * sim.Millisecond

// bakeoffRun is one group-level run: nodes 1..P-1 each broadcast
// perNode ops, the sequencer (node 0) crashes, and the run ends when
// every survivor holds the full agreed stream.
type bakeoffRun struct {
	hist        rts.LatencyHist // sender-observed latency
	framesPerOp float64
	recovery    sim.Time // crash to the first delivery of a post-crash submission
	elections   int64
	takeovers   int64
	reproposals int64
	short       error // a survivor that did not deliver every op
}

func bakeoff(n, perNode int, protocol func(*group.Config)) bakeoffRun {
	// Failure-detection timeouts scale with P (every variant gets the
	// same factor, so the comparison stays fair at each P). A bigger
	// group means more ack traffic, bigger elections, and a bigger
	// post-crash backlog on the same 10 Mb/s wire; timeouts sized for
	// P=8 read that congestion as sequencer death and thrash —
	// thousands of back-to-back elections, none of which install.
	f := sim.Time(max(1, n/16))
	c := newProtoCluster(17, n, func(cfg *group.Config) {
		cfg.Heartbeat = 80 * sim.Millisecond * f
		cfg.SenderTimeout = 40 * sim.Millisecond * f
		cfg.SenderRetries = 3
		cfg.GapTimeout = 20 * sim.Millisecond * f
		cfg.ElectionWait = 60 * sim.Millisecond * f
		cfg.ProposeTimeout = 40 * sim.Millisecond * f
		protocol(cfg)
	})
	total := (n - 1) * perNode
	var out bakeoffRun
	submitAt := make(map[int64]sim.Time, total)
	var firstPost sim.Time
	counts := make([]int, n)
	c.consume(1, func(i int, d group.Delivery, now sim.Time) {
		if d.Dup {
			return // a suppressed re-delivery: only a frame boundary
		}
		counts[i]++
		sub := submitAt[d.UID]
		if i == 1 && firstPost == 0 && sub > bakeoffCrashAt {
			firstPost = now
		}
		if d.Src == i {
			out.hist.Record(now - sub)
		}
	})
	for i := 1; i < n; i++ {
		// Pace the stream across the crash instant (recovery is only
		// observable if submissions continue past it), and scale the
		// per-sender period with P so the aggregate offered load stays
		// constant: the 10 Mb/s wire saturates otherwise, and a
		// saturated wire measures queueing collapse, not protocols.
		c.ms[i].SpawnThread("produce", func(p *sim.Proc) {
			p.Sleep(sim.Time(1+i%5) * sim.Millisecond)
			for k := 0; k < perNode; k++ {
				uid := c.gs[i].Broadcast(p, "op", k, 128)
				submitAt[uid] = p.Now()
				p.Sleep(15 * sim.Millisecond * f)
			}
		})
	}
	c.env.At(bakeoffCrashAt, func() { c.ms[0].Crash() })
	wire := c.finish(300 * sim.Second)
	for i := 1; i < n; i++ {
		if counts[i] != total && out.short == nil {
			out.short = fmt.Errorf("node %d delivered %d/%d ops", i, counts[i], total)
		}
		st := c.gs[i].Stats()
		out.elections = max(out.elections, st.Elections)
		out.takeovers = max(out.takeovers, st.Takeovers)
		out.reproposals += st.Reproposals
	}
	out.framesPerOp = float64(wire.Frames) / float64(total)
	out.recovery = firstPost - bakeoffCrashAt
	return out
}

// consensus compares the sequencing protocols — the paper's elected
// sequencer (over PB and BB) against the consensus-replicated log — on
// latency, wire cost, and crash recovery.
//
// Part 1 is a group-level sweep: P members broadcast a fixed op
// stream while the sequencer machine crashes mid-run. Every op still
// delivers exactly once in one agreed order; the table reports
// sender-observed latency percentiles, wire frames per op, and the
// recovery gap (crash instant to the first delivery of an op
// submitted after the crash). The elected protocols pay the election
// window; consensus pays one takeover round trip, and must recover
// faster than PB at the smallest P.
//
// Part 2 replays the application crash schedules (TSP optimum, ACP
// fixpoint, KV acknowledged-write audit) under the consensus
// protocol: results must match the no-fault baselines, with zero
// elections.
func consensus(s Scale) Spec {
	perNode := at(s, 20, 10)
	cities, procs, nVars, kvP := at(s, 13, 11), at(s, 8, 4), at(s, 32, 20), at(s, 8, 4)

	protocols := Tab[bakeoffRun]{
		Name: "group",
		Cols: []string{"procs", "protocol", "lat p50", "lat p99", "frames/op", "recovery", "elections", "takeovers", "reproposals"},
		Cells: func(r Ran[bakeoffRun]) []any {
			b := r.Res
			return []any{b.hist.Percentile(0.50), b.hist.Percentile(0.99), fmt.Sprintf("%.2f", b.framesPerOp), b.recovery,
				b.elections, b.takeovers, b.reproposals}
		},
		Checks: []Check[bakeoffRun]{
			each("every survivor delivers every op", func(r Ran[bakeoffRun]) error { return r.Res.short }),
			{"consensus recovers faster than the election window at the smallest P", func(rows []Ran[bakeoffRun]) error {
				if pb, cons := rows[0], rows[2]; cons.Res.recovery >= pb.Res.recovery {
					return fmt.Errorf("row %q recovered in %v, row %q in %v", cons, cons.Res.recovery, pb, pb.Res.recovery)
				}
				return nil
			}},
		},
		Prose: `The elected protocols stall for the election window (sender retries,
vote collection, view install); consensus re-proposes the in-flight
slots under the successor's ballot — one round trip, no election.`,
	}
	for _, n := range at(s, []int{8, 16, 32, 64, 128}, []int{8, 16}) {
		for _, v := range []struct {
			name string
			mut  func(*group.Config)
		}{
			{"seq/pb", func(c *group.Config) { c.Method = group.ForcePB }},
			{"seq/bb", func(c *group.Config) { c.Method = group.ForceBB }},
			{"consensus", func(c *group.Config) { c.Protocol = group.Consensus }},
		} {
			protocols.Rows = append(protocols.Rows, bare(func() bakeoffRun { return bakeoff(n, perNode, v.mut) }, n, v.name))
		}
	}

	// Part 2: the application crash schedules under consensus. The
	// sequencer sits on the machine that dies.
	last := procs - 1
	seqOnLast := func(protocol group.Protocol) orca.Config {
		cfg := bcast(procs)
		cfg.Protocol, cfg.Sequencer = protocol, last
		return cfg
	}
	acpCfg := bcast(4)
	acpCfg.Protocol = group.Consensus
	kvCfg := crashing(mixedRTS(kvP), kvP-1, 40*sim.Millisecond)
	kvCfg.Protocol, kvCfg.Sequencer = group.Consensus, kvP-1
	inst := tsp.Generate(cities, 5)
	apps := Tab[appRun]{
		Name: "apps",
		Heading: fmt.Sprintf("-- applications under consensus sequencing (TSP %d cities on P=%d, ACP %d vars, KV P=%d) --",
			cities, procs, nVars, kvP),
		Cols: []string{"scenario", "time", "result", "elections", "takeovers", "reproposals", "recovery"},
		Rows: []Row[appRun]{
			tspScenario("tsp/consensus", seqOnLast(group.Consensus), inst, -1),
			tspScenario("tsp/consensus-crash", seqOnLast(group.Consensus), inst, last),
			tspScenario("tsp/elected-crash", seqOnLast(group.ElectedSequencer), inst, last),
			acpScenario("acp/consensus-crash", acpCfg, acp.GeneratePropagation(nVars, nVars, at(s, 20, 12), 2), 2, 2),
			{Key: keys("kv/consensus-crash"), Cfg: kvCfg, Run: func(cfg orca.Config, _ []Ran[appRun]) (appRun, orca.Report) {
				r := kv.Run(cfg, kv.Params{Policy: kv.PolicyReplicated, Workload: zipfLoad(2048, kvP, 80*sim.Millisecond)})
				return appRun{result: fmt.Sprintf("acked=%d lost=%d", r.AckedPuts, r.LostAcked),
					answer: fmt.Sprintf("lost=%d", r.LostAcked), want: "lost=0"}, r.Report
			}},
		},
		Cells: func(r Ran[appRun]) []any {
			st := r.Report.RTS
			return []any{r.Report.Elapsed, r.Res.result, st.Elections, st.Takeovers, st.Reproposals, fmt.Sprintf("%.0fus", st.RecoveryVirtualUS)}
		},
		Checks: []Check[appRun]{sameAnswer,
			{"the consensus crash is a takeover, not an election", func(rows []Ran[appRun]) error {
				if st := rows[1].Report.RTS; st.Elections != 0 || st.Takeovers == 0 {
					return fmt.Errorf("row %q ran %d elections, %d takeovers", rows[1], st.Elections, st.Takeovers)
				}
				return nil
			}}},
		Prose: `Consensus crash runs reproduce the baseline results with zero
elections: the log survives the leader, so recovery is a takeover's
re-proposal, not a view change.`,
	}
	return Spec{Title: fmt.Sprintf(`== CONSENSUS: sequencing-protocol bakeoff, sequencer crash at %v ==
P-1 survivors broadcast %d ops each; recovery is crash instant to the
first delivery of a post-crash submission at a survivor.`, bakeoffCrashAt, perNode), Tables: []Block{protocols, apps}}
}
