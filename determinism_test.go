package repro

// Cross-app determinism regression tests. Every simulation is a pure
// function of its seed: running the same program twice must produce
// bit-identical virtual times and runtime counters. These tests guard
// the scheduler's (time, seq) total order — a refactor that silently
// perturbs event ordering shows up here as a fingerprint mismatch long
// before anyone notices a skewed speedup curve.
//
// The pinned fingerprints below were recorded before the fast-path
// scheduler rework (ready queue, event pool, cached op dispatch), so
// they also prove that rework preserves virtual-time results exactly.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/apps/acp"
	"repro/internal/apps/atpg"
	"repro/internal/apps/chess"
	"repro/internal/apps/kv"
	"repro/internal/apps/tsp"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/rts"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fingerprint summarizes one run: virtual elapsed time, wire traffic,
// and the runtime counters that depend on event ordering. Crash runs
// additionally pin their crash records: a drifting crash instant or
// kill count is an ordering change like any other.
func fingerprint(rep orca.Report, rt *orca.Runtime) string {
	s := fmt.Sprintf("elapsed=%d frames=%d msgs=%d wire=%d payload=%d",
		int64(rep.Elapsed), rep.Net.Frames, rep.Net.Messages, rep.Net.WireBytes, rep.Net.PayloadBytes)
	for _, c := range rep.Crashes {
		s += fmt.Sprintf(" crash=%d@%d/%d", c.Node, int64(c.At), c.ProcsKilled)
	}
	// The counter block depends on which domains the run built: one
	// sequencer group alone, a group plus the point-to-point domain, or
	// neither block (pure point-to-point and sharded runs).
	sys := rt.System()
	if sys.Groups() == 1 && sys.P2P() == nil {
		br := sys.Group(0)
		lr, bw, gw := br.Stats()
		s += fmt.Sprintf(" reads=%d writes=%d guardwaits=%d", lr, bw, gw)
		if c := br.Counters(); c.BatchedOps > 0 {
			// Batched runs pin their combining-pipeline counters too;
			// unbatched runs keep the exact historical format.
			s += fmt.Sprintf(" batched=%d bframes=%d", c.BatchedOps, c.Frames)
		}
	}
	if sys.Groups() > 0 && sys.P2P() != nil {
		c := sys.Counters()
		s += fmt.Sprintf(" reads=%d bwrites=%d guardwaits=%d rreads=%d pwrites=%d updates=%d",
			c.LocalReads, c.BcastWrites, c.GuardWaits, c.RemoteReads, c.P2PWrites, c.Updates)
	}
	for _, busy := range rep.CPUBusy {
		s += fmt.Sprintf(" cpu=%d", int64(busy))
	}
	if len(rep.Latency) > 0 {
		// Serving runs pin their full latency accounting: sample count,
		// virtual-time sum, and tail. Rendered in sorted name order —
		// appended after the historical fields so apps without
		// histograms keep their exact golden strings.
		names := make([]string, 0, len(rep.Latency))
		for n := range rep.Latency {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h := rep.Latency[n]
			s += fmt.Sprintf(" %s=%d/%d/%d/%d", n, h.Count(), h.Sum(),
				int64(h.Percentile(0.99)), int64(h.Max()))
		}
	}
	return s
}

// apps is the cross-app determinism matrix: each entry runs a reduced
// instance of one paper application on 4 processors, seed 1.
var determinismApps = []struct {
	name string
	run  func() string
}{
	{"tsp", func() string {
		inst := tsp.Generate(10, 5)
		r := tsp.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}, inst, tsp.Params{})
		return fingerprint(r.Report, r.Runtime)
	}},
	{"tsp-p2p", func() string {
		inst := tsp.Generate(10, 5)
		r := tsp.RunOrca(orca.Config{Processors: 4, RTS: orca.P2PUpdate, Seed: 1}, inst, tsp.Params{})
		return fingerprint(r.Report, r.Runtime)
	}},
	{"tsp-mixed", func() string {
		inst := tsp.Generate(10, 5)
		r := tsp.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1}, inst,
			tsp.Params{PrimaryCopyQueue: true})
		return fingerprint(r.Report, r.Runtime)
	}},
	{"tsp-batched", func() string {
		// TSP under the batching pipeline (sequencer frame packing +
		// write combining): virtual timings legitimately differ from
		// the unbatched run, so the variant pins its own golden. The
		// optimum must match the unbatched run's — the scale harness
		// asserts that; this test pins the full schedule.
		inst := tsp.Generate(10, 5)
		r := tsp.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1,
			Batching: orca.DefaultBatching()}, inst, tsp.Params{})
		return fingerprint(r.Report, r.Runtime)
	}},
	{"tsp-crash", func() string {
		// Fault-tolerant TSP losing the worker-and-sequencer machine
		// mid-search: elections, job requeueing, and the recovery paths
		// of every layer are all under this fingerprint.
		inst := tsp.Generate(10, 5)
		r := tsp.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1, Sequencer: 3,
			Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 3, At: 150 * sim.Millisecond}}}},
			inst, tsp.Params{FaultTolerant: true})
		return fingerprint(r.Report, r.Runtime)
	}},
	{"tsp-consensus-crash", func() string {
		// The same crash schedule under consensus sequencing: the
		// takeover ladder, quorum re-proposal, and noop filling replace
		// the election, and the whole recovery must replay bit-identically.
		inst := tsp.Generate(10, 5)
		r := tsp.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1, Sequencer: 3,
			Protocol: group.Consensus,
			Faults:   &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 3, At: 150 * sim.Millisecond}}}},
			inst, tsp.Params{FaultTolerant: true})
		return fingerprint(r.Report, r.Runtime)
	}},
	{"acp", func() string {
		inst := acp.GeneratePropagation(16, 16, 12, 2)
		r := acp.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}, inst, acp.Params{})
		return fingerprint(r.Report, r.Runtime)
	}},
	{"acp-crash", func() string {
		// Fault-tolerant ACP losing a participant: retirement, orphan
		// claiming, and supervised termination under one fingerprint.
		inst := acp.GeneratePropagation(16, 16, 12, 2)
		r := acp.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1,
			Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 2, At: 120 * sim.Millisecond}}}},
			inst, acp.Params{FaultTolerant: true})
		return fingerprint(r.Report, r.Runtime)
	}},
	{"chess", func() string {
		board, err := chess.FromFEN("r1bq1rk1/pp1n1ppp/2pbpn2/3p4/2PP4/2NBPN2/PP3PPP/R1BQ1RK1 w - - 0 1")
		if err != nil {
			panic(err)
		}
		r := chess.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1},
			board, chess.Params{MaxDepth: 3, SharedTT: true, SharedKiller: true})
		return fingerprint(r.Report, r.Runtime)
	}},
	{"atpg", func() string {
		c := atpg.Generate(12, 5, 20, 42)
		r := atpg.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1},
			c, atpg.AllFaults(c), atpg.Params{Mode: atpg.StaticFaultSim})
		return fingerprint(r.Report, r.Runtime)
	}},
	{"kv", func() string {
		// The serving store: open-loop Zipf traffic against mixed-policy
		// shards. The fingerprint additionally pins the full latency
		// histograms — count, virtual sum, p99, max per op class.
		r := kv.Run(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1},
			kv.Params{Policy: kv.PolicyMixed, Workload: workload.Config{
				Keys: 512, Dist: workload.Zipf, Theta: 0.99,
				ReadFrac: 0.9, UpdateFrac: 0.05, Seed: 1,
				Rate: 4000, Duration: 50 * sim.Millisecond,
			}})
		return fmt.Sprintf("ops=%d acked=%d lost=%d ", r.Ops, r.AckedPuts, r.LostAcked) +
			fingerprint(r.Report, r.Runtime)
	}},
	{"kv-adaptive", func() string {
		// The adaptive placement controller on the phase-shift affinity
		// trace: shards migrate broadcast->primary mid-run and re-home
		// when the write traffic rotates. The migration count rides in
		// the fingerprint next to the usual schedule and histograms.
		r := kv.Run(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1},
			kv.Params{Policy: kv.PolicyAdaptive, Shards: 4, AffineKeys: true,
				Adapt: rts.AdaptConfig{SampleEvery: 32, MinDwell: 10 * sim.Millisecond},
				Workload: workload.Config{
					Keys: 512, Dist: workload.Uniform,
					ReadFrac: 0.5, UpdateFrac: 0.25, Seed: 7,
					Rate: 6000, Duration: 200 * sim.Millisecond,
					ShiftFrac: 0.5, Partitions: 4, LocalFrac: 0.9,
				}})
		return fmt.Sprintf("ops=%d acked=%d lost=%d mig=%d ", r.Ops, r.AckedPuts, r.LostAcked, r.Report.RTS.Migrations) +
			fingerprint(r.Report, r.Runtime)
	}},
	{"kv-crash", func() string {
		// The serving store losing a client machine mid-run, replicated
		// shards: the audit must find every acknowledged write, and the
		// whole schedule (including the crash) must replay bit-identically.
		r := kv.Run(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1,
			Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 3, At: 25 * sim.Millisecond}}}},
			kv.Params{Policy: kv.PolicyReplicated, Workload: workload.Config{
				Keys: 512, Dist: workload.Zipf, Theta: 0.99,
				ReadFrac: 0.9, UpdateFrac: 0.05, Seed: 1,
				Rate: 4000, Duration: 50 * sim.Millisecond,
			}})
		return fmt.Sprintf("ops=%d acked=%d lost=%d ", r.Ops, r.AckedPuts, r.LostAcked) +
			fingerprint(r.Report, r.Runtime)
	}},
}

// TestCrossAppDeterminism runs each application twice with the same
// seed and requires identical fingerprints.
func TestCrossAppDeterminism(t *testing.T) {
	for _, app := range determinismApps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			a, b := app.run(), app.run()
			if a != b {
				t.Fatalf("same seed, different runs:\n  first:  %s\n  second: %s", a, b)
			}
			t.Logf("fingerprint: %s", a)
		})
	}
}

// goldenFingerprints pins the exact pre-refactor virtual-time results
// (tsp-mixed: as recorded when the mixed runtime was introduced). A
// mismatch means the scheduler or runtime changed the simulated
// outcome, not just its wall-clock cost. Update these only with a
// change that is *meant* to alter simulated timing, and say so in the
// commit message.
var goldenFingerprints = map[string]string{
	"tsp-batched":         "elapsed=306115400 frames=203 msgs=203 wire=43248 payload=34722 reads=36630 writes=111 guardwaits=3 batched=103 bframes=26 cpu=304238000 cpu=246272000 cpu=246556000 cpu=247192000",
	"tsp-consensus-crash": "elapsed=1980147200 frames=973 msgs=973 wire=107714 payload=66848 crash=3@150000000/1 reads=36683 writes=310 guardwaits=0 cpu=488382000 cpu=401386000 cpu=424276000 cpu=1922636600",
	"tsp-crash":           "elapsed=2170459800 frames=528 msgs=528 wire=78977 payload=56801 crash=3@150000000/1 reads=36684 writes=310 guardwaits=0 cpu=425614000 cpu=327868000 cpu=328374000 cpu=2141755600",
	"acp-crash":           "elapsed=302651400 frames=826 msgs=826 wire=107269 payload=72577 crash=2@120000000/1 reads=993 writes=402 guardwaits=0 cpu=169739000 cpu=192209000 cpu=268015400 cpu=195733800",
	"tsp-p2p":             "elapsed=309479400 frames=254 msgs=254 wire=34536 payload=23868 cpu=305882000 cpu=234152000 cpu=233448000 cpu=234660000",
	"tsp-mixed":           "elapsed=317604000 frames=157 msgs=157 wire=25941 payload=19347 reads=36616 bwrites=12 guardwaits=8 rreads=0 pwrites=201 updates=0 cpu=317009000 cpu=222118000 cpu=219396000 cpu=215382000",
	"tsp":                 "elapsed=324031600 frames=315 msgs=315 wire=48906 payload=35676 reads=36628 writes=213 guardwaits=2 cpu=323777000 cpu=271226000 cpu=268632000 cpu=266272000",
	"acp":                 "elapsed=279995800 frames=913 msgs=913 wire=116504 payload=78158 reads=983 writes=441 guardwaits=3 cpu=187486000 cpu=187704400 cpu=185154000 cpu=188186000",
	"chess":               "elapsed=1958225600 frames=847 msgs=847 wire=82539 payload=46965 reads=931 writes=516 guardwaits=87 cpu=1537858000 cpu=1090096000 cpu=1094636000 cpu=1464496000",
	"atpg":                "elapsed=69011200 frames=82 msgs=82 wire=15233 payload=11789 reads=5358 writes=43 guardwaits=4 cpu=48903000 cpu=49534000 cpu=56598000 cpu=40530000",
	"kv":                  "ops=208 acked=9 lost=0 elapsed=83656200 frames=228 msgs=228 wire=21297 payload=11721 reads=118 bwrites=20 guardwaits=4 rreads=83 pwrites=10 updates=0 cpu=22485000 cpu=38680000 cpu=19740000 cpu=31860000 kv.all=208/327430733/5767167/6376104 kv.get=186/290239671/5767167/6376104 kv.put=9/11467954/2630741/2630741 kv.update=13/25723108/4296403/4296403",
	"kv-adaptive":         "ops=1201 acked=316 lost=0 mig=8 elapsed=430296246 frames=901 msgs=901 wire=84479 payload=46637 reads=579 bwrites=76 guardwaits=4 rreads=278 pwrites=532 updates=0 cpu=147070000 cpu=102865000 cpu=97335000 cpu=91545000 kv.all=1201/2674052400/17825791/21321934 kv.get=603/1295845426/17825791/21321934 kv.put=316/685116982/15728639/18560386 kv.update=282/693089992/17825791/21107934",
	"kv-crash":            "ops=172 acked=6 lost=0 elapsed=81301295 frames=62 msgs=62 wire=6210 payload=3606 crash=3@25000000/1 reads=169 bwrites=24 guardwaits=4 rreads=0 pwrites=0 updates=0 cpu=13295000 cpu=11540000 cpu=11150000 cpu=7230000 kv.all=172/24418859/1835007/2113896 kv.get=155/10057938/950271/1810602 kv.put=6/3894539/1078000/1078000 kv.update=11/10466382/2113896/2113896",
}

// TestGoldenFingerprints compares each app's fingerprint against the
// pinned pre-refactor value.
func TestGoldenFingerprints(t *testing.T) {
	for _, app := range determinismApps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			want := goldenFingerprints[app.name]
			if want == "" {
				t.Skip("no golden fingerprint recorded")
			}
			if got := app.run(); got != want {
				t.Fatalf("fingerprint drifted from pre-refactor golden:\n  got:  %s\n  want: %s", got, want)
			}
		})
	}
}
