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
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/amoeba"
	"repro/internal/apps/acp"
	"repro/internal/apps/atpg"
	"repro/internal/apps/chess"
	"repro/internal/apps/kv"
	"repro/internal/apps/tsp"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
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
		c := sys.Group(0).Counters()
		s += fmt.Sprintf(" reads=%d writes=%d guardwaits=%d", c.LocalReads, c.BcastWrites, c.GuardWaits)
		if c.BatchedOps > 0 {
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

// trackedFingerprint renders the figures the larger tracked
// configurations are quoted by in EXPERIMENTS.md: virtual seconds, wire
// traffic, and the unified runtime counters as their JSON block (zero
// counters omitted). Per-CPU busy times are left out — these runs go
// up to 128 machines.
func trackedFingerprint(rep orca.Report) string {
	return fmt.Sprintf("virtual_s=%v frames=%d msgs=%d wire=%d rts=%s",
		rep.Elapsed.Seconds(), rep.Net.Frames, rep.Net.Messages, rep.Net.WireBytes, countersJSON(rep.RTS))
}

// countersJSON renders the non-zero runtime counters.
func countersJSON(st rts.RTSStats) []byte {
	b, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return b
}

// trackedTSP runs the 12-city instance of the tracked TSP entries.
func trackedTSP(cfg orca.Config, params tsp.Params) orca.Report {
	r := tsp.RunOrca(cfg, tsp.Generate(12, 5), params)
	if r.Report.TimedOut {
		panic(fmt.Sprintf("tracked TSP run timed out (blocked: %v)", r.Report.Blocked))
	}
	return r.Report
}

// trackedKV runs one serving configuration and appends the kv.all
// virtual-latency percentiles (µs) to its fingerprint.
func trackedKV(cfg orca.Config, params kv.Params) string {
	r := kv.Run(cfg, params)
	all := r.Report.Latency["kv.all"]
	return fmt.Sprintf("%s kv.all=%v/%v/%v", trackedFingerprint(r.Report),
		all.Percentile(0.50).Microseconds(), all.Percentile(0.95).Microseconds(),
		all.Percentile(0.99).Microseconds())
}

// trackedZipf is the read-heavy Zipf(0.99) trace of the P=8 serving
// entries: replicated vs primary-copy shards see the identical trace.
var trackedZipf = workload.Config{
	Keys: 2048, Dist: workload.Zipf, Theta: 0.99,
	ReadFrac: 0.95, UpdateFrac: 0.02, Seed: 1,
	Rate: 16000, Duration: 100 * sim.Millisecond,
}

// trackedOrcaOp streams n operations on one counter from the main
// process of a 4-processor broadcast runtime and pins the mean virtual
// cost per operation next to the runtime counters.
func trackedOrcaOp(n int64, batching *group.BatchConfig, op func(p *orca.Proc, c std.Counter, i int64)) string {
	rt := orca.New(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1, Batching: batching}, std.Register)
	var per sim.Time
	rt.Run(func(p *orca.Proc) {
		c := std.NewCounter(p, 0)
		start := p.Now()
		for i := int64(0); i < n; i++ {
			op(p, c, i)
		}
		per = (p.Now() - start) / sim.Time(n)
	})
	return fmt.Sprintf("virtual_us_per_op=%v rts=%s", per.Microseconds(), countersJSON(rt.Stats()))
}

// apps is the cross-app determinism matrix: each entry up to
// kv-crash runs a reduced instance of one paper application on 4
// processors, seed 1; the entries after it are the larger tracked
// configurations (P=8..128).
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
	{"orca-local-read", func() string {
		return trackedOrcaOp(2_000_000, nil,
			func(p *orca.Proc, c std.Counter, _ int64) { c.Value(p) })
	}},
	{"orca-broadcast-write", func() string {
		return trackedOrcaOp(100_000, nil,
			func(p *orca.Proc, c std.Counter, i int64) { c.Assign(p, int(i)) })
	}},
	{"orca-bcast-write-batched", func() string {
		// The same op stream through the combining buffer: batching
		// changes virtual timing by design, so it pins its own figure.
		return trackedOrcaOp(100_000, orca.DefaultBatching(),
			func(p *orca.Proc, c std.Counter, i int64) { c.Assign(p, int(i)) })
	}},
	{"fig2-tsp-p8", func() string {
		return trackedFingerprint(trackedTSP(orca.Config{Processors: 8, RTS: orca.Broadcast, Seed: 1}, tsp.Params{}))
	}},
	{"mixed-tsp-p8", func() string {
		// Primary-copy job queue on the point-to-point runtime,
		// broadcast-replicated bound: the counters prove both carried
		// traffic.
		return trackedFingerprint(trackedTSP(orca.Config{Processors: 8, RTS: orca.Broadcast, Mixed: true, Seed: 1},
			tsp.Params{PrimaryCopyQueue: true}))
	}},
	{"scale-tsp-p32", func() string {
		// Large-P batched TSP: the counters record the batched-op/frame
		// amortization.
		return trackedFingerprint(trackedTSP(orca.Config{Processors: 32, RTS: orca.Broadcast, Seed: 1,
			Batching: orca.DefaultBatching()}, tsp.Params{}))
	}},
	{"consensus-tsp-p32", func() string {
		// The same run through the consensus-replicated log: the
		// steady-state overhead of quorum sequencing.
		return trackedFingerprint(trackedTSP(orca.Config{Processors: 32, RTS: orca.Broadcast, Seed: 1,
			Batching: orca.DefaultBatching(), Protocol: group.Consensus}, tsp.Params{}))
	}},
	{"consensus-tsp-crash-p8", func() string {
		// The leader machine dies mid-search and the survivors take over
		// without an election; recovery_virtual_us in the counter block
		// is the recovery watermark (suspicion to the next delivery).
		return trackedFingerprint(trackedTSP(orca.Config{Processors: 8, RTS: orca.Broadcast, Seed: 1,
			Protocol: group.Consensus, Sequencer: 7,
			Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 7, At: 150 * sim.Millisecond}}}},
			tsp.Params{FaultTolerant: true}))
	}},
	{"kv-zipf-p8-repl", func() string {
		return trackedKV(orca.Config{Processors: 8, RTS: orca.Broadcast, Mixed: true, Seed: 1},
			kv.Params{Policy: kv.PolicyReplicated, Workload: trackedZipf})
	}},
	{"kv-zipf-p8-primary", func() string {
		return trackedKV(orca.Config{Processors: 8, RTS: orca.Broadcast, Mixed: true, Seed: 1},
			kv.Params{Policy: kv.PolicyPrimary, Workload: trackedZipf})
	}},
	{"adapt-kv-shift-p32", func() string {
		// Adaptive placement at scale: the phase-shift affinity trace on
		// 32 processors, every shard under the online controller. The
		// counter block pins the migration count and virtual migration
		// cost next to the percentiles.
		const p = 32
		return trackedKV(orca.Config{Processors: p, RTS: orca.Broadcast, Mixed: true, Seed: 1},
			kv.Params{Policy: kv.PolicyAdaptive, Shards: p, AffineKeys: true,
				Adapt: rts.AdaptConfig{SampleEvery: 16, MinDwell: 10 * sim.Millisecond},
				Workload: workload.Config{
					Keys: 4096, Dist: workload.Uniform,
					ReadFrac: 0.5, UpdateFrac: 0.25, Seed: 1,
					Rate: 200 * p, Duration: 200 * sim.Millisecond,
					ShiftFrac: 0.5, Partitions: p, LocalFrac: 0.9,
				}})
	}},
	{"shard-counter-p128-s16", func() string {
		// Sharded total order: every machine streams 100 assigns to a
		// counter homed in its own shard's domain, 16 sequencer groups
		// over 128 machines on the modern cost profile (1 Gb/s wire,
		// microsecond kernel paths).
		const p, shards, opsPer = 128, 16, 100
		const span = p / shards
		net := netsim.Params{
			BandwidthBps: 1_000_000_000, PropDelay: 5 * sim.Microsecond,
			FrameOverhead: 42, MTU: 1500, BroadcastCapable: true,
		}
		kern := amoeba.DefaultCosts()
		kern.Interrupt, kern.Protocol = 5*sim.Microsecond, 3*sim.Microsecond
		kern.Send, kern.Switch = 6*sim.Microsecond, 2*sim.Microsecond
		rt := orca.New(orca.Config{Processors: p, RTS: orca.Broadcast, Seed: 1,
			Shards: shards, ShardSpan: span,
			Net: &net, KernelCosts: &kern, Batching: orca.DefaultBatching()}, std.Register)
		rep := rt.Run(func(pr *orca.Proc) {
			fin := std.NewBarrier(pr, p)
			for cpu := 0; cpu < p; cpu++ {
				cpu := cpu
				pr.Fork(cpu, "tracked-shard-w", func(wp *orca.Proc) {
					c := std.NewCounter(wp, 0, orca.OnShard(cpu/span))
					for i := 0; i < opsPer; i++ {
						c.Assign(wp, i)
					}
					fin.Arrive(wp)
				})
			}
			fin.Wait(pr)
		})
		return trackedFingerprint(rep)
	}},
	{"shard-tsp-p64-s8", func() string {
		// The hash-spread sharded TSP run (internal/apps/tsp/shard_test.go
		// pins P=8 with 4 shards; this is the P=64 benchmark workload).
		return trackedFingerprint(trackedTSP(orca.Config{Processors: 64, RTS: orca.Broadcast, Seed: 1,
			Shards: 8, Batching: orca.DefaultBatching()}, tsp.Params{}))
	}},
}

// slowApps are the cases -short skips (each takes over a quarter of a
// second per run, and every case runs three times across the two tests).
var slowApps = map[string]bool{
	"orca-broadcast-write":     true,
	"orca-bcast-write-batched": true,
	"shard-tsp-p64-s8":         true,
}

// TestCrossAppDeterminism runs each application twice with the same
// seed and requires identical fingerprints.
func TestCrossAppDeterminism(t *testing.T) {
	for _, app := range determinismApps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			if testing.Short() && slowApps[app.name] {
				t.Skip("slow case skipped under -short")
			}
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

	// The larger tracked configurations: the figures EXPERIMENTS.md
	// quotes for them (virtual seconds, percentiles, recovery, counters).
	"orca-local-read":          `virtual_us_per_op=10.007 rts={"local_reads":2000000}`,
	"orca-broadcast-write":     `virtual_us_per_op=208.975 rts={"bcast_writes":100000}`,
	"orca-bcast-write-batched": `virtual_us_per_op=31.649 rts={"batched_ops":100000,"batch_frames":6250}`,
	"fig2-tsp-p8":              `virtual_s=0.8889326 frames=662 msgs=662 wire=99152 rts={"local_reads":227649,"bcast_writes":412,"guard_waits":4}`,
	"mixed-tsp-p8":             `virtual_s=0.8513356 frames=380 msgs=380 wire=64612 rts={"local_reads":227497,"bcast_writes":19,"guard_waits":16,"p2p_writes":393}`,
	"scale-tsp-p32":            `virtual_s=0.4176602 frames=533 msgs=533 wire=109586 rts={"local_reads":220118,"bcast_writes":341,"guard_waits":5,"batched_ops":305,"batch_frames":77}`,
	"consensus-tsp-p32":        `virtual_s=1.443169 frames=4791 msgs=4788 wire=400258 rts={"local_reads":257795,"bcast_writes":342,"guard_waits":6,"batched_ops":305,"batch_frames":77,"reproposals":258}`,
	"consensus-tsp-crash-p8":   `virtual_s=3.1290504 frames=3365 msgs=3365 wire=303905 rts={"local_reads":223369,"bcast_writes":604,"crashes":1,"takeovers":1,"reproposals":76,"recovery_virtual_us":3487.2}`,
	"kv-zipf-p8-repl":          `virtual_s=0.138153653 frames=227 msgs=227 wire=22876 rts={"local_reads":1627,"bcast_writes":93,"guard_waits":7} kv.all=10.239/1114.111/1703.935`,
	"kv-zipf-p8-primary":       `virtual_s=0.364315 frames=3007 msgs=3007 wire=275631 rts={"local_reads":216,"bcast_writes":16,"guard_waits":7,"remote_reads":1418,"p2p_writes":77} kv.all=100663.295/192937.983/209715.199`,
	"adapt-kv-shift-p32":       `virtual_s=0.599048 frames=2553 msgs=2553 wire=237168 rts={"local_reads":580,"bcast_writes":409,"guard_waits":28,"remote_reads":443,"p2p_writes":299,"migrations":50,"migration_virtual_us":347142.4} kv.all=28311.551/75497.471/96468.991`,
	"shard-counter-p128-s16":   `virtual_s=0.036159552 frames=2221 msgs=2221 wire=1270923 rts={"local_reads":1,"bcast_writes":128,"guard_waits":49,"forwarded":120,"batched_ops":12800,"batch_frames":896}`,
	"shard-tsp-p64-s8":         `virtual_s=0.5102092 frames=941 msgs=941 wire=264717 rts={"local_reads":219722,"bcast_writes":512,"guard_waits":7,"batched_ops":444,"batch_frames":112}`,
}

// TestGoldenFingerprints compares each app's fingerprint against the
// pinned pre-refactor value.
func TestGoldenFingerprints(t *testing.T) {
	for _, app := range determinismApps {
		app := app
		t.Run(app.name, func(t *testing.T) {
			if testing.Short() && slowApps[app.name] {
				t.Skip("slow case skipped under -short")
			}
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
