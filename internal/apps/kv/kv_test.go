package kv

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/rts"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testWorkload(seed int64) workload.Config {
	return workload.Config{
		Keys: 512, Dist: workload.Zipf, Theta: 0.99,
		ReadFrac: 0.9, UpdateFrac: 0.05, Seed: seed,
		Rate: 4000, Duration: 50 * sim.Millisecond,
	}
}

// fingerprint summarizes everything a deterministic re-run must
// reproduce: counts, virtual times, network traffic, and the full
// latency distribution.
func fingerprint(r Result) string {
	s := fmt.Sprintf("ops=%d/%d/%d/%d acked=%d lost=%d elapsed=%d msgs=%d frames=%d",
		r.Gets, r.Puts, r.Updates, r.Ops, r.AckedPuts, r.LostAcked,
		int64(r.Report.Elapsed), r.Report.Net.Messages, r.Report.Net.Frames)
	names := make([]string, 0, len(r.Report.Latency))
	for n := range r.Report.Latency {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.Report.Latency[n]
		s += fmt.Sprintf(" %s:%d/%d/%d/%d", n, h.Count(), h.Sum(), int64(h.Percentile(0.5)), int64(h.Max()))
	}
	return s
}

func TestRunCounts(t *testing.T) {
	wl := testWorkload(1)
	r := Run(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1},
		Params{Policy: PolicyMixed, Workload: wl})
	if r.Report.TimedOut {
		t.Fatalf("timed out (blocked: %v)", r.Report.Blocked)
	}
	if r.Ops == 0 || r.Ops != r.Gets+r.Puts+r.Updates {
		t.Fatalf("ops = %d, gets+puts+updates = %d", r.Ops, r.Gets+r.Puts+r.Updates)
	}
	// Each client serves its own slice of the trace; together they
	// serve exactly the per-client traces' total.
	var want int64
	for c := 0; c < 4; c++ {
		cw := wl
		cw.Rate /= 4
		cw.Seed = wl.Seed ^ int64(c+1)*0x5DEECE66D
		want += int64(len(workload.Trace(cw)))
	}
	if r.Ops != want {
		t.Fatalf("served %d ops, traces hold %d", r.Ops, want)
	}
	if r.AckedPuts != r.Puts {
		t.Fatalf("acked %d puts, issued %d (healthy run: every put completes)", r.AckedPuts, r.Puts)
	}
	if r.LostAcked != 0 {
		t.Fatalf("lost %d acknowledged writes in a healthy run", r.LostAcked)
	}
	if r.Throughput <= 0 {
		t.Fatalf("throughput = %v", r.Throughput)
	}
	for _, n := range []string{"kv.all", "kv.get", "kv.put", "kv.update"} {
		h := r.Report.Latency[n]
		if h == nil || h.Count() == 0 {
			t.Errorf("histogram %s empty", n)
		}
	}
	if all := r.Report.Latency["kv.all"]; all != nil && all.Count() != r.Ops {
		t.Errorf("kv.all holds %d samples, served %d ops", all.Count(), r.Ops)
	}
}

func TestRunDeterministic(t *testing.T) {
	for _, pol := range []Policy{PolicyReplicated, PolicyPrimary, PolicyMixed} {
		cfg := orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1}
		a := fingerprint(Run(cfg, Params{Policy: pol, Workload: testWorkload(1)}))
		b := fingerprint(Run(cfg, Params{Policy: pol, Workload: testWorkload(1)}))
		if a != b {
			t.Errorf("%v: double run differs:\n  %s\n  %s", pol, a, b)
		}
	}
}

func TestPoliciesShiftTraffic(t *testing.T) {
	// Same trace, different placement: replicated shards answer reads
	// locally and broadcast writes; primary-copy shards RPC remote
	// reads and never broadcast. The RTS counters must show it.
	cfg := orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1}
	repl := Run(cfg, Params{Policy: PolicyReplicated, Workload: testWorkload(1)})
	prim := Run(cfg, Params{Policy: PolicyPrimary, Workload: testWorkload(1)})
	if repl.Ops != prim.Ops {
		t.Fatalf("same trace served %d vs %d ops", repl.Ops, prim.Ops)
	}
	if repl.Report.RTS.BcastWrites == 0 {
		t.Errorf("replicated run did no broadcast writes")
	}
	if prim.Report.RTS.RemoteReads == 0 {
		t.Errorf("primary-copy run did no remote reads")
	}
	// Both runs broadcast the same handful of std helper-object writes
	// (barrier, liveness array); the difference between them is exactly
	// the shard writes, which only the replicated run broadcasts.
	shardWrites := repl.Puts + repl.Updates
	if repl.Report.RTS.BcastWrites-prim.Report.RTS.BcastWrites != shardWrites {
		t.Errorf("broadcast writes: replicated %d vs primary %d; want a difference of exactly %d shard writes",
			repl.Report.RTS.BcastWrites, prim.Report.RTS.BcastWrites, shardWrites)
	}
	if repl.Report.RTS.RemoteReads != 0 {
		t.Errorf("replicated run did %d remote reads, want all local", repl.Report.RTS.RemoteReads)
	}
}

func TestCrashNoLostAckedWrites(t *testing.T) {
	// A client machine dies mid-run. Replicated shards survive on
	// every other machine, so every acknowledged write — including
	// those from the dead machine's client — must still be readable at
	// its acknowledged version.
	faults := &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 3, At: 25 * sim.Millisecond}}}
	cfg := orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1, Faults: faults}
	r := Run(cfg, Params{Policy: PolicyReplicated, Workload: testWorkload(1)})
	if r.Report.TimedOut {
		t.Fatalf("crash run timed out (blocked: %v)", r.Report.Blocked)
	}
	if len(r.Report.Crashes) != 1 {
		t.Fatalf("crashes executed = %d, want 1", len(r.Report.Crashes))
	}
	if r.LostAcked != 0 {
		t.Fatalf("lost %d acknowledged writes to a client crash under replication", r.LostAcked)
	}
	// The dead machine stops serving: fewer ops than the full trace.
	full := Run(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1},
		Params{Policy: PolicyReplicated, Workload: testWorkload(1)})
	if r.Ops >= full.Ops {
		t.Errorf("crash run served %d ops, healthy run %d; want fewer", r.Ops, full.Ops)
	}
	// Crash runs are deterministic too.
	r2 := Run(cfg, Params{Policy: PolicyReplicated, Workload: testWorkload(1)})
	if fingerprint(r) != fingerprint(r2) {
		t.Errorf("crash double run differs:\n  %s\n  %s", fingerprint(r), fingerprint(r2))
	}
}

func TestClosedLoop(t *testing.T) {
	wl := workload.Config{
		Keys: 256, Dist: workload.Uniform, ReadFrac: 0.8, UpdateFrac: 0.1,
		Seed: 2, Ops: 100, Think: 100 * sim.Microsecond,
	}
	r := Run(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1},
		Params{Policy: PolicyReplicated, Workload: wl})
	if r.Report.TimedOut {
		t.Fatalf("timed out (blocked: %v)", r.Report.Blocked)
	}
	// Workload.Ops is the aggregate budget, split across clients (like
	// Rate in open loop).
	if r.Ops != 100 {
		t.Fatalf("closed loop served %d ops, want the aggregate budget of 100", r.Ops)
	}
}

func TestShardOfSpreads(t *testing.T) {
	counts := make(map[int]int)
	for k := int64(0); k < 10000; k++ {
		s := shardOf(k, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("shardOf(%d, 8) = %d", k, s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 800 || c > 1700 {
			t.Errorf("shard %d holds %d of 10000 keys: poor spread", s, c)
		}
	}
}

// TestSequencerShards: the store runs with the total order split
// across sequencer groups, serves the identical trace correctly and
// deterministically, and actually spreads its writes over more than
// one group.
func TestSequencerShards(t *testing.T) {
	wl := testWorkload(1)
	cfg := orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}
	params := Params{Policy: PolicyReplicated, SequencerShards: 4, Workload: wl}
	r := Run(cfg, params)
	if r.Report.TimedOut {
		t.Fatalf("timed out (blocked: %v)", r.Report.Blocked)
	}
	if r.LostAcked != 0 {
		t.Fatalf("lost %d acknowledged writes", r.LostAcked)
	}
	if len(r.Report.Shards) != 4 {
		t.Fatalf("Report.Shards has %d entries, want 4", len(r.Report.Shards))
	}
	busy := 0
	for _, s := range r.Report.Shards {
		if s.BcastWrites > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d sequencer groups carried writes", busy)
	}
	if fp1, fp2 := fingerprint(r), fingerprint(Run(cfg, params)); fp1 != fp2 {
		t.Fatalf("sharded run not deterministic:\n  %s\n  %s", fp1, fp2)
	}
}

// TestPolicyNeedsItsDomain: a policy whose domain the configuration
// does not build fails fast, before the first process is forked.
func TestPolicyNeedsItsDomain(t *testing.T) {
	for _, pl := range []Policy{PolicyPrimary, PolicyMixed, PolicyAdaptive} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v on a broadcast configuration without Mixed did not panic", pl)
				}
			}()
			Run(orca.Config{Processors: 2, RTS: orca.Broadcast, Seed: 1},
				Params{Policy: pl, SequencerShards: 2, Workload: testWorkload(1)})
		}()
	}
}

// affineShiftWorkload is the adaptive-placement input: every machine's
// traffic concentrates on its own key block (so every shard has a
// dominant writer), and at mid-run each block's traffic moves to the
// next machine.
func affineShiftWorkload(seed int64) workload.Config {
	return workload.Config{
		Keys: 512, Dist: workload.Uniform,
		ReadFrac: 0.5, UpdateFrac: 0.25, Seed: seed,
		Rate: 6000, Duration: 200 * sim.Millisecond,
		ShiftFrac: 0.5, Partitions: 4, LocalFrac: 0.9,
	}
}

func TestAdaptivePolicyMigratesAndKeepsWrites(t *testing.T) {
	cfg := orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1}
	params := Params{
		Policy: PolicyAdaptive, Shards: 4, AffineKeys: true,
		Adapt:    rts.AdaptConfig{SampleEvery: 32, MinDwell: 10 * sim.Millisecond},
		Workload: affineShiftWorkload(7),
	}
	r := Run(cfg, params)
	if r.Report.TimedOut {
		t.Fatalf("timed out (blocked: %v)", r.Report.Blocked)
	}
	if r.LostAcked != 0 {
		t.Fatalf("lost %d acknowledged writes across migrations", r.LostAcked)
	}
	if r.Report.RTS.Migrations == 0 {
		t.Fatal("adaptive run performed no migrations on a write-heavy affinity trace")
	}
	if len(r.Report.Placements) != params.Shards {
		t.Fatalf("report holds %d placements, want %d", len(r.Report.Placements), params.Shards)
	}
	// Migration runs must stay bit-identical.
	r2 := Run(cfg, params)
	if fingerprint(r) != fingerprint(r2) || r.Report.RTS.Migrations != r2.Report.RTS.Migrations {
		t.Errorf("adaptive double run differs:\n  %s (mig %d)\n  %s (mig %d)",
			fingerprint(r), r.Report.RTS.Migrations, fingerprint(r2), r2.Report.RTS.Migrations)
	}
}

// TestAdaptivePolicyOverSequencerShards: adaptive shards striped over
// four sequencer groups — each shard migrates between its own home
// group and the point-to-point domain, no acknowledged write is lost,
// and the run stays bit-identical.
func TestAdaptivePolicyOverSequencerShards(t *testing.T) {
	cfg := orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1}
	params := Params{
		Policy: PolicyAdaptive, Shards: 8, SequencerShards: 4, AffineKeys: true,
		Adapt:    rts.AdaptConfig{SampleEvery: 32, MinDwell: 10 * sim.Millisecond},
		Workload: affineShiftWorkload(7),
	}
	r := Run(cfg, params)
	if r.Report.TimedOut {
		t.Fatalf("timed out (blocked: %v)", r.Report.Blocked)
	}
	if r.LostAcked != 0 {
		t.Fatalf("lost %d acknowledged writes across migrations", r.LostAcked)
	}
	if r.Report.RTS.Migrations == 0 {
		t.Fatal("no migrations on a write-heavy affinity trace")
	}
	if len(r.Report.Shards) != 4 || len(r.Report.Placements) != params.Shards {
		t.Fatalf("report holds %d sequencer groups and %d placements, want 4 and %d",
			len(r.Report.Shards), len(r.Report.Placements), params.Shards)
	}
	r2 := Run(cfg, params)
	if fingerprint(r) != fingerprint(r2) || r.Report.RTS.Migrations != r2.Report.RTS.Migrations {
		t.Errorf("double run differs:\n  %s (mig %d)\n  %s (mig %d)",
			fingerprint(r), r.Report.RTS.Migrations, fingerprint(r2), r2.Report.RTS.Migrations)
	}
}

func TestPhaseAccountingSplitsAtShift(t *testing.T) {
	wl := testWorkload(3)
	wl.ShiftFrac = 0.5
	r := Run(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 2},
		Params{Policy: PolicyReplicated, Workload: wl})
	if r.PhaseOps[0] == 0 || r.PhaseOps[1] == 0 {
		t.Fatalf("phase ops = %v, want both phases populated", r.PhaseOps)
	}
	if r.PhaseOps[0]+r.PhaseOps[1] != r.Ops {
		t.Fatalf("phase ops %v sum to %d, served %d", r.PhaseOps, r.PhaseOps[0]+r.PhaseOps[1], r.Ops)
	}
	for ph := 0; ph < 2; ph++ {
		if r.PhaseThroughput[ph] <= 0 || r.PhaseP99US[ph] <= 0 || r.PhaseP50US[ph] > r.PhaseP99US[ph] {
			t.Errorf("phase %d: throughput=%v p50=%v p99=%v", ph, r.PhaseThroughput[ph], r.PhaseP50US[ph], r.PhaseP99US[ph])
		}
	}
	// A shift-free run lands everything in phase 0.
	plain := Run(orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 2},
		Params{Policy: PolicyReplicated, Workload: testWorkload(3)})
	if plain.PhaseOps[1] != 0 || plain.PhaseOps[0] != plain.Ops {
		t.Errorf("shift-free run phase ops = %v, want all %d in phase 0", plain.PhaseOps, plain.Ops)
	}
}

func TestShardOfAffineBlocks(t *testing.T) {
	const keys, shards = 512, 4
	for k := int64(0); k < keys; k++ {
		want := int(k / (keys / shards))
		if got := shardOfAffine(k, keys, shards); got != want {
			t.Fatalf("key %d -> shard %d, want %d", k, got, want)
		}
	}
}

func TestAdaptiveCrashNoLostAckedWrites(t *testing.T) {
	// A machine dies while the adaptive controller is re-placing shards
	// under it. The crash lands before the dead machine's home shard
	// finishes migrating to a primary copy there, so every acknowledged
	// write still lives in a replicated instance or at a surviving
	// primary: the audit must find zero lost acked writes, while the
	// other shards keep migrating around the hole.
	faults := &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 3, At: 10 * sim.Millisecond}}}
	cfg := orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 1, Faults: faults}
	params := Params{
		Policy: PolicyAdaptive, Shards: 4, AffineKeys: true,
		Adapt:    rts.AdaptConfig{SampleEvery: 32, MinDwell: 10 * sim.Millisecond},
		Workload: affineShiftWorkload(7),
	}
	r := Run(cfg, params)
	if r.Report.TimedOut {
		t.Fatalf("timed out (blocked: %v)", r.Report.Blocked)
	}
	if len(r.Report.Crashes) != 1 || r.Report.Crashes[0].Node != 3 {
		t.Fatalf("crashes executed = %+v, want node 3", r.Report.Crashes)
	}
	if r.LostAcked != 0 {
		t.Fatalf("lost %d acknowledged writes to a crash during adaptive migration", r.LostAcked)
	}
	if r.Report.RTS.Migrations == 0 {
		t.Fatal("no migrations: the crash should not stop the surviving shards from re-placing")
	}
	r2 := Run(cfg, params)
	if fingerprint(r) != fingerprint(r2) || r.Report.RTS.Migrations != r2.Report.RTS.Migrations {
		t.Errorf("adaptive crash double run differs:\n  %s (mig %d)\n  %s (mig %d)",
			fingerprint(r), r.Report.RTS.Migrations, fingerprint(r2), r2.Report.RTS.Migrations)
	}
}
