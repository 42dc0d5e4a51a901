package harness

import (
	"fmt"
	"io"

	"repro/internal/apps/kv"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/sim"
	"repro/internal/workload"
)

// KVExperiment measures the serving workload: a sharded KV/session
// store under open-loop Zipf traffic (see DESIGN.md, "Serving
// workloads and latency accounting"). Three sweeps:
//
//   - processor sweep: read-heavy Zipf(0.99) traffic at a fixed
//     per-processor arrival rate, P=8..64, across placement policies
//     (replicated / primary-copy / mixed) — throughput scale-out and
//     the latency price of each strategy on identical traces.
//   - skew sweep: uniform vs increasingly skewed keys at fixed P,
//     plus a phase-shift run whose hot set rotates mid-run — the
//     adversarial input for the adaptive-placement work the ROADMAP
//     queues.
//   - crash: a client machine dies mid-run; the survivors keep
//     serving and the audit must find every acknowledged write.
//
// Every configuration runs twice and the harness panics if the two
// fingerprints differ (traces are seeded, the simulation is
// deterministic), if a run times out, or if an acknowledged write is
// lost.
func KVExperiment(w io.Writer, scale Scale) {
	procs := []int{8, 16, 32, 64}
	keys := int64(8192)
	dur := 200 * sim.Millisecond
	ratePerProc := 2000.0
	skewP := 16
	crashP := 8
	if scale == Quick {
		procs = []int{8}
		keys = 2048
		dur = 80 * sim.Millisecond
		skewP = 8
		crashP = 4
	}

	base := func(p int) workload.Config {
		return workload.Config{
			Keys: keys, Dist: workload.Zipf, Theta: 0.99,
			ReadFrac: 0.95, UpdateFrac: 0.02, Seed: 1,
			Rate: ratePerProc * float64(p), Duration: dur,
		}
	}

	// run executes one configuration twice, panicking on a
	// fingerprint mismatch, a timeout, or (unless expectLoss) a lost
	// acknowledged write.
	run := func(name string, cfg orca.Config, params kv.Params, expectLoss bool) kv.Result {
		r := twice("kv "+name, func() (kv.Result, string) {
			r := kv.Run(cfg, params)
			mustFinish("kv "+name, r.Report)
			all := r.Report.Latency["kv.all"]
			return r, fmt.Sprintf("ops=%d elapsed=%d msgs=%d p50=%d p99=%d lost=%d",
				r.Ops, int64(r.Report.Elapsed), r.Report.Net.Messages,
				int64(all.Percentile(0.50)), int64(all.Percentile(0.99)), r.LostAcked)
		})
		if r.LostAcked > 0 && !expectLoss {
			panic(fmt.Sprintf("harness: kv %s lost %d acknowledged writes", name, r.LostAcked))
		}
		return r
	}

	lat := func(r kv.Result, hist string, q float64) string {
		h := r.Report.Latency[hist]
		if h == nil || h.Count() == 0 {
			return "-"
		}
		return h.Percentile(q).String()
	}

	fmt.Fprintf(w, "== KV: sharded serving store, open-loop Zipf(0.99) %.0f ops/s per processor, %d keys ==\n",
		ratePerProc, keys)
	fmt.Fprintln(w, "-- processor sweep, read-heavy (95/3/2 get/put/update), per-shard placement policies --")
	policies := []kv.Policy{kv.PolicyReplicated, kv.PolicyPrimary, kv.PolicyMixed}
	var rows [][]string
	seqShards := 4
	for _, p := range procs {
		for _, pol := range policies {
			cfg := orca.Config{Processors: p, RTS: orca.Broadcast, Mixed: true, Seed: 1}
			params := kv.Params{Policy: pol, Workload: base(p)}
			r := run(fmt.Sprintf("p%d/%s", p, pol), cfg, params, false)
			st := r.Report.RTS
			rows = append(rows, []string{
				fmt.Sprint(p), pol.String(), fmt.Sprint(r.Ops),
				fmt.Sprintf("%.0f", r.Throughput),
				lat(r, "kv.get", 0.50), lat(r, "kv.get", 0.95), lat(r, "kv.get", 0.99),
				lat(r, "kv.put", 0.99),
				fmt.Sprint(st.BcastWrites), fmt.Sprint(st.RemoteReads + st.P2PWrites),
				fmt.Sprint(r.Report.Net.Frames),
			})
		}
		// Sequencer-sharded row: replicated placement with the total
		// order split across independent sequencer groups, store
		// shards striped onto them — same trace as the rows above.
		{
			cfg := orca.Config{Processors: p, RTS: orca.Broadcast, Seed: 1}
			params := kv.Params{Policy: kv.PolicyReplicated, SequencerShards: seqShards, Workload: base(p)}
			name := fmt.Sprintf("replicated-s%d", seqShards)
			r := run(fmt.Sprintf("p%d/%s", p, name), cfg, params, false)
			st := r.Report.RTS
			rows = append(rows, []string{
				fmt.Sprint(p), name, fmt.Sprint(r.Ops),
				fmt.Sprintf("%.0f", r.Throughput),
				lat(r, "kv.get", 0.50), lat(r, "kv.get", 0.95), lat(r, "kv.get", 0.99),
				lat(r, "kv.put", 0.99),
				fmt.Sprint(st.BcastWrites), fmt.Sprint(st.RemoteReads + st.P2PWrites),
				fmt.Sprint(r.Report.Net.Frames),
			})
		}
	}
	Table(w, []string{"procs", "policy", "ops", "ops/s", "get p50", "get p95", "get p99",
		"put p99", "bwrites", "p2p ops", "frames"}, rows)
	fmt.Fprintln(w)

	fmt.Fprintf(w, "-- skew sweep at P=%d: key distribution vs latency (replicated vs primary) --\n", skewP)
	type skewCase struct {
		name string
		mod  func(*workload.Config)
	}
	cases := []skewCase{
		{"uniform", func(c *workload.Config) { c.Dist = workload.Uniform }},
		{"zipf-0.60", func(c *workload.Config) { c.Theta = 0.60 }},
		{"zipf-0.99", func(c *workload.Config) {}},
		{"zipf-0.99+shift", func(c *workload.Config) { c.ShiftFrac = 0.5 }},
	}
	rows = rows[:0]
	for _, sc := range cases {
		for _, pol := range []kv.Policy{kv.PolicyReplicated, kv.PolicyPrimary} {
			wl := base(skewP)
			sc.mod(&wl)
			cfg := orca.Config{Processors: skewP, RTS: orca.Broadcast, Mixed: true, Seed: 1}
			r := run(fmt.Sprintf("%s/%s", sc.name, pol), cfg, kv.Params{Policy: pol, Workload: wl}, false)
			rows = append(rows, []string{
				sc.name, pol.String(), fmt.Sprint(r.Ops), fmt.Sprintf("%.0f", r.Throughput),
				lat(r, "kv.get", 0.50), lat(r, "kv.get", 0.99), lat(r, "kv.put", 0.99),
				fmt.Sprint(r.Report.Net.Frames),
			})
		}
	}
	Table(w, []string{"keys", "policy", "ops", "ops/s", "get p50", "get p99", "put p99", "frames"}, rows)
	fmt.Fprintln(w)

	// Crash: lose a client machine mid-run. Replicated shards keep a
	// copy on every survivor, so every acknowledged write (including
	// the dead clients') must still be found by the audit.
	fmt.Fprintf(w, "-- crash at P=%d: client machine %d dies halfway; no acknowledged write may be lost --\n",
		crashP, crashP-1)
	wl := base(crashP)
	cfg := orca.Config{Processors: crashP, RTS: orca.Broadcast, Mixed: true, Seed: 1,
		Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: crashP - 1, At: dur / 2}}}}
	r := run("crash", cfg, kv.Params{Policy: kv.PolicyReplicated, Workload: wl}, false)
	healthy := run("crash-baseline", orca.Config{Processors: crashP, RTS: orca.Broadcast, Mixed: true, Seed: 1},
		kv.Params{Policy: kv.PolicyReplicated, Workload: wl}, false)
	rows = rows[:0]
	for _, rr := range []struct {
		name string
		r    kv.Result
	}{{"no-fault", healthy}, {"client-crash", r}} {
		killed := 0
		for _, c := range rr.r.Report.Crashes {
			killed += c.ProcsKilled
		}
		rows = append(rows, []string{
			rr.name, fmt.Sprint(rr.r.Ops), fmt.Sprint(rr.r.AckedPuts), fmt.Sprint(rr.r.LostAcked),
			fmt.Sprint(len(rr.r.Report.Crashes)), fmt.Sprint(killed),
			lat(rr.r, "kv.get", 0.99), lat(rr.r, "kv.put", 0.99),
		})
	}
	Table(w, []string{"scenario", "ops", "acked puts", "lost", "crashes", "procs killed", "get p99", "put p99"}, rows)
	fmt.Fprintln(w, "Latency figures are virtual request->completion times from open-loop")
	fmt.Fprintln(w, "arrival instants (queueing included). Replicated shards read locally")
	fmt.Fprintln(w, "and pay the total order per write; primary-copy shards write cheaply")
	fmt.Fprintln(w, "at their home and RPC every remote read. The crash scenario audits")
	fmt.Fprintln(w, "every acknowledged write after the survivors finish serving.")
	fmt.Fprintln(w)
}
