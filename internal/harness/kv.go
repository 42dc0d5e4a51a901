package harness

import (
	"fmt"

	"repro/internal/apps/kv"
	"repro/internal/orca"
	"repro/internal/sim"
	"repro/internal/workload"
)

// kvRow serves one open-loop trace on the row's configuration.
func kvRow(cfg orca.Config, params kv.Params, key ...any) Row[kv.Result] {
	return Row[kv.Result]{Key: keys(key...), Cfg: cfg,
		Run: func(cfg orca.Config, _ []Ran[kv.Result]) (kv.Result, orca.Report) {
			r := kv.Run(cfg, params)
			return r, r.Report
		}}
}

// kvCell is the kv cell set, by column header; each kv table picks its
// columns from it.
var kvCell = map[string]func(r Ran[kv.Result]) any{
	"ops":          func(r Ran[kv.Result]) any { return r.Res.Ops },
	"ops/s":        func(r Ran[kv.Result]) any { return fmt.Sprintf("%.0f", r.Res.Throughput) },
	"get p50":      kvLatency("kv.get", 0.50),
	"get p95":      kvLatency("kv.get", 0.95),
	"get p99":      kvLatency("kv.get", 0.99),
	"put p99":      kvLatency("kv.put", 0.99),
	"bwrites":      func(r Ran[kv.Result]) any { return r.Report.RTS.BcastWrites },
	"p2p ops":      func(r Ran[kv.Result]) any { return r.Report.RTS.RemoteReads + r.Report.RTS.P2PWrites },
	"frames":       func(r Ran[kv.Result]) any { return r.Report.Net.Frames },
	"acked puts":   func(r Ran[kv.Result]) any { return r.Res.AckedPuts },
	"lost":         func(r Ran[kv.Result]) any { return r.Res.LostAcked },
	"crashes":      func(r Ran[kv.Result]) any { return len(r.Report.Crashes) },
	"procs killed": func(r Ran[kv.Result]) any { return procsKilled(r.Report) },
}

func kvLatency(hist string, q float64) func(Ran[kv.Result]) any {
	return func(r Ran[kv.Result]) any {
		h := r.Report.Latency[hist]
		if h == nil || h.Count() == 0 {
			return "-"
		}
		return h.Percentile(q)
	}
}

// kvTab is a table of kv runs; its value columns are named after the
// keys.
func kvTab(name, heading string, keyCols []string, valueCols ...string) Tab[kv.Result] {
	return Tab[kv.Result]{Name: name, Heading: heading, Cols: append(keyCols, valueCols...),
		Cells: func(r Ran[kv.Result]) []any {
			out := make([]any, len(valueCols))
			for i, c := range valueCols {
				out[i] = kvCell[c](r)
			}
			return out
		},
		Checks: []Check[kv.Result]{noLostAcked}}
}

// noLostAcked: whatever crashed or migrated, every write a client saw
// acknowledged is found by the post-run audit.
var noLostAcked = each("no acknowledged write lost", func(r Ran[kv.Result]) error {
	if r.Res.LostAcked > 0 {
		return fmt.Errorf("lost %d of %d acknowledged writes", r.Res.LostAcked, r.Res.AckedPuts)
	}
	return nil
})

// mixedRTS is the kv configuration: both runtimes live, so a shard's
// policy picks its placement.
func mixedRTS(p int) orca.Config {
	cfg := bcast(p)
	cfg.Mixed = true
	return cfg
}

// kvRatePerProc is the open-loop arrival rate per processor.
const kvRatePerProc = 2000.0

// zipfLoad is the read-heavy (95/3/2 get/put/update) Zipf(0.99) trace
// for p processors.
func zipfLoad(keyspace int64, p int, dur sim.Time) workload.Config {
	return workload.Config{
		Keys: keyspace, Dist: workload.Zipf, Theta: 0.99,
		ReadFrac: 0.95, UpdateFrac: 0.02, Seed: 1,
		Rate: kvRatePerProc * float64(p), Duration: dur,
	}
}

// kvServing measures the serving workload: a sharded KV/session store
// under open-loop Zipf traffic (see DESIGN.md, "Serving workloads and
// latency accounting"). Three sweeps:
//
//   - processor sweep: read-heavy Zipf(0.99) traffic at a fixed
//     per-processor arrival rate, P=8..64, across placement policies
//     (replicated / primary-copy / mixed) — throughput scale-out and
//     the latency price of each strategy on identical traces — plus a
//     sequencer-sharded row: replicated placement with the total order
//     split across independent sequencer groups, store shards striped
//     onto them.
//   - skew sweep: uniform vs increasingly skewed keys at fixed P,
//     plus a phase-shift run whose hot set rotates mid-run — the
//     adversarial input for adaptive placement.
//   - crash: a client machine dies mid-run; the survivors keep
//     serving and the audit must find every acknowledged write —
//     replicated shards keep a copy on every survivor, the dead
//     clients' writes included.
func kvServing(s Scale) Spec {
	keyspace, dur := at(s, int64(8192), 2048), sim.Time(at(s, 200, 80))*sim.Millisecond
	skewP, crashP := at(s, 16, 8), at(s, 8, 4)
	const seqShards = 4
	load := func(p int) workload.Config { return zipfLoad(keyspace, p, dur) }

	procs := kvTab("procs", "-- processor sweep, read-heavy (95/3/2 get/put/update), per-shard placement policies --",
		[]string{"procs", "policy"}, "ops", "ops/s", "get p50", "get p95", "get p99", "put p99", "bwrites", "p2p ops", "frames")
	for _, p := range at(s, []int{8, 16, 32, 64}, []int{8}) {
		for _, pol := range []kv.Policy{kv.PolicyReplicated, kv.PolicyPrimary, kv.PolicyMixed} {
			procs.Rows = append(procs.Rows, kvRow(mixedRTS(p), kv.Params{Policy: pol, Workload: load(p)}, p, pol))
		}
		procs.Rows = append(procs.Rows, kvRow(bcast(p),
			kv.Params{Policy: kv.PolicyReplicated, SequencerShards: seqShards, Workload: load(p)},
			p, fmt.Sprintf("replicated-s%d", seqShards)))
	}

	skew := kvTab("skew", fmt.Sprintf("-- skew sweep at P=%d: key distribution vs latency (replicated vs primary) --", skewP),
		[]string{"keys", "policy"}, "ops", "ops/s", "get p50", "get p99", "put p99", "frames")
	for _, c := range []struct {
		name string
		mod  func(*workload.Config)
	}{
		{"uniform", func(c *workload.Config) { c.Dist = workload.Uniform }},
		{"zipf-0.60", func(c *workload.Config) { c.Theta = 0.60 }},
		{"zipf-0.99", func(c *workload.Config) {}},
		{"zipf-0.99+shift", func(c *workload.Config) { c.ShiftFrac = 0.5 }},
	} {
		wl := load(skewP)
		c.mod(&wl)
		for _, pol := range []kv.Policy{kv.PolicyReplicated, kv.PolicyPrimary} {
			skew.Rows = append(skew.Rows, kvRow(mixedRTS(skewP), kv.Params{Policy: pol, Workload: wl}, c.name, pol))
		}
	}

	replicated := kv.Params{Policy: kv.PolicyReplicated, Workload: load(crashP)}
	crash := kvTab("crash", fmt.Sprintf("-- crash at P=%d: client machine %d dies halfway; no acknowledged write may be lost --", crashP, crashP-1),
		[]string{"scenario"}, "ops", "acked puts", "lost", "crashes", "procs killed", "get p99", "put p99")
	crash.Rows = []Row[kv.Result]{
		kvRow(mixedRTS(crashP), replicated, "no-fault"),
		kvRow(crashing(mixedRTS(crashP), crashP-1, dur/2), replicated, "client-crash"),
	}
	crash.Prose = `Latency figures are virtual request->completion times from open-loop
arrival instants (queueing included). Replicated shards read locally
and pay the total order per write; primary-copy shards write cheaply
at their home and RPC every remote read. The crash scenario audits
every acknowledged write after the survivors finish serving.`
	return Spec{Title: fmt.Sprintf("== KV: sharded serving store, open-loop Zipf(0.99) %.0f ops/s per processor, %d keys ==", kvRatePerProc, keyspace),
		Tables: []Block{procs, skew, crash}}
}
