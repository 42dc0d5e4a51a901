package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/apps/kv"
	"repro/internal/apps/tsp"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/rts"
	"repro/internal/sim"
	"repro/internal/workload"
)

// counts accumulates what one repetition shows from outside: the run
// reports' counters, summed over the runs a repetition makes (two TSP
// instances). Everything in it is on the virtual clock and must repeat
// exactly for a given seed.
type counts struct {
	ops     int64 // completed client requests (kv) or shared-object operations (tsp)
	events  int64
	elapsed sim.Time
	net     netsim.Stats
	cpuBusy []sim.Time
	appBusy []sim.Time
	rts     rts.RTSStats
	lat     map[string]*rts.LatencyHist
}

func (c *counts) add(rep orca.Report, events int64) {
	c.events += events
	c.elapsed += rep.Elapsed
	c.net.Frames += rep.Net.Frames
	c.net.Messages += rep.Net.Messages
	c.net.WireBytes += rep.Net.WireBytes
	c.net.Drops += rep.Net.Drops + rep.Net.FaultDrops
	c.net.BusBusy += rep.Net.BusBusy
	if c.net.CountsByKind == nil {
		c.net.CountsByKind = map[string]int64{}
		c.net.Interrupts = make([]int64, len(rep.Net.Interrupts))
		c.cpuBusy = make([]sim.Time, len(rep.CPUBusy))
		c.appBusy = make([]sim.Time, len(rep.AppBusy))
	}
	for k, v := range rep.Net.CountsByKind {
		c.net.CountsByKind[k] += v
	}
	for i, v := range rep.Net.Interrupts {
		c.net.Interrupts[i] += v
	}
	for i := range rep.CPUBusy {
		c.cpuBusy[i] += rep.CPUBusy[i]
		c.appBusy[i] += rep.AppBusy[i]
	}
	c.rts = rts.Merge(c.rts, rep.RTS)
	if rep.Latency != nil {
		c.lat = rep.Latency
	}
}

// sharedOps is every shared-object operation a runtime performed.
func sharedOps(st rts.RTSStats) int64 {
	return st.LocalReads + st.RemoteReads + st.BcastWrites + st.BatchedOps + st.P2PWrites
}

// repOut is one repetition's virtual result.
type repOut struct {
	counts
	attempted, failed int64
	throughput        float64 // ops per virtual second
	meanUS            float64 // completion time of the workload's unit of work:
	p50US, p99US      float64 // a client request (kv) or an instance (tsp)
	samples           int64   // how many units the percentiles are over
}

// fingerprint renders every exact figure of a repetition; two
// repetitions of one seed must produce the same string.
func (r *repOut) fingerprint() string {
	return fmt.Sprintf("ops=%d att=%d fail=%d ev=%d el=%d msgs=%d frames=%d bytes=%d bus=%d mean=%v p50=%v p99=%v rts=%+v cpu=%v",
		r.ops, r.attempted, r.failed, r.events, int64(r.elapsed), r.net.Messages, r.net.Frames,
		r.net.WireBytes, int64(r.net.BusBusy), r.meanUS, r.p50US, r.p99US, r.rts, r.cpuBusy)
}

// prepared is a workload with its inputs and reference results made:
// what set-up produces and the timed repetitions use.
type prepared struct {
	rep  func() (repOut, error) // one full repetition, oracles checked
	warm func()                 // a short discarded run that fills heap and caches
}

// workloadDef is one named workload. Sizes were measured on the 2-core
// sandbox at GOMAXPROCS=1 (1-2 s per repetition) and are frozen.
type workloadDef struct {
	name      string
	why       string
	hostTimed bool    // false: too short for host metrics to mean anything in the full run
	kv        *kvSpec // nil for tsp
	seqNodes  []int   // machines that sequence (amoeba.cpu_util_seq); nil: the busiest machine
	prepare   func(seed int64, scale float64) (prepared, error)
}

// kvSpec is one configuration of the sharded store under open-loop
// Zipf(0.99) traffic over 8192 keys.
type kvSpec struct {
	procs             int
	mixed             bool
	policy            kv.Policy
	readFrac, updFrac float64
	rate              float64 // offered client requests per virtual second
	dur               float64 // virtual seconds at scale 1
	clients           int     // 0: one per machine
	seq               int     // initial sequencer machine
	crash             bool    // the sequencer machine crashes halfway
}

func (s *kvSpec) run(seed int64, rateMult, dur float64, fault bool) kv.Result {
	d := sim.Time(dur * float64(sim.Second))
	cfg := orca.Config{Processors: s.procs, RTS: orca.Broadcast, Mixed: s.mixed, Seed: seed,
		GroupMethod: group.ForcePB, Sequencer: s.seq}
	if fault {
		cfg.Faults = &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: s.seq, At: d / 2}}}
	}
	return kv.Run(cfg, kv.Params{Policy: s.policy, Clients: s.clients, Workload: workload.Config{
		Keys: 8192, Dist: workload.Zipf, Theta: 0.99, ReadFrac: s.readFrac, UpdateFrac: s.updFrac,
		Seed: seed, Rate: s.rate * rateMult, Duration: d,
	}})
}

// checkKV is the store's oracle: the run ended, no acknowledged write
// was lost, every put was acknowledged and every completion timed, and
// the request count is a plausible Poisson draw for the offered rate
// (a generator that silently under-delivers would pass the others).
func checkKV(name string, r kv.Result, offered float64) error {
	all := r.Report.Latency["kv.all"]
	switch {
	case r.Report.TimedOut:
		return fmt.Errorf("%s: timed out, blocked: %v", name, r.Report.Blocked)
	case r.LostAcked != 0:
		return fmt.Errorf("%s: %d acknowledged writes lost", name, r.LostAcked)
	case r.AckedPuts != r.Puts || r.Ops != r.Gets+r.Puts+r.Updates:
		return fmt.Errorf("%s: %d puts but %d acks, %d ops", name, r.Puts, r.AckedPuts, r.Ops)
	case all == nil || all.Count() != r.Ops:
		return fmt.Errorf("%s: %d completions but latency recorded for fewer", name, r.Ops)
	case math.Abs(float64(r.Ops)-offered) > 6*math.Sqrt(offered)+1:
		return fmt.Errorf("%s: %d requests completed, %.0f offered", name, r.Ops, offered)
	}
	return nil
}

func kvOut(r kv.Result, attempted int64) repOut {
	out := repOut{attempted: attempted, throughput: r.Throughput, samples: r.Ops,
		meanUS: float64(r.Report.Latency["kv.all"].Sum()) / float64(r.Ops) / float64(sim.Microsecond),
		p50US:  r.PhaseP50US[0], p99US: r.PhaseP99US[0]}
	out.ops = r.Ops
	out.failed = attempted - r.Ops + int64(r.LostAcked)
	out.add(r.Report, r.Runtime.Env().Events())
	return out
}

func (s *kvSpec) prepare(name string) func(seed int64, scale float64) (prepared, error) {
	return func(seed int64, scale float64) (prepared, error) {
		dur := s.dur * scale
		offered := s.rate * dur
		var twinOps int64
		if s.crash {
			// The no-fault twin says how many requests the clients make.
			twin := s.run(seed, 1, dur, false)
			if err := checkKV(name+" (no-fault twin)", twin, offered); err != nil {
				return prepared{}, err
			}
			twinOps = twin.Ops
		}
		return prepared{
			warm: func() { s.run(seed, 1, dur/4, s.crash) },
			rep: func() (repOut, error) {
				r := s.run(seed, 1, dur, s.crash)
				attempted := r.Ops // without a fault nothing can be attempted and not complete
				if s.crash {
					attempted = twinOps
				}
				return kvOut(r, attempted), checkKV(name, r, offered)
			},
		}, nil
	}
}

// tspBase names the two 16-city instances: one whose search dominates
// (19 M nodes) and one small enough that forks, job distribution and
// the barrier dominate (1.7 M nodes). Both start from a 2-opt tour that
// is (nearly) optimal, so the search proves optimality and the node
// count barely depends on the order cities are tried in: relabelling
// the cities from the seed gives different job placement and bound
// traffic but the same amount of work, which keeps per-op figures
// comparable across seeds. (tsp.Generate(16, seed+4) itself ranges
// from 0.3 M to 98 M nodes.)
var tspBase = []int64{18, 6}

func relabel(in *tsp.Instance, rng *rand.Rand) *tsp.Instance {
	n := in.N
	perm := rng.Perm(n - 1) // city 0 stays the start
	at := func(i int) int {
		if i == 0 {
			return 0
		}
		return perm[i-1] + 1
	}
	out := &tsp.Instance{N: n, Dist: make([][]int, n), Xs: make([]int, n), Ys: make([]int, n)}
	for i := 0; i < n; i++ {
		out.Xs[i], out.Ys[i] = in.Xs[at(i)], in.Ys[at(i)]
		out.Dist[i] = make([]int, n)
		for j := 0; j < n; j++ {
			out.Dist[i][j] = in.Dist[at(i)][at(j)]
		}
	}
	return out
}

func prepareTSP(seed int64, scale float64) (prepared, error) {
	cities := 16
	if scale < 0.5 {
		cities = 12
	}
	rng := rand.New(rand.NewSource(seed))
	insts := make([]*tsp.Instance, len(tspBase))
	best := make([]int, len(tspBase))
	for i, b := range tspBase {
		insts[i] = relabel(tsp.Generate(cities, b), rng)
		best[i], _ = tsp.SolveSeq(insts[i])
	}
	run := func(inst *tsp.Instance) tsp.Result {
		return tsp.RunOrca(orca.Config{Processors: 64, RTS: orca.Broadcast, Seed: seed,
			Shards: 8, Batching: orca.DefaultBatching()}, inst, tsp.Params{})
	}
	return prepared{
		warm: func() { run(insts[len(insts)-1]) },
		rep: func() (repOut, error) {
			out := repOut{attempted: int64(len(insts)), samples: int64(len(insts))}
			var errs []error
			for i, inst := range insts {
				r := run(inst)
				out.ops += sharedOps(r.Report.RTS)
				out.add(r.Report, r.Runtime.Env().Events())
				us := r.Report.Elapsed.Microseconds()
				out.meanUS += us / float64(len(insts))
				if i == 0 || us < out.p50US {
					out.p50US = us
				}
				out.p99US = math.Max(out.p99US, us)
				if r.Report.TimedOut || r.Best != best[i] {
					out.failed++
					errs = append(errs, fmt.Errorf("tsp_p64_s8: instance %d: best %d, sequential solver %d, timed out %v",
						i, r.Best, best[i], r.Report.TimedOut))
				}
			}
			out.throughput = float64(out.ops) / out.elapsed.Seconds()
			return out, errors.Join(errs...)
		},
	}, nil
}

func kvWorkload(name, why string, hostTimed bool, seqNodes []int, s kvSpec) workloadDef {
	return workloadDef{name: name, why: why, hostTimed: hostTimed, kv: &s, seqNodes: seqNodes, prepare: s.prepare(name)}
}

var workloads = []workloadDef{
	kvWorkload("kv_read", "95% local reads on 8 replicas: loads rts/orca read path, sim and workload; bypasses group, amoeba and netsim",
		true, []int{0},
		kvSpec{procs: 8, policy: kv.PolicyReplicated, readFrac: 0.95, updFrac: 0.02, rate: 16000, dur: 40}),
	kvWorkload("kv_write", "50% writes, each a sequenced broadcast interrupting 32 machines: loads group, amoeba and netsim",
		true, []int{0},
		kvSpec{procs: 32, policy: kv.PolicyReplicated, readFrac: 0.50, updFrac: 0.25, rate: 3000, dur: 16}),
	kvWorkload("kv_primary", "primary-copy shards, remote reads are RPCs over unicast frames: loads rts p2p and amoeba rpc; group idles",
		true, nil,
		kvSpec{procs: 8, mixed: true, policy: kv.PolicyPrimary, readFrac: 0.95, updFrac: 0.02, rate: 4000, dur: 40}),
	{name: "tsp_p64_s8", why: "the paper's application at P=64: the only run through sharded and batched group/rts paths, forks and guards",
		hostTimed: true, seqNodes: []int{0, 1, 2, 3, 4, 5, 6, 7}, prepare: prepareTSP},
	kvWorkload("kv_seqcrash", "the sequencer machine crashes under load: the only run through suspicion, election and retry",
		false, []int{7},
		kvSpec{procs: 8, policy: kv.PolicyReplicated, readFrac: 0.50, updFrac: 0.25, rate: 3000, dur: 4,
			clients: 7, seq: 7, crash: true}),
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// layerCounters derives the per-layer counters of the full-stack runs,
// all from the run reports. The group figures come from the wire's
// per-kind frame counts: they are the one view of the group protocol
// the sharded runtime exposes too. The kinds are strings, so a renamed
// one would silently read as zero; writes without a sequenced frame
// are reported as an error instead.
func (c *counts) layerCounters(seqNodes []int) (map[string]float64, error) {
	ops, el := float64(c.ops), float64(c.elapsed)
	kinds := c.net.CountsByKind
	var interrupts, grpFrames int64
	for _, v := range c.net.Interrupts {
		interrupts += v
	}
	for k, v := range kinds {
		if strings.HasPrefix(k, "grp-") {
			grpFrames += v
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	maxUtil := func(nodes []int, busy func(i int) sim.Time) float64 {
		var m sim.Time
		if nodes == nil {
			for i := range c.cpuBusy {
				m = max(m, busy(i))
			}
		}
		for _, i := range nodes {
			m = max(m, busy(i))
		}
		return float64(m) / el
	}
	all := func(i int) sim.Time { return c.cpuBusy[i] }
	st := c.rts
	writes := st.BcastWrites + st.BatchedOps
	pbReq := kinds["grp-req"] + kinds["grp-breq"]
	bbData := kinds["grp-bb-data"] + kinds["grp-bb-bdata"]
	seqFrames := kinds["grp-data"] + kinds["grp-bdata"] + kinds["grp-accept"] + kinds["grp-baccept"] + kinds["grp-prop"]
	if writes > 0 && seqFrames == 0 {
		return nil, fmt.Errorf("%d broadcast writes but no sequenced group frame among the wire kinds %v", writes, kinds)
	}
	m := map[string]float64{
		"sim.events_per_op":          float64(c.events) / ops,
		"netsim.frames_per_op":       float64(c.net.Frames) / ops,
		"netsim.wire_bytes_per_op":   float64(c.net.WireBytes) / ops,
		"netsim.interrupts_per_op":   float64(interrupts) / ops,
		"netsim.bus_util":            float64(c.net.BusBusy) / el,
		"netsim.drops":               float64(c.net.Drops),
		"amoeba.cpu_util_max":        maxUtil(nil, all),
		"amoeba.cpu_util_seq":        maxUtil(seqNodes, all),
		"amoeba.kernel_cpu_util_max": maxUtil(nil, func(i int) sim.Time { return c.cpuBusy[i] - c.appBusy[i] }),
		"group.sends_per_op":         float64(grpFrames) / ops,
		"group.pb_share":             ratio(pbReq, pbReq+bbData),
		"group.ops_per_batch":        ratio(writes, seqFrames),
		"group.retransmits":          float64(kinds["grp-retx"]),
		"group.gap_requests":         float64(kinds["grp-retx-req"]),
		"group.elections":            float64(st.Elections),
		"group.takeovers":            float64(st.Takeovers),
		"group.recovery_virtual_ms":  st.RecoveryVirtualUS / 1000,
		"rts.local_read_share":       ratio(st.LocalReads, sharedOps(st)),
		"rts.bcast_writes_per_op":    float64(writes) / ops,
		"rts.remote_ops_per_op":      float64(st.RemoteReads+st.P2PWrites+st.Forwarded) / ops,
		"rts.guard_waits":            float64(st.GuardWaits),
		"rts.ops_retried":            float64(st.OpsRetried),
		"rts.batch_frames_per_op":    float64(st.Frames) / ops,
	}
	for _, h := range []string{"all", "get", "put"} {
		if hist := c.lat["kv."+h]; hist != nil {
			m["apps.kv."+h+"_p50_virtual_us"] = hist.Percentile(0.50).Microseconds()
			if h != "all" {
				m["apps.kv."+h+"_p99_virtual_us"] = hist.Percentile(0.99).Microseconds()
			}
		}
	}
	return m, nil
}
