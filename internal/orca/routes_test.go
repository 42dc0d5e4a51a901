package orca_test

// The servers of a machine — interrupt service, the object manager, the
// RPC dispatchers, a primary object's queue — are consumers with no
// process behind them, serving on the simulator's dispatch lane. These
// tests hold them to the figures pinned when they were threads, and
// measure what a run still pays in process switches.

import (
	"fmt"
	"os"
	"strings"
	"testing"

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

// observed is everything a finished run shows an outsider: the clock,
// the engine's event count, the wire, the CPUs, the runtime's counters
// and the state of every object on every machine still alive.
func observed(rt *orca.Runtime, rep orca.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d events=%d net=%+v cpu=%v rts=%+v", int64(rep.Elapsed), rt.Env().Events(), rep.Net, rep.CPUBusy, rep.RTS)
	dead := map[int]bool{}
	for _, c := range rep.Crashes {
		dead[c.Node] = true
	}
	for id := rts.ObjID(1); id <= 32; id++ {
		for node := range rep.CPUBusy {
			if st, ok := rt.System().PeekState(node, id); ok && !dead[node] {
				fmt.Fprintf(&b, " obj%d@%d=%+v", id, node, st)
			}
		}
	}
	return b.String()
}

// diffAt cuts two fingerprints down to where they part.
func diffAt(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	from := max(0, i-60)
	return fmt.Sprintf("\n  inline:      …%s\n  all threads: …%s", a[from:min(len(a), i+60)], b[from:min(len(b), i+60)])
}

// faultCells are the runs TestInlineMatchesAllThreads adds to the
// configuration matrix: a crash of the sequencer, a crash of a primary
// copy's machine, and an object migrating both ways.
var faultCells = []struct {
	name string
	cfg  orca.Config
	prog func(t *testing.T, p *orca.Proc)
	want func(rep orca.Report) error
}{
	{"sequencer-crash",
		orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 3, GroupMethod: group.ForcePB, Sequencer: 3,
			Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 3, At: 30 * sim.Millisecond}}}},
		func(t *testing.T, p *orca.Proc) {
			c, done := std.NewCounter(p, 0), std.NewCounter(p, 0)
			for cpu := 1; cpu < 3; cpu++ {
				p.Fork(cpu, "w", func(wp *orca.Proc) {
					for k := 0; k < 40; k++ {
						c.Add(wp, 1)
						wp.Work(1500 * sim.Microsecond)
					}
					done.Add(wp, 1)
				})
			}
			done.AwaitGE(p, 2)
			if got := c.Value(p); got != 80 {
				t.Errorf("counter = %d, want 80", got)
			}
		},
		func(rep orca.Report) error {
			if rep.RTS.Elections == 0 {
				return fmt.Errorf("no election: %+v", rep.RTS)
			}
			return nil
		}},
	{"primary-crash",
		orca.Config{Processors: 4, RTS: orca.P2PUpdate, Seed: 5,
			Faults: &netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 2, At: 25 * sim.Millisecond}}}},
		func(t *testing.T, p *orca.Proc) {
			var c std.Counter
			placed, done := std.NewFlag(p, false), std.NewCounter(p, 0)
			p.Fork(2, "home", func(hp *orca.Proc) { // the primary copy lives where it is created
				c = std.NewCounter(hp, 0)
				placed.Set(hp, true)
			})
			placed.Await(p)
			for _, cpu := range []int{1, 3} {
				p.Fork(cpu, "w", func(wp *orca.Proc) {
					for k := 0; k < 60; k++ {
						if k%6 == 0 {
							c.Add(wp, 1)
						} else {
							c.Value(wp)
						}
						wp.Work(800 * sim.Microsecond)
					}
					done.Add(wp, 1)
				})
			}
			done.AwaitGE(p, 2)
			c.Add(p, 1)
		},
		func(rep orca.Report) error {
			if rep.RTS.Rehomed == 0 {
				return fmt.Errorf("the object was never re-homed: %+v", rep.RTS)
			}
			return nil
		}},
	{"adaptive-migration",
		orca.Config{Processors: 4, RTS: orca.Broadcast, Mixed: true, Seed: 11, GroupMethod: group.ForcePB},
		func(t *testing.T, p *orca.Proc) {
			obj := std.NewCounter(p, 0, orca.With(orca.Adaptive(rts.AdaptConfig{SampleEvery: 8, MinDwell: sim.Millisecond})))
			done := std.NewCounter(p, 0)
			p.Fork(2, "writer", func(wp *orca.Proc) {
				for i := 0; i < 24; i++ {
					obj.Inc(wp)
					wp.Work(200 * sim.Microsecond)
				}
				done.Add(wp, 1)
			})
			for _, cpu := range []int{1, 3} {
				p.Fork(cpu, "reader", func(rp *orca.Proc) {
					rp.Sleep(20 * sim.Millisecond)
					for i := 0; i < 40; i++ {
						obj.Value(rp)
						rp.Work(150 * sim.Microsecond)
					}
					done.Add(rp, 1)
				})
			}
			done.AwaitGE(p, 3)
			if got := obj.Value(p); got != 24 {
				t.Errorf("value = %d, want 24", got)
			}
		},
		func(rep orca.Report) error {
			if rep.RTS.Migrations < 2 {
				return fmt.Errorf("%d migrations, want the object to move out and back", rep.RTS.Migrations)
			}
			return nil
		}},
}

// runtimeGoldens reads testdata/runtime.golden: one line per run of
// TestInlineMatchesAllThreads, its subtest name and its fingerprint
// separated by a tab.
func runtimeGoldens(t *testing.T) map[string]string {
	data, err := os.ReadFile("testdata/runtime.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, fp, _ := strings.Cut(line, "\t")
		want[name] = fp
	}
	return want
}

// TestInlineMatchesAllThreads holds every configuration-matrix cell and
// three fault cells to the fingerprint pinned in testdata/runtime.golden:
// the figures the runtime had when its servers were threads, which the
// consumers with no process behind them must reproduce. It began as the
// differential oracle between those two routes.
func TestInlineMatchesAllThreads(t *testing.T) {
	want := runtimeGoldens(t)
	golden := func(t *testing.T, fp string) {
		name := t.Name()[strings.Index(t.Name(), "/")+1:]
		if w, ok := want[name]; !ok || fp != w {
			t.Errorf("fingerprint moved (pinned: %t):%s", ok, diffAt(fp, w))
		}
	}
	matrixConfigs(t, func(t *testing.T, cfg orca.Config) {
		if cfg.Validate() != nil {
			t.Skip("not a configuration")
		}
		golden(t, matrixRun(t, cfg).fp)
	})
	for _, c := range faultCells {
		t.Run(c.name, func(t *testing.T) {
			rt := orca.New(c.cfg, std.Register)
			rep := rt.Run(func(p *orca.Proc) { c.prog(t, p) })
			if rep.TimedOut {
				t.Fatalf("timed out; blocked: %v", rep.Blocked)
			}
			if err := c.want(rep); err != nil {
				t.Fatalf("the cell does not exercise what it is for: %v", err)
			}
			golden(t, observed(rt, rep))
		})
	}
}

// TestRouteShares measures, on small versions of the benchmark's
// workloads, how many process switches (sim.Env.Switches) and
// future-event pushes (sim.Env.Pushes) a run makes per operation offered
// — a kv request, or a shared-object operation of the TSP — and what
// share of those pushes joined a run of events due at one instant
// instead of taking a heap slot, and bands them; with -v it also prints,
// per kind of consumer, how many items each served within the call that
// offered them and how many took later events.
func TestRouteShares(t *testing.T) {
	type sample struct {
		name string
		rt   *orca.Runtime
		ops  int64
	}
	kvRun := func(name string, procs int, mixed bool, policy kv.Policy, readFrac, rate float64) sample {
		r := kv.Run(orca.Config{Processors: procs, RTS: orca.Broadcast, Mixed: mixed, Seed: 1, GroupMethod: group.ForcePB},
			kv.Params{Policy: policy, Workload: workload.Config{Keys: 8192, Dist: workload.Zipf, Theta: 0.99,
				ReadFrac: readFrac, UpdateFrac: (1 - readFrac) / 2, Seed: 1, Rate: rate, Duration: sim.Second}})
		if r.Report.TimedOut || r.LostAcked != 0 {
			t.Fatalf("kv %v: timed out %v, %d acknowledged writes lost", policy, r.Report.TimedOut, r.LostAcked)
		}
		return sample{name, r.Runtime, r.Ops}
	}
	inst := tsp.Generate(11, 18)
	best, _ := tsp.SolveSeq(inst)
	tspRun := tsp.RunOrca(orca.Config{Processors: 16, RTS: orca.Broadcast, Seed: 1, Shards: 4, Batching: orca.DefaultBatching()}, inst, tsp.Params{})
	if tspRun.Report.TimedOut || tspRun.Best != best {
		t.Fatalf("tsp: best %d, want %d; timed out %v", tspRun.Best, best, tspRun.Report.TimedOut)
	}
	st := tspRun.Report.RTS
	runs := []sample{
		kvRun("kv replicated P=16, 50% writes", 16, false, kv.PolicyReplicated, 0.50, 3000),
		kvRun("kv primary P=8, 5% writes", 8, true, kv.PolicyPrimary, 0.95, 4000),
		{"tsp P=16, 4 shards, batched", tspRun.Runtime, st.LocalReads + st.RemoteReads + st.BcastWrites + st.BatchedOps + st.P2PWrites},
	}
	switches, joined := map[string]float64{}, map[string]float64{}
	t.Logf("%-32s %-7s %9s %9s %9s", "run", "queue", "offered", "finished", "pending")
	for _, run := range runs {
		env := run.rt.Env()
		switches[run.name] = float64(env.Switches()) / float64(run.ops)
		pushes, joins := env.Pushes()
		joined[run.name] = float64(joins) / float64(pushes)
		t.Logf("%-32s %-7s %9d ops, %d events, %d process switches: %.3f switches per op; %d pushes: %.3f per op, %.1f %% joined a run",
			run.name, "", run.ops, env.Events(), env.Switches(), switches[run.name], pushes, float64(pushes)/float64(run.ops), 100*joined[run.name])
		// A consumer is named "node<n>/<queue>"; the obj<id> queues
		// count as one kind. objsvc is each machine's object service:
		// point-to-point requests and forwarded operations alike.
		sum := map[string]sim.Routes{}
		for _, r := range env.Routes() {
			kind := strings.TrimRight(r.Consumer[strings.Index(r.Consumer, "/")+1:], "0123456789")
			k := sum[kind]
			sum[kind] = sim.Routes{Finished: k.Finished + r.Finished, Pending: k.Pending + r.Pending}
		}
		for _, kind := range []string{"netisr", "objmgr", "objsvc", "obj"} {
			if r := sum[kind]; r.Finished+r.Pending > 0 {
				t.Logf("%-32s %-7s %9d %9d %9d", run.name, kind, r.Finished+r.Pending, r.Finished, r.Pending)
			}
		}
	}
	// Switches per operation, as measured (1.408, 1.262, 0.034; 1.761
	// for kv replicated while a thread's sequenced write was resumed
	// after its broadcast was sent, and 1.992 for kv primary while a
	// thread's RPC was; 2.260, 2.167, 0.065 while the servers were
	// threads), ±15 %: a primitive that stops resuming a process within
	// its own step shows here first. The share of pushes that joined a
	// run (67.3 %, 0.9 %, 14.5 %) is what a broadcast's fan-out saves in
	// heap sifts.
	for _, c := range []struct {
		run              string
		min, max         float64
		joinMin, joinMax float64
	}{
		{"kv replicated P=16, 50% writes", 1.20, 1.62, 0.57, 0.77},
		{"kv primary P=8, 5% writes", 1.08, 1.45, 0, 0.03},
		{"tsp P=16, 4 shards, batched", 0.029, 0.039, 0.12, 0.17},
	} {
		if s := switches[c.run]; s < c.min || s > c.max {
			t.Errorf("%s: %.3f process switches per op, want %.3f–%.3f", c.run, s, c.min, c.max)
		}
		if j := joined[c.run]; j < c.joinMin || j > c.joinMax {
			t.Errorf("%s: %.1f %% of pushes joined a run, want %.1f–%.1f %%", c.run, 100*j, 100*c.joinMin, 100*c.joinMax)
		}
	}
}
