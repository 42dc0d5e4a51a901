package orca_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/sim"
)

func bcastCfg(n int, seed int64) orca.Config {
	return orca.Config{Processors: n, RTS: orca.Broadcast, Seed: seed}
}

func TestRunSimpleProgram(t *testing.T) {
	rt := orca.New(bcastCfg(2, 1), std.Register)
	var final int
	rep := rt.Run(func(p *orca.Proc) {
		o := p.New(std.IntObj, 10)
		p.Invoke(o, "add", 5)
		final = p.InvokeI(o, "value")
	})
	if final != 15 {
		t.Fatalf("final = %d, want 15", final)
	}
	if rep.TimedOut {
		t.Fatal("timed out")
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestForkPlacementAndSharing(t *testing.T) {
	const workers = 4
	rt := orca.New(bcastCfg(workers, 2), std.Register)
	cpus := make([]int, workers)
	rt.Run(func(p *orca.Proc) {
		counter := p.New(std.IntObj)
		done := p.New(std.BarrierObj, workers)
		for i := 0; i < workers; i++ {
			i := i
			p.Fork(i, fmt.Sprintf("worker%d", i), func(wp *orca.Proc) {
				cpus[i] = wp.CPU()
				wp.Invoke(counter, "inc")
				wp.Invoke(done, "arrive")
			})
		}
		p.Invoke(done, "wait")
		if got := p.InvokeI(counter, "value"); got != workers {
			t.Errorf("counter = %d, want %d", got, workers)
		}
	})
	for i, c := range cpus {
		if c != i {
			t.Fatalf("worker %d ran on cpu %d", i, c)
		}
	}
}

func TestWorkCharging(t *testing.T) {
	rt := orca.New(bcastCfg(1, 3), std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		p.Work(250 * sim.Millisecond)
	})
	if rep.Elapsed < 250*sim.Millisecond {
		t.Fatalf("elapsed = %v, want >= 250ms", rep.Elapsed)
	}
	if rep.AppBusy[0] < 250*sim.Millisecond {
		t.Fatalf("app busy = %v, want >= 250ms", rep.AppBusy[0])
	}
}

func TestParallelWorkSpeedsUp(t *testing.T) {
	// The core promise: the same total work on more processors takes
	// less virtual time.
	elapsed := func(procs int) sim.Time {
		rt := orca.New(bcastCfg(procs, 4), std.Register)
		rep := rt.Run(func(p *orca.Proc) {
			done := p.New(std.BarrierObj, procs)
			for i := 0; i < procs; i++ {
				p.Fork(i, fmt.Sprintf("w%d", i), func(wp *orca.Proc) {
					wp.Work(sim.Second / sim.Time(procs) * 16) // fixed total
					wp.Invoke(done, "arrive")
				})
			}
			p.Invoke(done, "wait")
		})
		return rep.Elapsed
	}
	t1 := elapsed(1)
	t4 := elapsed(4)
	ratio := float64(t1) / float64(t4)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("speedup 1->4 procs = %.2f, want ~4", ratio)
	}
}

func TestJobQueueReplicatedWorkers(t *testing.T) {
	const jobs, workers = 30, 3
	for _, kind := range []orca.RTSKind{orca.Broadcast, orca.P2PUpdate, orca.P2PInvalidate} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rt := orca.New(orca.Config{Processors: workers + 1, RTS: kind, Seed: 5}, std.Register)
			var sum int
			rt.Run(func(p *orca.Proc) {
				q := p.New(std.JobQueueObj)
				acc := p.New(std.AccumObj)
				fin := p.New(std.BarrierObj, workers)
				for i := 1; i <= workers; i++ {
					p.Fork(i, fmt.Sprintf("worker%d", i), func(wp *orca.Proc) {
						local := 0
						for {
							res := wp.Invoke(q, "get")
							if !res[1].(bool) {
								break
							}
							local += res[0].(int)
							wp.Work(time1ms)
						}
						wp.Invoke(acc, "add", local)
						wp.Invoke(fin, "arrive")
					})
				}
				for j := 1; j <= jobs; j++ {
					p.Invoke(q, "add", j)
				}
				p.Invoke(q, "close")
				p.Invoke(fin, "wait")
				sum = wp0Value(p, acc)
			})
			want := jobs * (jobs + 1) / 2
			if sum != want {
				t.Fatalf("sum = %d, want %d", sum, want)
			}
		})
	}
}

const time1ms = sim.Millisecond

func wp0Value(p *orca.Proc, acc orca.Object) int { return p.InvokeI(acc, "value") }

func TestFlagAwaitAcrossRTS(t *testing.T) {
	for _, kind := range []orca.RTSKind{orca.Broadcast, orca.P2PUpdate} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rt := orca.New(orca.Config{Processors: 2, RTS: kind, Seed: 6}, std.Register)
			var awoke sim.Time
			var setAt sim.Time
			rt.Run(func(p *orca.Proc) {
				f := p.New(std.FlagObj)
				p.Fork(1, "waiter", func(wp *orca.Proc) {
					wp.Invoke(f, "await")
					awoke = wp.Now()
				})
				p.Sleep(300 * sim.Millisecond)
				setAt = p.Now()
				p.Invoke(f, "set", true)
			})
			if awoke < setAt {
				t.Fatalf("await woke at %v before set at %v", awoke, setAt)
			}
		})
	}
}

func TestBoolArrayClaimExactlyOnce(t *testing.T) {
	const items, workers = 24, 4
	rt := orca.New(bcastCfg(workers, 7), std.Register)
	claims := make([]int, items)
	rt.Run(func(p *orca.Proc) {
		work := p.New(std.BoolArrayObj, items, true)
		fin := p.New(std.BarrierObj, workers)
		for wdx := 0; wdx < workers; wdx++ {
			p.Fork(wdx, fmt.Sprintf("w%d", wdx), func(wp *orca.Proc) {
				for i := 0; i < items; i++ {
					if wp.InvokeB(work, "claim", i) {
						claims[i]++
					}
				}
				wp.Invoke(fin, "arrive")
			})
		}
		p.Invoke(fin, "wait")
	})
	for i, c := range claims {
		if c != 1 {
			t.Fatalf("item %d claimed %d times", i, c)
		}
	}
}

func TestTableStoreLookup(t *testing.T) {
	rt := orca.New(bcastCfg(2, 8), std.Register)
	rt.Run(func(p *orca.Proc) {
		tab := p.New(std.TableObj, 128)
		p.Invoke(tab, "store", uint64(12345), int64(-77))
		p.Fork(1, "reader", func(wp *orca.Proc) {
			res := wp.Invoke(tab, "lookup", uint64(12345))
			if !res[1].(bool) || res[0].(int64) != -77 {
				t.Errorf("lookup = %v", res)
			}
			miss := wp.Invoke(tab, "lookup", uint64(999))
			if miss[1].(bool) {
				t.Error("expected miss")
			}
		})
	})
}

func TestKillerTable(t *testing.T) {
	rt := orca.New(bcastCfg(1, 9), std.Register)
	rt.Run(func(p *orca.Proc) {
		k := p.New(std.KillerObj, 8)
		p.Invoke(k, "add", 3, 111)
		p.Invoke(k, "add", 3, 222)
		res := p.Invoke(k, "get", 3)
		if res[0].(int) != 222 || res[1].(int) != 111 {
			t.Errorf("killer moves = %v, want [222 111]", res)
		}
	})
}

func TestBitSetAddMany(t *testing.T) {
	rt := orca.New(bcastCfg(2, 10), std.Register)
	rt.Run(func(p *orca.Proc) {
		s := p.New(std.BitSetObj, 1000)
		added := p.InvokeI(s, "addMany", []int{1, 5, 900, 5})
		if added != 3 {
			t.Errorf("added = %d, want 3 (one duplicate)", added)
		}
		if !p.InvokeB(s, "contains", 900) {
			t.Error("missing 900")
		}
		if p.InvokeB(s, "contains", 2) {
			t.Error("unexpected 2")
		}
		if n := p.InvokeI(s, "count"); n != 3 {
			t.Errorf("count = %d", n)
		}
	})
}

// TestTimeoutDetection: a run stops after an hour of virtual time, and
// reports a program still running then as timed out, naming the
// threads it left parked.
func TestTimeoutDetection(t *testing.T) {
	rt := orca.New(bcastCfg(2, 11), std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		f := p.New(std.FlagObj)
		p.Fork(1, "waiter", func(wp *orca.Proc) {
			wp.Invoke(f, "await") // never set: deadlock by design
		})
		p.Sleep(2 * 3600 * sim.Second) // outlives the hour
	})
	if !rep.TimedOut || rep.Elapsed != 3600*sim.Second || len(rep.Blocked) == 0 {
		t.Fatalf("timed out %v after %v with %d threads parked; want a timeout after an hour, with some", rep.TimedOut, rep.Elapsed, len(rep.Blocked))
	}
}

// TestValidateRejects: a fault plan that names a machine the
// configuration lacks, holds an empty window or a loss probability
// outside [0, 1], and a hand-built Batching with a zero field fail
// Validate with one error, so New panics before building a machine.
// Every case here used to pass Validate: a partition or loss window
// naming an absent node was inert, a crash of one panicked from the
// network after the machines were built, and zero Batching fields were
// filled in.
func TestValidateRejects(t *testing.T) {
	const ms = sim.Millisecond
	anyNode := netsim.AnyNode
	faults := func(plan netsim.FaultPlan) func(*orca.Config) {
		return func(c *orca.Config) { c.Faults = &plan }
	}
	for _, c := range []struct {
		name string
		mut  func(*orca.Config)
		want string // in the error; "" for a valid configuration
	}{
		{"valid", faults(netsim.FaultPlan{
			Crashes:    []netsim.Crash{{Node: 3, At: ms}},
			Partitions: []netsim.Partition{{A: []int{0}, B: []int{1, 2, 3}, From: 0, Until: ms}},
			Losses:     []netsim.LossWindow{{Src: anyNode, Dst: 3, Until: ms, Prob: 1}}}), ""},
		{"crash-absent", faults(netsim.FaultPlan{Crashes: []netsim.Crash{{Node: 4, At: ms}}}), "crashes unknown node 4"},
		{"crash-negative", faults(netsim.FaultPlan{Crashes: []netsim.Crash{{Node: -1, At: ms}}}), "crashes unknown node -1"},
		{"partition-absent", faults(netsim.FaultPlan{Partitions: []netsim.Partition{{A: []int{0}, B: []int{1, 7}, Until: ms}}}), "partitions unknown node 7"},
		{"partition-empty", faults(netsim.FaultPlan{Partitions: []netsim.Partition{{A: []int{0}, B: []int{1}, From: ms, Until: ms}}}), "partition window"},
		{"loss-src-absent", faults(netsim.FaultPlan{Losses: []netsim.LossWindow{{Src: 5, Dst: anyNode, Until: ms, Prob: 0.1}}}), "loss window 5->-1 names an unknown node"},
		{"loss-dst-absent", faults(netsim.FaultPlan{Losses: []netsim.LossWindow{{Src: 0, Dst: -2, Until: ms, Prob: 0.1}}}), "loss window 0->-2 names an unknown node"},
		{"loss-backwards", faults(netsim.FaultPlan{Losses: []netsim.LossWindow{{Src: anyNode, Dst: anyNode, From: 2 * ms, Until: ms, Prob: 0.1}}}), "loss window"},
		{"loss-prob-high", faults(netsim.FaultPlan{Losses: []netsim.LossWindow{{Src: anyNode, Dst: anyNode, Until: ms, Prob: 1.5}}}), "probability 1.5"},
		{"loss-prob-negative", faults(netsim.FaultPlan{Losses: []netsim.LossWindow{{Src: anyNode, Dst: anyNode, Until: ms, Prob: -0.1}}}), "probability -0.1"},
		{"batching-zero-field", func(c *orca.Config) { c.Batching = &group.BatchConfig{MaxOps: 4} }, "Batching"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := bcastCfg(4, 1)
			c.mut(&cfg)
			err := cfg.Validate()
			if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, c.want)
			}
			if err != nil {
				defer func() {
					if r := recover(); r != err.Error() {
						t.Errorf("New panicked with %v, want Validate's error", r)
					}
				}()
				orca.New(cfg, std.Register)
			}
		})
	}
}

func TestReportStatistics(t *testing.T) {
	rt := orca.New(bcastCfg(3, 12), std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		o := p.New(std.IntObj)
		for i := 0; i < 10; i++ {
			p.Invoke(o, "assign", i)
		}
	})
	if rep.Net.Messages == 0 {
		t.Fatal("writes should generate traffic")
	}
	if len(rep.CPUBusy) != 3 || len(rep.AppBusy) != 3 {
		t.Fatalf("per-node stats missing: %v %v", rep.CPUBusy, rep.AppBusy)
	}
	// Replica update overhead must appear on non-writing machines.
	if rep.CPUBusy[1] == 0 {
		t.Fatal("replica machine shows no CPU activity")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, int64) {
		rt := orca.New(bcastCfg(4, 77), std.Register)
		rep := rt.Run(func(p *orca.Proc) {
			q := p.New(std.JobQueueObj)
			fin := p.New(std.BarrierObj, 3)
			for i := 1; i <= 3; i++ {
				p.Fork(i, fmt.Sprintf("w%d", i), func(wp *orca.Proc) {
					for {
						res := wp.Invoke(q, "get")
						if !res[1].(bool) {
							break
						}
						wp.Work(sim.Time(res[0].(int)) * 100 * sim.Microsecond)
					}
					wp.Invoke(fin, "arrive")
				})
			}
			for j := 1; j <= 40; j++ {
				p.Invoke(q, "add", j)
			}
			p.Invoke(q, "close")
			p.Invoke(fin, "wait")
		})
		return rep.Elapsed, rep.Net.Messages
	}
	e1, m1 := run()
	e2, m2 := run()
	if e1 != e2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", e1, m1, e2, m2)
	}
}

func TestReplicatedPolicyRequiresBroadcast(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 2, RTS: orca.P2PUpdate, Seed: 20}, std.Register)
	rt.Run(func(p *orca.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic: Replicated placement on the point-to-point runtime")
			}
		}()
		p.NewWith(std.IntObj, orca.Opts(orca.With(orca.Replicated), orca.At(0)))
	})
}

func TestPartialPlacement(t *testing.T) {
	rt := orca.New(bcastCfg(4, 21), std.Register)
	var forwarded bool
	rt.Run(func(p *orca.Proc) {
		o := p.NewWith(std.IntObj, orca.Opts(orca.At(0, 1)), 3)
		p.Fork(3, "outsider", func(wp *orca.Proc) {
			// Node 3 holds no replica: the operation forwards and
			// still returns the right answer.
			if got := wp.InvokeI(o, "value"); got != 3 {
				t.Errorf("forwarded read = %d", got)
			}
			forwarded = true
		})
	})
	if !forwarded {
		t.Fatal("outsider never ran")
	}
}

func TestRemoteForkOnP2PRuntime(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 3, RTS: orca.P2PInvalidate, Seed: 22}, std.Register)
	var ranOn int
	rt.Run(func(p *orca.Proc) {
		f := p.New(std.FlagObj)
		p.Fork(2, "remote", func(wp *orca.Proc) {
			ranOn = wp.CPU()
			wp.Invoke(f, "set", true)
		})
		p.Invoke(f, "await")
	})
	if ranOn != 2 {
		t.Fatalf("remote fork ran on cpu %d, want 2", ranOn)
	}
}

func TestGroupStatsExposed(t *testing.T) {
	rt := orca.New(bcastCfg(3, 23), std.Register)
	rt.Run(func(p *orca.Proc) {
		o := p.New(std.IntObj)
		for i := 0; i < 5; i++ {
			p.Invoke(o, "assign", i)
		}
	})
	gs := rt.GroupStats()
	if len(gs) != 3 {
		t.Fatalf("group stats for %d members", len(gs))
	}
	if gs[0].Delivered == 0 {
		t.Fatal("no deliveries recorded")
	}
}
