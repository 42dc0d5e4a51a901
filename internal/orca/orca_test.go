package orca_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/rts"
	"repro/internal/sim"
)

func bcastCfg(n int, seed int64) orca.Config {
	return orca.Config{Processors: n, RTS: orca.Broadcast, Seed: seed}
}

// cellState is these tests' own shared integer, for what the std
// wrappers do not offer: typed fences and a guarded write.
type cellState struct{ v int }

var (
	cellB = orca.NewType("test.cell", func(args []any) *cellState {
		s := &cellState{}
		if len(args) > 0 {
			s.v = args[0].(int)
		}
		return s
	}).
		CloneWith(func(s *cellState) *cellState { c := *s; return &c }).
		SizedBy(func(*cellState) int { return 8 })

	cellAdd    = orca.DefWrite(cellB, "add", func(s *cellState, d int) int { s.v += d; return s.v })
	cellInc    = orca.DefWrite0(cellB, "inc", func(s *cellState) int { s.v++; return s.v })
	cellAssign = orca.DefUpdate(cellB, "assign", func(s *cellState, v int) { s.v = v })
	cellValue  = orca.DefRead0(cellB, "value", func(s *cellState) int { return s.v })
	// cellAwaitGE blocks until the value reaches the argument.
	cellAwaitGE = orca.DefRead(cellB, "awaitGE", func(s *cellState, _ int) int { return s.v }).
			Guard(func(s *cellState, n int) bool { return s.v >= n })
	// cellAddPositive adds once the value is positive: a guarded write.
	cellAddPositive = orca.DefWrite(cellB, "addPositive", func(s *cellState, d int) int { s.v += d; return s.v }).
			Guard(func(s *cellState, _ int) bool { return s.v > 0 })
)

// withCells registers the standard types and the cell type.
func withCells(reg *rts.Registry) {
	std.Register(reg)
	cellB.Register(reg)
}

func TestRunSimpleProgram(t *testing.T) {
	rt := orca.New(bcastCfg(2, 1), std.Register)
	var final int
	rep := rt.Run(func(p *orca.Proc) {
		o := std.NewCounter(p, 10)
		o.Add(p, 5)
		final = o.Value(p)
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
		counter := std.NewZeroCounter(p)
		done := std.NewBarrier(p, workers)
		for i := 0; i < workers; i++ {
			i := i
			p.Fork(i, fmt.Sprintf("worker%d", i), func(wp *orca.Proc) {
				cpus[i] = wp.CPU()
				counter.Inc(wp)
				done.Arrive(wp)
			})
		}
		done.Wait(p)
		if got := counter.Value(p); got != workers {
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
			done := std.NewBarrier(p, procs)
			for i := 0; i < procs; i++ {
				p.Fork(i, fmt.Sprintf("w%d", i), func(wp *orca.Proc) {
					wp.Work(sim.Second / sim.Time(procs) * 16) // fixed total
					done.Arrive(wp)
				})
			}
			done.Wait(p)
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
				q := std.NewQueue[int](p)
				acc := std.NewAccum(p)
				fin := std.NewBarrier(p, workers)
				for i := 1; i <= workers; i++ {
					p.Fork(i, fmt.Sprintf("worker%d", i), func(wp *orca.Proc) {
						local := 0
						for {
							j, ok := q.Get(wp)
							if !ok {
								break
							}
							local += j
							wp.Work(time1ms)
						}
						acc.Add(wp, local)
						fin.Arrive(wp)
					})
				}
				for j := 1; j <= jobs; j++ {
					q.Add(p, j)
				}
				q.Close(p)
				fin.Wait(p)
				sum = acc.Value(p)
			})
			want := jobs * (jobs + 1) / 2
			if sum != want {
				t.Fatalf("sum = %d, want %d", sum, want)
			}
		})
	}
}

const time1ms = sim.Millisecond

func TestFlagAwaitAcrossRTS(t *testing.T) {
	for _, kind := range []orca.RTSKind{orca.Broadcast, orca.P2PUpdate} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rt := orca.New(orca.Config{Processors: 2, RTS: kind, Seed: 6}, std.Register)
			var awoke sim.Time
			var setAt sim.Time
			rt.Run(func(p *orca.Proc) {
				f := std.NewFlag(p, false)
				p.Fork(1, "waiter", func(wp *orca.Proc) {
					f.Await(wp)
					awoke = wp.Now()
				})
				p.Sleep(300 * sim.Millisecond)
				setAt = p.Now()
				f.Set(p, true)
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
		work := std.NewBoolArray(p, items, true)
		fin := std.NewBarrier(p, workers)
		for wdx := 0; wdx < workers; wdx++ {
			p.Fork(wdx, fmt.Sprintf("w%d", wdx), func(wp *orca.Proc) {
				for i := 0; i < items; i++ {
					if work.Claim(wp, i) {
						claims[i]++
					}
				}
				fin.Arrive(wp)
			})
		}
		fin.Wait(p)
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
		tab := std.NewTable(p, 128)
		tab.Store(p, 12345, -77)
		p.Fork(1, "reader", func(wp *orca.Proc) {
			if v, ok := tab.Lookup(wp, 12345); !ok || v != -77 {
				t.Errorf("lookup = (%d, %v)", v, ok)
			}
			if _, ok := tab.Lookup(wp, 999); ok {
				t.Error("expected miss")
			}
		})
	})
}

func TestKillerTable(t *testing.T) {
	rt := orca.New(bcastCfg(1, 9), std.Register)
	rt.Run(func(p *orca.Proc) {
		k := std.NewKiller(p, 8)
		k.Add(p, 3, 111)
		k.Add(p, 3, 222)
		if m0, m1 := k.Get(p, 3); m0 != 222 || m1 != 111 {
			t.Errorf("killer moves = [%d %d], want [222 111]", m0, m1)
		}
	})
}

func TestBitSetAddMany(t *testing.T) {
	rt := orca.New(bcastCfg(2, 10), std.Register)
	rt.Run(func(p *orca.Proc) {
		s := std.NewBitSet(p, 1000)
		added := s.AddMany(p, []int{1, 5, 900, 5})
		if added != 3 {
			t.Errorf("added = %d, want 3 (one duplicate)", added)
		}
		if !s.Contains(p, 900) {
			t.Error("missing 900")
		}
		if s.Contains(p, 2) {
			t.Error("unexpected 2")
		}
		if n := s.Count(p); n != 3 {
			t.Errorf("count = %d", n)
		}
	})
}

// TestTimeoutDetection: a run stops after an hour of virtual time, and
// reports a program still running then as timed out, naming the
// processes it left parked — the Orca processes, and nothing of the
// runtime's, which has no process of its own: not even when the flag's
// one replica is on node 0, and the waiter's guarded read waits at that
// holder as a forwarded operation.
func TestTimeoutDetection(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []orca.Option
	}{
		{"replicated", nil},
		{"forwarded", orca.Opts(orca.At(0))},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := orca.New(bcastCfg(2, 11), std.Register)
			rep := rt.Run(func(p *orca.Proc) {
				f := std.NewFlag(p, false, c.opts...)
				p.Fork(1, "waiter", func(wp *orca.Proc) {
					f.Await(wp) // never set: deadlock by design
				})
				p.Sleep(2 * 3600 * sim.Second) // outlives the hour
			})
			if !rep.TimedOut || rep.Elapsed != 3600*sim.Second {
				t.Fatalf("timed out %v after %v; want a timeout after an hour", rep.TimedOut, rep.Elapsed)
			}
			if got := fmt.Sprint(rep.Blocked); got != "[node0/main node1/waiter]" {
				t.Errorf("blocked: %s, want the main process sleeping and the waiter", got)
			}
		})
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
		o := std.NewZeroCounter(p)
		for i := 0; i < 10; i++ {
			o.Assign(p, i)
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
			q := std.NewQueue[int](p)
			fin := std.NewBarrier(p, 3)
			for i := 1; i <= 3; i++ {
				p.Fork(i, fmt.Sprintf("w%d", i), func(wp *orca.Proc) {
					for {
						j, ok := q.Get(wp)
						if !ok {
							break
						}
						wp.Work(sim.Time(j) * 100 * sim.Microsecond)
					}
					fin.Arrive(wp)
				})
			}
			for j := 1; j <= 40; j++ {
				q.Add(p, j)
			}
			q.Close(p)
			fin.Wait(p)
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
		std.NewZeroCounter(p, orca.With(orca.Replicated), orca.At(0))
	})
}

func TestPartialPlacement(t *testing.T) {
	rt := orca.New(bcastCfg(4, 21), std.Register)
	var forwarded bool
	rt.Run(func(p *orca.Proc) {
		o := std.NewCounter(p, 3, orca.At(0, 1))
		p.Fork(3, "outsider", func(wp *orca.Proc) {
			// Node 3 holds no replica: the operation forwards and
			// still returns the right answer.
			if got := o.Value(wp); got != 3 {
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
		f := std.NewFlag(p, false)
		p.Fork(2, "remote", func(wp *orca.Proc) {
			ranOn = wp.CPU()
			f.Set(wp, true)
		})
		f.Await(p)
	})
	if ranOn != 2 {
		t.Fatalf("remote fork ran on cpu %d, want 2", ranOn)
	}
}

func TestGroupStatsExposed(t *testing.T) {
	rt := orca.New(bcastCfg(3, 23), std.Register)
	rt.Run(func(p *orca.Proc) {
		o := std.NewZeroCounter(p)
		for i := 0; i < 5; i++ {
			o.Assign(p, i)
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
