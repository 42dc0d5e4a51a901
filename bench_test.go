package repro

// One benchmark per reproduced table/figure. Each benchmark runs a
// reduced instance of the corresponding experiment and reports the
// key virtual-time metrics alongside the host-time measurement, so
// `go test -bench=. -benchmem` regenerates the whole evaluation in
// miniature. The full-size sweeps live in cmd/orca-bench.

import (
	"testing"

	"repro/internal/apps/acp"
	"repro/internal/apps/atpg"
	"repro/internal/apps/chess"
	"repro/internal/apps/tsp"
	"repro/internal/group"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/rts"
	"repro/internal/sim"

	amoebapkg "repro/internal/amoeba"
)

// BenchmarkFig2TSP measures the paper's Figure 2 workload: replicated
// worker branch-and-bound at 1 vs 8 processors.
func BenchmarkFig2TSP(b *testing.B) {
	inst := tsp.Generate(12, 5)
	for _, procs := range []int{1, 8} {
		procs := procs
		b.Run(map[int]string{1: "P1", 8: "P8"}[procs], func(b *testing.B) {
			var elapsed sim.Time
			for i := 0; i < b.N; i++ {
				r := tsp.RunOrca(orca.Config{Processors: procs, RTS: orca.Broadcast, Seed: 1},
					inst, tsp.Params{})
				elapsed = r.Report.Elapsed
			}
			b.ReportMetric(elapsed.Seconds(), "virtual-s")
		})
	}
}

// BenchmarkFig3ACP measures the Figure 3 workload: arc consistency
// with shared domain objects.
func BenchmarkFig3ACP(b *testing.B) {
	inst := acp.GeneratePropagation(32, 32, 20, 2)
	for _, procs := range []int{1, 8} {
		procs := procs
		b.Run(map[int]string{1: "P1", 8: "P8"}[procs], func(b *testing.B) {
			var elapsed sim.Time
			for i := 0; i < b.N; i++ {
				r := acp.RunOrca(orca.Config{Processors: procs, RTS: orca.Broadcast, Seed: 1},
					inst, acp.Params{})
				elapsed = r.Report.Elapsed
			}
			b.ReportMetric(elapsed.Seconds(), "virtual-s")
		})
	}
}

// BenchmarkChess measures §4.3: parallel alpha-beta with shared vs
// local tables.
func BenchmarkChess(b *testing.B) {
	board, err := chess.FromFEN("r1bq1rk1/pp1n1ppp/2pbpn2/3p4/2PP4/2NBPN2/PP3PPP/R1BQ1RK1 w - - 0 1")
	if err != nil {
		b.Fatal(err)
	}
	for _, shared := range []bool{true, false} {
		shared := shared
		name := "LocalTables"
		if shared {
			name = "SharedTables"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed sim.Time
			for i := 0; i < b.N; i++ {
				r := chess.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1},
					board, chess.Params{MaxDepth: 4, SharedTT: shared, SharedKiller: shared})
				elapsed = r.Report.Elapsed
			}
			b.ReportMetric(elapsed.Seconds(), "virtual-s")
		})
	}
}

// BenchmarkATPG measures §4.4 in all three modes.
func BenchmarkATPG(b *testing.B) {
	c := atpg.Generate(16, 6, 30, 42)
	faults := atpg.AllFaults(c)
	for _, mode := range []atpg.Mode{atpg.Static, atpg.StaticFaultSim, atpg.DynamicFaultSim} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var elapsed sim.Time
			for i := 0; i < b.N; i++ {
				r := atpg.RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1},
					c, faults, atpg.Params{Mode: mode})
				elapsed = r.Report.Elapsed
			}
			b.ReportMetric(elapsed.Seconds(), "virtual-s")
		})
	}
}

// benchGroupRound runs one totally-ordered broadcast round over n
// machines with the given method and payload size, returning virtual
// latency.
func benchGroupRound(method group.Method, size int) sim.Time {
	env := sim.New(7)
	nw := netsim.New(env, 4, netsim.DefaultParams())
	ids := []int{0, 1, 2, 3}
	cfg := group.DefaultConfig(ids)
	cfg.Method = method
	cfg.Heartbeat = 0
	var ms []*amoebapkg.Machine
	var gs []*group.Member
	for i := 0; i < 4; i++ {
		m := amoebapkg.NewMachine(env, nw, i, amoebapkg.DefaultCosts())
		ms = append(ms, m)
		gs = append(gs, group.Join(m, cfg))
	}
	var last sim.Time
	for i := 0; i < 4; i++ {
		i := i
		ms[i].SpawnThread("consume", func(p *sim.Proc) {
			for {
				if _, ok := gs[i].Deliveries().Get(p); !ok {
					return
				}
				last = p.Now()
			}
		})
	}
	ms[3].SpawnThread("send", func(p *sim.Proc) {
		gs[3].Broadcast(p, "m", "x", size)
	})
	env.RunUntil(2 * sim.Second)
	env.Stop()
	env.Shutdown()
	return last
}

// BenchmarkPBvsBB measures §3.1: one broadcast under each method at a
// short and a long payload.
func BenchmarkPBvsBB(b *testing.B) {
	cases := []struct {
		name   string
		method group.Method
		size   int
	}{
		{"PB-short", group.ForcePB, 256},
		{"BB-short", group.ForceBB, 256},
		{"PB-long", group.ForcePB, 4000},
		{"BB-long", group.ForceBB, 4000},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var lat sim.Time
			for i := 0; i < b.N; i++ {
				lat = benchGroupRound(tc.method, tc.size)
			}
			b.ReportMetric(lat.Milliseconds(), "virtual-ms")
		})
	}
}

// BenchmarkUpdateVsInvalidate measures §3.2.2's protocol comparison on
// a read-heavy workload.
func BenchmarkUpdateVsInvalidate(b *testing.B) {
	for _, proto := range []rts.P2PProtocol{rts.Update, rts.Invalidation} {
		proto := proto
		b.Run(proto.String(), func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				t = harness.P2PWorkload(proto, rts.DynamicPlacement, 4, 16, 1, 6).Elapsed
			}
			b.ReportMetric(t.Milliseconds(), "virtual-ms")
		})
	}
}

// BenchmarkDynamicReplication measures the replica-placement policies.
func BenchmarkDynamicReplication(b *testing.B) {
	for _, pl := range []rts.Placement{rts.SingleCopy, rts.FullReplication, rts.DynamicPlacement} {
		pl := pl
		b.Run(pl.String(), func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				t = harness.P2PWorkload(rts.Update, pl, 4, 16, 1, 6).Elapsed
			}
			b.ReportMetric(t.Milliseconds(), "virtual-ms")
		})
	}
}

// BenchmarkGroupBroadcast measures raw total-order broadcast rounds.
func BenchmarkGroupBroadcast(b *testing.B) {
	var lat sim.Time
	for i := 0; i < b.N; i++ {
		lat = benchGroupRound(group.Auto, 128)
	}
	b.ReportMetric(lat.Milliseconds(), "virtual-ms")
}

// BenchmarkGroupSend measures one broadcast from member 1 of a
// sixteen-member group under each sequencing protocol, as bench/'s
// group rungs do: 128-byte messages, the driver waiting for member 1's
// delivery after every send (after every sixteenth in the batched
// case, whose frames carry up to the orca default capacity). Allocations
// are counted from the first send on, so a run of few iterations also
// pays for the rings' first growth.
func BenchmarkGroupSend(b *testing.B) {
	const n, payload = 16, 128
	cases := []struct {
		name    string
		method  group.Method
		proto   group.Protocol
		batched bool
	}{
		{"pb16", group.ForcePB, group.ElectedSequencer, false},
		{"bb16", group.ForceBB, group.ElectedSequencer, false},
		{"consensus16", group.ForcePB, group.Consensus, false},
		{"pb16_batched", group.ForcePB, group.ElectedSequencer, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			env := sim.New(1)
			nw := netsim.New(env, n, netsim.DefaultParams())
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			cfg := group.DefaultConfig(ids)
			cfg.Method, cfg.Protocol = tc.method, tc.proto
			burst := 1
			if tc.batched {
				bc := orca.DefaultBatching()
				cfg.Batch = group.BatchConfig{MaxOps: bc.MaxOps, MaxBytes: bc.MaxBytes, Linger: bc.Linger}
				cfg.StatusEvery *= bc.MaxOps
				burst = 16
			}
			gs := make([]*group.Member, n)
			ms := make([]*amoebapkg.Machine, n)
			for i := range ms {
				ms[i] = amoebapkg.NewMachine(env, nw, i, amoebapkg.DefaultCosts())
				gs[i] = group.Join(ms[i], cfg)
			}
			c := sim.NewCond(env)
			var last int64 // uid of the latest delivery on machine 1
			for i, m := range ms {
				m.SpawnThread("consume", func(p *sim.Proc) {
					for {
						d, ok := gs[i].Deliveries().Get(p)
						if !ok {
							return
						}
						if i == 1 {
							last = d.UID
							c.Signal()
						}
					}
				})
			}
			var v0, v1 sim.Time
			var e0, e1 int64
			ms[1].SpawnThread("drive", func(p *sim.Proc) {
				b.ResetTimer()
				v0, e0 = env.Now(), env.Events()
				for i := 0; i < b.N; i++ {
					uid := gs[1].Broadcast(p, "bench", nil, payload)
					if (i+1)%burst == 0 || i == b.N-1 {
						for last != uid {
							c.Wait(p)
						}
					}
				}
				b.StopTimer()
				v1, e1 = env.Now(), env.Events()
				env.Stop()
			})
			env.Run()
			env.Shutdown()
			b.ReportMetric((v1-v0).Microseconds()/float64(b.N), "virtual-us/op")
			b.ReportMetric(float64(e1-e0)/float64(b.N), "events/op")
		})
	}
}

// BenchmarkRPC measures the null RPC round trip.
func BenchmarkRPC(b *testing.B) {
	var rtt sim.Time
	for i := 0; i < b.N; i++ {
		env := sim.New(3)
		nw := netsim.New(env, 2, netsim.DefaultParams())
		m0 := amoebapkg.NewMachine(env, nw, 0, amoebapkg.DefaultCosts())
		m1 := amoebapkg.NewMachine(env, nw, 1, amoebapkg.DefaultCosts())
		srv := amoebapkg.NewServer(m1, "null")
		m1.SpawnThread("server", func(p *sim.Proc) {
			for {
				r, ok := srv.GetRequest(p)
				if !ok {
					return
				}
				srv.PutReply(p, r, nil, 0)
			}
		})
		cl := amoebapkg.NewClient(m0, amoebapkg.DefaultRPCPolicy())
		m0.SpawnThread("client", func(p *sim.Proc) {
			start := p.Now()
			if _, err := cl.Trans(p, 1, "null", "nop", nil, 0); err != nil {
				panic(err)
			}
			rtt = p.Now() - start
		})
		env.RunUntil(sim.Second)
		env.Stop()
		env.Shutdown()
	}
	b.ReportMetric(rtt.Milliseconds(), "virtual-ms")
}

// BenchmarkOrcaOps measures the core object-operation primitives of
// the broadcast runtime through the typed descriptors (std.Counter): a
// local read and a broadcast write.
func BenchmarkOrcaOps(b *testing.B) {
	run := func(b *testing.B, op func(p *orca.Proc, c std.Counter, i int)) sim.Time {
		rt := orca.New(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}, std.Register)
		var per sim.Time
		rt.Run(func(p *orca.Proc) {
			c := std.NewCounter(p, 0)
			start := p.Now()
			for i := 0; i < b.N; i++ {
				op(p, c, i)
			}
			per = (p.Now() - start) / sim.Time(b.N)
		})
		return per
	}
	b.Run("LocalRead", func(b *testing.B) {
		per := run(b, func(p *orca.Proc, c std.Counter, _ int) { c.Value(p) })
		b.ReportMetric(per.Microseconds(), "virtual-µs/op")
	})
	b.Run("BroadcastWrite", func(b *testing.B) {
		per := run(b, func(p *orca.Proc, c std.Counter, i int) { c.Assign(p, i) })
		b.ReportMetric(per.Microseconds(), "virtual-µs/op")
	})
}
