package harness

import (
	"fmt"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/rts"
	"repro/internal/sim"
)

// cluster is the simulated stack below the runtimes, for the
// experiments that drive the kernel, group or point-to-point layer
// directly: an environment, one network, a machine on every node and,
// for the wire-level experiments, a group member on each.
type cluster struct {
	env *sim.Env
	net *netsim.Network
	ms  []*amoeba.Machine
	gs  []*group.Member
}

// newCluster builds an environment on seed, an n-node network on np
// and a machine with the default costs on each node, in that order;
// each, if not nil, is called on every machine as soon as it is built.
func newCluster(seed int64, n int, np netsim.Params, each func(c *cluster, m *amoeba.Machine)) *cluster {
	env := sim.New(seed)
	c := &cluster{env: env, net: netsim.New(env, n, np)}
	for i := 0; i < n; i++ {
		m := amoeba.NewMachine(env, c.net, i, amoeba.DefaultCosts())
		c.ms = append(c.ms, m)
		if each != nil {
			each(c, m)
		}
	}
	return c
}

// newProtoCluster is an n-member group, one member per machine, joined
// as each machine is built.
func newProtoCluster(seed int64, n int, cfgMut func(*group.Config)) *cluster {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	cfg := group.DefaultConfig(ids)
	cfg.Heartbeat = 0 // keep the wire clean for exact accounting
	cfg.StatusEvery = 0
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	return newCluster(seed, n, netsim.DefaultParams(), func(c *cluster, m *amoeba.Machine) { c.gs = append(c.gs, group.Join(m, cfg)) })
}

// consume spawns the delivery loop of every member from first on;
// each delivery is reported with its member and instant.
func (c *cluster) consume(first int, got func(node int, d group.Delivery, now sim.Time)) {
	for i := first; i < len(c.gs); i++ {
		c.ms[i].SpawnThread("consume", func(p *sim.Proc) {
			for {
				d, ok := c.gs[i].Deliveries().Get(p)
				if !ok {
					return
				}
				got(i, d, p.Now())
			}
		})
	}
}

// finish runs the cluster until the given instant and tears it down.
func (c *cluster) finish(until sim.Time) netsim.Stats {
	c.env.RunUntil(until)
	c.env.Stop()
	s := c.net.Stats()
	c.env.Shutdown()
	return s
}

// broadcasts sends count messages of size bytes from the last member
// of an n-machine group: back to back, or when paced each after the
// one before it was delivered everywhere. It returns the summed
// send-to-last-delivery latency of the paced messages, the instant of
// the last delivery, and the wire's counters.
func broadcasts(seed int64, n int, mut func(*group.Config), size, count int, paced bool) (latSum, last sim.Time, net netsim.Stats) {
	c := newProtoCluster(seed, n, mut)
	delivered := 0
	var sentAt sim.Time
	ready := sim.NewCond(c.env)
	c.consume(0, func(_ int, _ group.Delivery, now sim.Time) {
		last = now
		if delivered++; delivered%n == 0 {
			latSum += now - sentAt
			ready.Broadcast()
		}
	})
	c.ms[n-1].SpawnThread("send", func(p *sim.Proc) {
		for k := 0; k < count; k++ {
			sentAt = p.Now()
			c.gs[n-1].Broadcast(p, "m", k, size)
			for paced && delivered < (k+1)*n {
				ready.Wait(p)
			}
		}
	})
	net = c.finish(120 * sim.Second)
	return latSum, last, net
}

// wire is one broadcast on a 4-machine group, from a sender (node 3)
// that is not the sequencer (node 0): bytes on the wire, interrupts at
// a machine that is neither — the "user machines" of the paper's
// analysis — and the instant the last member delivered it.
type wire struct {
	bytes, intr int64
	latency     sim.Time
}

func oneBroadcast(method group.Method, size int) wire {
	_, last, s := broadcasts(7, 4, func(g *group.Config) { g.Method = method }, size, 1, false)
	return wire{s.WireBytes, s.Interrupts[1], last}
}

// pbbb reproduces the §3.1 protocol analysis: PB sends the message
// twice over the wire but interrupts each user machine once; BB sends
// it once plus a short Accept but interrupts twice. The implementation
// switches from PB to BB at one packet.
func pbbb(s Scale) Spec {
	type methods struct {
		pb, bb, auto wire
		picked       string // what Auto should have used at this size
	}
	t := Tab[methods]{
		Name: "methods",
		Cols: []string{"size", "pkts", "PB wire", "PB intr", "PB latency", "BB wire", "BB intr", "BB latency", "auto", "auto latency"},
		Cells: func(r Ran[methods]) []any {
			pb, bb := r.Res.pb, r.Res.bb
			return []any{pb.bytes, pb.intr, pb.latency, bb.bytes, bb.intr, bb.latency, r.Res.picked, r.Res.auto.latency}
		},
		Checks: []Check[methods]{each("auto is PB up to one packet, BB beyond", func(r Ran[methods]) error {
			want := r.Res.pb
			if r.Res.picked == "BB" {
				want = r.Res.bb
			}
			if r.Res.auto != want {
				return fmt.Errorf("auto measured %+v, %s measured %+v", r.Res.auto, r.Res.picked, want)
			}
			return nil
		})},
		Prose: `Paper: PB consumes 2m bandwidth with one interrupt per machine; BB
consumes m plus a short Accept with two interrupts; the system picks
PB for short messages and BB for long ones (over 1 packet).`,
	}
	for _, size := range at(s, []int{64, 256, 512, 1024, 1440, 2000, 4000, 8000}, []int{256, 1440, 4000}) {
		packets, picked := (size+24+1499)/1500, "PB"
		if packets > 1 {
			picked = "BB"
		}
		t.Rows = append(t.Rows, bare(func() methods {
			return methods{oneBroadcast(group.ForcePB, size), oneBroadcast(group.ForceBB, size), oneBroadcast(group.Auto, size), picked}
		}, size, packets))
	}
	return Spec{Title: `== PBBB: the PB vs BB broadcast methods (§3.1) ==
4 machines; sender is not the sequencer; 'user intr' is interrupts
at a machine that is neither sender nor sequencer.`, Tables: []Block{t}}
}

// p2pRun is what one p2pWorkload execution measured.
type p2pRun struct {
	Elapsed sim.Time
	Msgs    int64
	Stats   rts.RTSStats
}

// p2pWorkload drives a read/write mix over one object on a
// point-to-point cluster. It is the workload generator behind the
// RTSCMP and DYNREPL experiments.
func p2pWorkload(proto rts.P2PProtocol, placement rts.Placement, nodes, readsPerWrite, writeRun, rounds int) p2pRun {
	np := netsim.DefaultParams()
	np.BroadcastCapable = false
	c := newCluster(11, nodes, np, nil)
	reg := rts.NewRegistry()
	reg.Register(counterType())
	cfg := rts.DefaultP2PConfig()
	cfg.Protocol = proto
	cfg.Placement = placement
	r := rts.NewP2PRTS(reg, rts.DefaultCosts(), cfg, c.ms)

	var id rts.ObjID
	var start, end sim.Time
	doneCount := 0
	c.ms[0].SpawnThread("driver", func(p *sim.Proc) {
		w := rts.NewWorker(p, c.ms[0])
		id = r.Create(w, "counter")
		start = p.Now()
		for n := 1; n < nodes; n++ {
			c.ms[n].SpawnThread(fmt.Sprintf("w%d", n), func(p *sim.Proc) {
				w := rts.NewWorker(p, c.ms[n])
				// Reads and writes interleave continuously: every
				// node cycles through readsPerWrite reads; the
				// round's designated writer inserts a run of
				// writeRun consecutive writes, then reads on. A
				// little compute between operations keeps the nodes
				// drifting like real workers.
				for round := 0; round < rounds; round++ {
					if n == 1+(round%(nodes-1)) {
						for k := 0; k < writeRun; k++ {
							r.Call(w, id, "inc", rts.Args{})
							w.Charge(200 * sim.Microsecond)
						}
					}
					for k := 0; k < readsPerWrite; k++ {
						r.Call(w, id, "get", rts.Args{})
						w.Charge(sim.Time(100+n*37) * sim.Microsecond)
					}
				}
				w.Flush()
				doneCount++
				if doneCount == nodes-1 {
					end = p.Now()
				}
			})
		}
	})
	stats := c.finish(600 * sim.Second)
	return p2pRun{end - start, stats.Messages, r.Counters()}
}

// counterType is a small int object for the protocol workloads.
func counterType() *rts.ObjectType {
	type cState struct{ v int }
	return &rts.ObjectType{
		Name:   "counter",
		New:    func([]any) rts.State { return &cState{} },
		Clone:  func(s rts.State) rts.State { c := *s.(*cState); return &c },
		SizeOf: func(rts.State) int { return 8 },
		Ops: map[string]*rts.OpDef{
			"get": {Name: "get", Kind: rts.Read,
				Apply: func(_ *sim.Env, s rts.State, _ rts.Args) rts.Args { return rts.ArgsOf(s.(*cState).v) }},
			"inc": {Name: "inc", Kind: rts.Write,
				Apply: func(_ *sim.Env, s rts.State, _ rts.Args) rts.Args { s.(*cState).v++; return rts.Args{} }},
		},
	}
}

// rtscmp reproduces §3.2.2's update-vs-invalidation comparison across
// workloads: "Comparisons of update and invalidation did not show a
// clear winner. Which one is better depends on the problem being
// solved."
func rtscmp(s Scale) Spec {
	type both struct{ update, inval p2pRun }
	nodes, rounds := at(s, 6, 3), at(s, 12, 4)
	t := Tab[both]{
		Name: "protocols",
		Cols: []string{"workload", "update time", "update msgs", "inval time", "inval msgs", "winner"},
		Cells: func(r Ran[both]) []any {
			up, in, winner := r.Res.update, r.Res.inval, "update"
			if in.Elapsed < up.Elapsed {
				winner = "invalidate"
			}
			return []any{up.Elapsed, up.Msgs, in.Elapsed, in.Msgs, winner}
		},
		Prose: `Paper: no clear winner; updating is better more often than
invalidation, but which is better depends on the problem.`,
	}
	mixes := []struct {
		name                    string
		readsPerWrite, writeRun int
	}{
		{"read-heavy (32 reads/write)", 32, 1},
		{"mixed (8 reads/write)", 8, 1},
		{"write-runs (3 writes, 4 reads)", 4, 3},
		{"write-heavy (1 read, 6-write runs)", 1, 6},
	}
	for _, m := range mixes[:at(s, 4, 2)] {
		t.Rows = append(t.Rows, bare(func() both {
			return both{
				p2pWorkload(rts.Update, rts.DynamicPlacement, nodes, m.readsPerWrite, m.writeRun, rounds),
				p2pWorkload(rts.Invalidation, rts.DynamicPlacement, nodes, m.readsPerWrite, m.writeRun, rounds),
			}
		}, m.name))
	}
	return Spec{Title: "== RTSCMP: update vs invalidation protocols, point-to-point RTS (§3.2.2) ==", Tables: []Block{t}}
}

// dynrepl shows the dynamic replication policy (§3.2.2): read/write-
// ratio thresholds drive per-machine copy placement, against the
// static single-copy and full-replication baselines.
func dynrepl(s Scale) Spec {
	nodes, rounds := at(s, 6, 3), at(s, 12, 4)
	t := Tab[p2pRun]{
		Name: "placements",
		Cols: []string{"placement", "time", "msgs", "local reads", "remote reads", "fetches", "discards"},
		Cells: func(r Ran[p2pRun]) []any {
			st := r.Res.Stats
			return []any{r.Res.Elapsed, r.Res.Msgs, st.LocalReads, st.RemoteReads, st.Fetches, st.Discards}
		},
		Prose: `Paper: initially one copy; a machine fetches a copy when its
read/write ratio exceeds a threshold and discards it when the ratio
falls below another threshold.`,
	}
	for _, pl := range []rts.Placement{rts.SingleCopy, rts.FullReplication, rts.DynamicPlacement} {
		t.Rows = append(t.Rows, bare(func() p2pRun { return p2pWorkload(rts.Update, pl, nodes, 24, 1, rounds) }, pl))
	}
	return Spec{Title: "== DYNREPL: dynamic replication from read/write statistics (§3.2.2) ==", Tables: []Block{t}}
}

// micro reports kernel-level microbenchmarks: null RPC and
// totally-ordered broadcast latency/throughput versus group size.
func micro(s Scale) Spec {
	type rpc struct {
		rtt sim.Time
		err error
	}
	null := Tab[rpc]{
		Name: "rpc",
		Rows: []Row[rpc]{bare(func() rpc {
			c := newCluster(3, 2, netsim.DefaultParams(), nil)
			m0, m1 := c.ms[0], c.ms[1]
			srv := amoeba.NewServer(m1, "null")
			m1.SpawnThread("server", func(p *sim.Proc) {
				for {
					r, ok := srv.GetRequest(p)
					if !ok {
						return
					}
					srv.PutReply(p, r, nil, 0)
				}
			})
			cl := amoeba.NewClient(m0, amoeba.DefaultRPCPolicy())
			var out rpc
			m0.SpawnThread("client", func(p *sim.Proc) {
				const n = 100
				start := p.Now()
				for i := 0; i < n && out.err == nil; i++ {
					_, out.err = cl.Trans(p, 1, "null", "nop", nil, 0)
				}
				out.rtt = (p.Now() - start) / n
			})
			c.finish(60 * sim.Second)
			return out
		}, "null RPC")},
		Summary: func(rows []Ran[rpc]) string {
			return fmt.Sprintf("  null RPC round trip: %v (Amoeba reported ~1.2ms on this class)", rows[0].Res.rtt)
		},
		Checks: []Check[rpc]{{"every transaction completes", func(rows []Ran[rpc]) error { return rows[0].Res.err }}},
	}

	type bcasts struct {
		latency sim.Time // send to the last member's delivery, one at a time
		rate    float64  // per second, a blast of back-to-back broadcasts
	}
	groups := Tab[bcasts]{
		Name:  "broadcast",
		Cols:  []string{"group size", "latency/broadcast", "broadcasts/sec (blast)"},
		Cells: func(r Ran[bcasts]) []any { return []any{r.Res.latency, fmt.Sprintf("%.0f", r.Res.rate)} },
	}
	for _, n := range at(s, []int{2, 4, 8, 16}, []int{2, 4}) {
		groups.Rows = append(groups.Rows, bare(func() bcasts {
			const msgs, blast = 20, 200
			latSum, _, _ := broadcasts(5, n, nil, 128, msgs, true)
			_, doneAt, _ := broadcasts(6, n, nil, 128, blast, false)
			return bcasts{latSum / msgs, blast / doneAt.Seconds()}
		}, n))
	}
	return Spec{Title: "== MICRO: kernel communication primitives ==", Tables: []Block{null, groups}}
}
