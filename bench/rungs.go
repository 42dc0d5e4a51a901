package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/rts"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The layer ladder: isolated rungs, each a driver that calls one
// layer's public functions with everything below it real, for a fixed
// number of operations. Every multi-machine rung has 16 machines, the
// operation issued from machine 1 (machine 0 sequences and holds the
// primary copy) and a 128-byte payload handed to the layer under test,
// so that a rung less the rung below it is what its layer adds.

const (
	rungMachines = 16
	rungPayload  = 128
	spanOps      = 128 // operations per rung that get a span of their own
)

// span is one traced call into a layer's public function.
type span struct {
	ID, Parent     int // Parent is the ID of the rung's whole-run span, -1 for that span itself
	Op             int // operation index within the rung
	Name, Layer    string
	VStart, VEnd   sim.Time
	WStart, WEnd   time.Duration // since the tracer's epoch
	rungIdx, count int
}

// tracer keeps spans in memory until the command ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// rungResult is one rung's figures per operation.
type rungResult struct {
	Name           string  `json:"name"`
	Ops            int     `json:"ops"`
	WallNsPerOp    float64 `json:"wall_ns_per_op"`
	EventsPerOp    float64 `json:"events_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	VirtualUsPerOp float64 `json:"virtual_us_per_op"`
}

func layerOf(rung string) string { return rung[:strings.IndexByte(rung, '.')] }

// probe measures a rung from inside its driving process, so that
// building the machines is not counted.
type probe struct {
	tr    *tracer
	idx   int
	name  string
	per   int // operations one driver iteration stands for
	burst int // iterations that complete together (batched rungs)
	res   rungResult
}

// drive runs iters driver iterations through ops, which performs
// iterations [from, to) in a plain loop. The first spanOps iterations
// are made one call at a time with a span around each; the rest go in
// one call, so the loop under test carries no tracing.
func (pb *probe) drive(now func() sim.Time, events func() int64, iters int, ops func(from, to int)) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0, v0, w0 := events(), now(), time.Now()
	whole := pb.tr.add(span{Parent: -1, Name: pb.name, Layer: layerOf(pb.name), VStart: v0,
		WStart: w0.Sub(pb.tr.epoch), rungIdx: pb.idx, count: iters * pb.per})
	traced := min(iters, spanOps) / pb.burst * pb.burst
	for i := 0; i < traced; i += pb.burst {
		vs, ws := now(), time.Now()
		ops(i, i+pb.burst)
		pb.tr.add(span{Parent: whole, Op: i, Name: pb.name, Layer: layerOf(pb.name), VStart: vs, VEnd: now(),
			WStart: ws.Sub(pb.tr.epoch), WEnd: time.Since(pb.tr.epoch), rungIdx: pb.idx, count: pb.burst * pb.per})
	}
	ops(traced, iters)
	v1, wall, e1 := now(), time.Since(w0), events()
	runtime.ReadMemStats(&m1)
	pb.tr.spans[whole].VEnd, pb.tr.spans[whole].WEnd = v1, w0.Add(wall).Sub(pb.tr.epoch)
	n := float64(iters * pb.per)
	pb.res = rungResult{Name: pb.name, Ops: iters * pb.per,
		WallNsPerOp:    float64(wall.Nanoseconds()) / n,
		EventsPerOp:    float64(e1-e0) / n,
		AllocsPerOp:    float64(m1.Mallocs-m0.Mallocs) / n,
		VirtualUsPerOp: (v1 - v0).Microseconds() / n,
	}
}

// rung is one entry of the ladder.
type rung struct {
	name    string
	iters   int  // driver iterations at scale 1
	per     int  // 0 means 1
	burst   int  // 0 means 1
	virtual bool // the rung has virtual time and events to report
	run     func(pb *probe, iters int)
}

// world is 16 bare machines on the default Ethernet.
func world() (*sim.Env, *netsim.Network, []*amoeba.Machine) {
	e := sim.New(1)
	nw := netsim.New(e, rungMachines, netsim.DefaultParams())
	ms := make([]*amoeba.Machine, rungMachines)
	for i := range ms {
		ms[i] = amoeba.NewMachine(e, nw, i, amoeba.DefaultCosts())
	}
	return e, nw, ms
}

// finish runs the environment until the driver stops it, then reaps
// the threads still parked.
func finish(e *sim.Env) {
	e.Run()
	e.Shutdown()
}

// blob is the shared object the write and remote-read rungs use: one
// byte slice, sized so that a set is rungPayload bytes when the runtime
// hands it to the group layer (rts adds 4 bytes for the argument list,
// 4 for the slice, the operation name and a 16-byte header).
type blobState struct{ b []byte }

const blobName = "bench.blob"

var (
	blobB = orca.NewType(blobName, func([]any) *blobState { return &blobState{} }).
		CloneWith(func(s *blobState) *blobState { return &blobState{b: s.b} }).
		SizedBy(func(s *blobState) int { return 4 + len(s.b) })
	blobSet     = orca.DefUpdate(blobB, "set", func(s *blobState, v []byte) { s.b = v })
	blobGet     = orca.DefRead0(blobB, "get", func(s *blobState) []byte { return s.b })
	blobPayload = make([]byte, rungPayload-4-4-len("set")-16)
)

func registerBlob(reg *rts.Registry) {
	std.Register(reg)
	blobB.Register(reg)
}

func memberIDs() []int {
	ids := make([]int, rungMachines)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func joinAll(ms []*amoeba.Machine, cfg group.Config) []*group.Member {
	gs := make([]*group.Member, len(ms))
	for i, m := range ms {
		gs[i] = group.Join(m, cfg)
	}
	return gs
}

// batchConfig is orca.DefaultBatching at the group layer, with the
// sparser status reports orca.New gives a batched group.
func batchConfig(cfg group.Config) group.Config {
	b := orca.DefaultBatching()
	cfg.Batch = group.BatchConfig{MaxOps: b.MaxOps, MaxBytes: b.MaxBytes, Linger: b.Linger}
	cfg.StatusEvery *= b.MaxOps
	return cfg
}

// onAll counts deliveries at the 15 receivers of a broadcast and wakes
// the driver at the last.
func onAll(c *sim.Cond) func() {
	got := 0
	return func() {
		if got++; got == rungMachines-1 {
			got = 0
			c.Signal()
		}
	}
}

func groupRung(method group.Method, proto group.Protocol, batched bool) func(pb *probe, iters int) {
	return func(pb *probe, iters int) {
		e, _, ms := world()
		cfg := group.DefaultConfig(memberIDs())
		cfg.Method, cfg.Protocol = method, proto
		if batched {
			cfg = batchConfig(cfg)
		}
		gs := joinAll(ms, cfg)
		c := sim.NewCond(e)
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
		ms[1].SpawnThread("drive", func(p *sim.Proc) {
			pb.drive(e.Now, e.Events, iters, func(from, to int) {
				for i := from; i < to; i++ {
					uid := gs[1].Broadcast(p, "bench", nil, rungPayload)
					if (i+1)%pb.burst == 0 || i == to-1 {
						for last != uid {
							c.Wait(p)
						}
					}
				}
			})
			e.Stop()
		})
		finish(e)
	}
}

// orcaRung runs body as a process on machine 1 of a 16-machine
// orca.Runtime, after the main process on machine 0 has made a blob.
func orcaRung(cfg orca.Config, opts []orca.Option, body func(p *orca.Proc, b orca.Handle[*blobState], pb *probe, iters int)) func(pb *probe, iters int) {
	return func(pb *probe, iters int) {
		cfg.Processors, cfg.Seed = rungMachines, 1
		rt := orca.New(cfg, registerBlob)
		rt.Run(func(p *orca.Proc) {
			b := blobB.NewWith(p, opts)
			blobSet.Call(p, b, blobPayload)
			p.Fork(1, "drive", func(wp *orca.Proc) { body(wp, b, pb, iters) })
		})
	}
}

func orcaWrites(p *orca.Proc, b orca.Handle[*blobState], pb *probe, iters int) {
	pb.drive(p.Now, p.Runtime().Env().Events, iters, func(from, to int) {
		for i := from; i < to; i++ {
			blobSet.Call(p, b, blobPayload)
		}
		// A combined write completes asynchronously; reading the
		// object back waits for the writes still buffered.
		blobGet.Call(p, b)
	})
}

var singleCopy = orca.Opts(orca.With(orca.PrimaryCopy{Protocol: orca.Update, Placement: orca.SingleCopy}))

var rungs = []rung{
	{name: "sim.yield", iters: 8_000_000, run: func(pb *probe, iters int) {
		e := sim.New(1)
		e.Spawn("yield", func(p *sim.Proc) {
			pb.drive(e.Now, e.Events, iters, func(from, to int) {
				for i := from; i < to; i++ {
					p.Yield()
				}
			})
		})
		finish(e)
	}},
	{name: "sim.handoff", iters: 200_000, per: 2, run: func(pb *probe, iters int) {
		e := sim.New(1)
		yields := func(from, to int, p *sim.Proc) {
			for i := from; i < to; i++ {
				p.Yield()
			}
		}
		e.Spawn("a", func(p *sim.Proc) {
			pb.drive(e.Now, e.Events, iters, func(from, to int) { yields(from, to, p) })
		})
		e.Spawn("b", func(p *sim.Proc) { yields(0, iters, p) })
		finish(e)
	}},
	{name: "sim.sleep", iters: 25_000, per: rungMachines, run: func(pb *probe, iters int) {
		e := sim.New(1)
		sleeps := func(from, to int, p *sim.Proc, d sim.Time) {
			for i := from; i < to; i++ {
				p.Sleep(d)
			}
		}
		// The longest sleeper starts first and ends last: it holds the clock.
		e.Spawn("sleeper", func(p *sim.Proc) {
			pb.drive(e.Now, e.Events, iters, func(from, to int) { sleeps(from, to, p, rungMachines) })
		})
		for d := sim.Time(1); d < rungMachines; d++ {
			e.Spawn("sleeper", func(p *sim.Proc) { sleeps(0, iters, p, d) })
		}
		finish(e)
	}},
	{name: "sim.queue", iters: 200_000, run: func(pb *probe, iters int) {
		e := sim.New(1)
		q := sim.NewQueue[int](e)
		e.Spawn("consumer", func(p *sim.Proc) {
			for {
				if _, ok := q.Get(p); !ok {
					return
				}
			}
		})
		e.Spawn("producer", func(p *sim.Proc) {
			pb.drive(e.Now, e.Events, iters, func(from, to int) {
				for i := from; i < to; i++ {
					q.Put(i)
					p.Yield()
				}
			})
			q.Close()
		})
		finish(e)
	}},
	{name: "netsim.unicast", iters: 200_000, virtual: true, run: func(pb *probe, iters int) {
		e := sim.New(1)
		nw := netsim.New(e, rungMachines, netsim.DefaultParams())
		c := sim.NewCond(e)
		nw.Handle(0, func(netsim.Delivery) { c.Signal() })
		e.Spawn("drive", func(p *sim.Proc) {
			pb.drive(e.Now, e.Events, iters, func(from, to int) {
				for i := from; i < to; i++ {
					nw.SendFrame(netsim.Frame{Src: 1, Dst: 0, Kind: "bench", Size: rungPayload})
					c.Wait(p)
				}
			})
		})
		finish(e)
	}},
	{name: "netsim.bcast16", iters: 100_000, virtual: true, run: func(pb *probe, iters int) {
		e := sim.New(1)
		nw := netsim.New(e, rungMachines, netsim.DefaultParams())
		c := sim.NewCond(e)
		heard := onAll(c)
		for i := 0; i < rungMachines; i++ {
			nw.Handle(i, func(netsim.Delivery) { heard() })
		}
		e.Spawn("drive", func(p *sim.Proc) {
			pb.drive(e.Now, e.Events, iters, func(from, to int) {
				for i := from; i < to; i++ {
					nw.BroadcastFrame(netsim.Frame{Src: 1, Kind: "bench", Size: rungPayload})
					c.Wait(p)
				}
			})
		})
		finish(e)
	}},
	{name: "amoeba.send", iters: 50_000, virtual: true, run: func(pb *probe, iters int) {
		e, _, ms := world()
		c := sim.NewCond(e)
		ms[0].Bind("bench", func(*sim.Proc, int, amoeba.Packet) { c.Signal() })
		ms[1].SpawnThread("drive", func(p *sim.Proc) {
			pb.drive(e.Now, e.Events, iters, func(from, to int) {
				for i := from; i < to; i++ {
					ms[1].Send(p, 0, amoeba.Packet{Port: "bench", Kind: "bench", Size: rungPayload})
					c.Wait(p)
				}
			})
			e.Stop()
		})
		finish(e)
	}},
	{name: "amoeba.bcast16", iters: 10_000, virtual: true, run: func(pb *probe, iters int) {
		e, _, ms := world()
		c := sim.NewCond(e)
		heard := onAll(c)
		for _, m := range ms {
			m.Bind("bench", func(*sim.Proc, int, amoeba.Packet) { heard() })
		}
		ms[1].SpawnThread("drive", func(p *sim.Proc) {
			pb.drive(e.Now, e.Events, iters, func(from, to int) {
				for i := from; i < to; i++ {
					ms[1].Broadcast(p, amoeba.Packet{Port: "bench", Kind: "bench", Size: rungPayload})
					c.Wait(p)
				}
			})
			e.Stop()
		})
		finish(e)
	}},
	{name: "amoeba.rpc", iters: 30_000, virtual: true, run: func(pb *probe, iters int) {
		e, _, ms := world()
		srv := amoeba.NewServer(ms[0], "bench")
		ms[0].SpawnThread("serve", func(p *sim.Proc) {
			for {
				r, ok := srv.GetRequest(p)
				if !ok {
					return
				}
				srv.PutReply(p, r, nil, rungPayload)
			}
		})
		cl := amoeba.NewClient(ms[1], amoeba.DefaultRPCPolicy())
		ms[1].SpawnThread("drive", func(p *sim.Proc) {
			pb.drive(e.Now, e.Events, iters, func(from, to int) {
				for i := from; i < to; i++ {
					if _, err := cl.Trans(p, 0, "bench", "nop", nil, 0); err != nil {
						panic(err) // no loss and no crash: only a bug times an RPC out
					}
				}
			})
			e.Stop()
		})
		finish(e)
	}},
	{name: "group.pb16", iters: 6_000, virtual: true, run: groupRung(group.ForcePB, group.ElectedSequencer, false)},
	{name: "group.bb16", iters: 6_000, virtual: true, run: groupRung(group.ForceBB, group.ElectedSequencer, false)},
	{name: "group.consensus16", iters: 4_000, virtual: true, run: groupRung(group.ForcePB, group.Consensus, false)},
	{name: "group.pb16_batched", iters: 32_000, burst: 16, virtual: true, run: groupRung(group.ForcePB, group.ElectedSequencer, true)},
	{name: "rts.bcast_write16", iters: 6_000, virtual: true, run: func(pb *probe, iters int) {
		e, _, ms := world()
		reg := rts.NewRegistry()
		registerBlob(reg)
		br := rts.NewBroadcastRTS(reg, rts.DefaultCosts(), ms, joinAll(ms, group.DefaultConfig(memberIDs())))
		ms[1].SpawnThread("drive", func(p *sim.Proc) {
			w := rts.NewWorker(p, ms[1])
			id := br.Create(w, blobName)
			pb.drive(e.Now, e.Events, iters, func(from, to int) {
				for i := from; i < to; i++ {
					br.Invoke(w, id, "set", blobPayload)
				}
			})
			e.Stop()
		})
		finish(e)
	}},
	{name: "rts.p2p_remote_read", iters: 20_000, virtual: true, run: func(pb *probe, iters int) {
		e, _, ms := world()
		reg := rts.NewRegistry()
		registerBlob(reg)
		pr := rts.NewP2PRTS(reg, rts.DefaultCosts(), rts.DefaultP2PConfig(), ms)
		ms[0].SpawnThread("create", func(p *sim.Proc) {
			w := rts.NewWorker(p, ms[0])
			id := pr.CreateWith(w, blobName, rts.Update, rts.SingleCopy)
			pr.Invoke(w, id, "set", blobPayload)
			ms[1].SpawnThread("drive", func(p *sim.Proc) {
				w := rts.NewWorker(p, ms[1])
				pb.drive(e.Now, e.Events, iters, func(from, to int) {
					for i := from; i < to; i++ {
						pr.Invoke(w, id, "get")
					}
				})
				e.Stop()
			})
		})
		finish(e)
	}},
	{name: "orca.local_read", iters: 8_000_000, virtual: true, run: func(pb *probe, iters int) {
		rt := orca.New(orca.Config{Processors: rungMachines, RTS: orca.Broadcast, Seed: 1}, std.Register)
		rt.Run(func(p *orca.Proc) {
			c := std.NewCounter(p, 0)
			pb.drive(p.Now, rt.Env().Events, iters, func(from, to int) {
				for i := from; i < to; i++ {
					c.Value(p)
				}
			})
		})
	}},
	{name: "orca.bcast_write16", iters: 6_000, virtual: true,
		run: orcaRung(orca.Config{RTS: orca.Broadcast}, nil, orcaWrites)},
	{name: "orca.bcast_write16_batched", iters: 32_000, burst: 16, virtual: true,
		run: orcaRung(orca.Config{RTS: orca.Broadcast, Batching: orca.DefaultBatching()}, nil, orcaWrites)},
	{name: "orca.p2p_remote_read", iters: 20_000, virtual: true,
		run: orcaRung(orca.Config{RTS: orca.P2PUpdate}, singleCopy,
			func(p *orca.Proc, b orca.Handle[*blobState], pb *probe, iters int) {
				pb.drive(p.Now, p.Runtime().Env().Events, iters, func(from, to int) {
					for i := from; i < to; i++ {
						blobGet.Call(p, b)
					}
				})
			})},
	{name: "workload.gen", iters: 2_000_000, run: func(pb *probe, iters int) {
		g := workload.New(workload.Config{Keys: 8192, Dist: workload.Zipf, Theta: 0.99, Seed: 1, Ops: iters})
		none := func() int64 { return 0 }
		pb.drive(func() sim.Time { return 0 }, none, iters, func(from, to int) {
			for i := from; i < to; i++ {
				g.Next()
			}
		})
	}},
}

// rungMetricNames lists the per-layer metrics a rung reports.
func (r *rung) metricNames() []string {
	names := []string{r.name + ".wall_ns_per_op", r.name + ".allocs_per_op"}
	if r.virtual || layerOf(r.name) == "sim" {
		names = append(names, r.name+".events_per_op")
	}
	if r.virtual {
		names = append(names, r.name+".virtual_us_per_op")
	}
	return names
}

// runLadder runs every rung once and returns the results with their
// per-layer metrics.
func runLadder(tr *tracer, scale float64) ([]rungResult, map[string]float64) {
	var results []rungResult
	metrics := map[string]float64{}
	for i, r := range rungs {
		pb := &probe{tr: tr, idx: i, name: r.name, per: max(r.per, 1), burst: max(r.burst, 1)}
		iters := max(int(float64(r.iters)*min(scale, 1)), 4*pb.burst) / pb.burst * pb.burst
		runtime.GC()
		r.run(pb, iters)
		results = append(results, pb.res)
		all := map[string]float64{
			r.name + ".wall_ns_per_op":    pb.res.WallNsPerOp,
			r.name + ".allocs_per_op":     pb.res.AllocsPerOp,
			r.name + ".events_per_op":     pb.res.EventsPerOp,
			r.name + ".virtual_us_per_op": pb.res.VirtualUsPerOp,
		}
		for _, name := range r.metricNames() {
			metrics[name] = all[name]
		}
	}
	return results, metrics
}

// The budget table splits an operation's cost over the layers it goes
// through: a layer's self cost is its rung less the next rung of the
// chain, and the last rung of a chain keeps everything below it.
var budgetChains = []struct {
	op    string
	chain []string
}{
	{"local read", []string{"orca.local_read"}},
	{"broadcast write, pb", []string{"orca.bcast_write16", "rts.bcast_write16", "group.pb16", "amoeba.bcast16", "netsim.bcast16"}},
	{"broadcast write, bb", []string{"group.bb16", "amoeba.bcast16", "netsim.bcast16"}},
	{"broadcast write, consensus", []string{"group.consensus16", "amoeba.bcast16", "netsim.bcast16"}},
	{"broadcast write, batched", []string{"orca.bcast_write16_batched", "group.pb16_batched"}},
	{"p2p remote read", []string{"orca.p2p_remote_read", "rts.p2p_remote_read", "amoeba.rpc", "netsim.unicast"}},
}

var budgetLayers = []string{"orca", "rts", "group", "amoeba", "netsim"}

// budgetRow is one operation's split, in picoseconds so that the cells
// add up to the top rung exactly.
type budgetRow struct {
	Op        string           `json:"op"`
	TopRung   string           `json:"top_rung"`
	VirtualPS map[string]int64 `json:"self_virtual_ps"`
	WallPS    map[string]int64 `json:"self_wall_ps"`
	TotalVPS  int64            `json:"total_virtual_ps"`
	TotalWPS  int64            `json:"total_wall_ps"`
}

func budget(results []rungResult) []budgetRow {
	byName := map[string]rungResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	ps := func(x float64) int64 { return int64(math.Round(x * 1000)) }
	var rows []budgetRow
	for _, bc := range budgetChains {
		row := budgetRow{Op: bc.op, TopRung: bc.chain[0], VirtualPS: map[string]int64{}, WallPS: map[string]int64{}}
		for i, name := range bc.chain {
			v, w := ps(byName[name].VirtualUsPerOp*1000), ps(byName[name].WallNsPerOp)
			if i == 0 {
				row.TotalVPS, row.TotalWPS = v, w
			}
			if i+1 < len(bc.chain) {
				below := byName[bc.chain[i+1]]
				v -= ps(below.VirtualUsPerOp * 1000)
				w -= ps(below.WallNsPerOp)
			}
			row.VirtualPS[layerOf(name)], row.WallPS[layerOf(name)] = v, w
		}
		rows = append(rows, row)
	}
	return rows
}

func printLadderResults(w io.Writer, results []rungResult) {
	fmt.Fprintf(w, "\nlayer ladder (%d machines, %d-byte payload, per operation)\n", rungMachines, rungPayload)
	fmt.Fprintf(w, "  %-28s %9s %12s %10s %10s %12s\n", "rung", "ops", "wall ns", "events", "allocs", "virtual us")
	for _, r := range results {
		fmt.Fprintf(w, "  %-28s %9d %12.1f %10.2f %10.2f %12.3f\n", r.Name, r.Ops, r.WallNsPerOp, r.EventsPerOp, r.AllocsPerOp, r.VirtualUsPerOp)
	}
}

func printBudget(w io.Writer, rows []budgetRow) {
	fmt.Fprintf(w, "\nbudget: self cost per operation, virtual us / wall ns (a layer's rung less the rung below; '-' not in the chain)\n")
	fmt.Fprintf(w, "  %-28s", "operation")
	for _, l := range budgetLayers {
		fmt.Fprintf(w, " %19s", l)
	}
	fmt.Fprintf(w, " %19s\n", "= top rung")
	cell := func(v, wps int64) string { return fmt.Sprintf("%.2f / %.0f", float64(v)/1e6, float64(wps)/1e3) }
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s", r.Op)
		for _, l := range budgetLayers {
			if v, ok := r.VirtualPS[l]; ok {
				fmt.Fprintf(w, " %19s", cell(v, r.WallPS[l]))
			} else {
				fmt.Fprintf(w, " %19s", "-")
			}
		}
		fmt.Fprintf(w, " %19s\n", cell(r.TotalVPS, r.TotalWPS))
	}
}

// writeTrace writes the spans as Chrome trace-event JSON: process 1 is
// the host clock, process 2 the virtual clock, one thread per rung.
func (t *tracer) writeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "host clock"}},
		{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "virtual clock"}},
	}
	for _, s := range t.spans {
		if s.Parent < 0 {
			for pid := 1; pid <= 2; pid++ {
				events = append(events, event{Name: "thread_name", Ph: "M", Pid: pid, Tid: s.rungIdx, Args: map[string]any{"name": s.Name}})
			}
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "ops": s.count,
			"virtual_start_us": s.VStart.Microseconds(), "virtual_end_us": s.VEnd.Microseconds(),
			"wall_start_us": float64(s.WStart) / 1e3, "wall_end_us": float64(s.WEnd) / 1e3}
		events = append(events,
			event{Name: s.Name, Cat: s.Layer, Ph: "X", Pid: 1, Tid: s.rungIdx,
				Ts: float64(s.WStart) / 1e3, Dur: float64(s.WEnd-s.WStart) / 1e3, Args: args},
			event{Name: s.Name, Cat: s.Layer, Ph: "X", Pid: 2, Tid: s.rungIdx,
				Ts: s.VStart.Microseconds(), Dur: (s.VEnd - s.VStart).Microseconds(), Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
