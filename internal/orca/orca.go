package orca

import (
	"errors"
	"fmt"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/rts"
	"repro/internal/sim"
)

// RTSKind selects the runtime system under the program.
type RTSKind int

const (
	// Broadcast is the paper's §3.2.1 runtime (full replication over
	// totally-ordered broadcast).
	Broadcast RTSKind = iota
	// P2PUpdate is the point-to-point runtime with the two-phase
	// update protocol.
	P2PUpdate
	// P2PInvalidate is the point-to-point runtime with the
	// invalidation protocol.
	P2PInvalidate
)

// String names the runtime kind for tables and traces.
func (k RTSKind) String() string {
	switch k {
	case Broadcast:
		return "broadcast"
	case P2PUpdate:
		return "p2p-update"
	case P2PInvalidate:
		return "p2p-invalidate"
	}
	return fmt.Sprintf("RTSKind(%d)", int(k))
}

// DefaultBatching returns the default batching parameters: 16-op
// batches, one-fragment frames, and a linger of about one small
// frame's wire time — long enough to pack concurrent submissions,
// short enough that a lone operation barely notices.
func DefaultBatching() *group.BatchConfig {
	return &group.BatchConfig{MaxOps: 16, MaxBytes: 1024, Linger: 50 * sim.Microsecond}
}

// Config describes the simulated machine and runtime choice.
type Config struct {
	// Processors is the number of pool machines.
	Processors int
	// RTS picks the runtime system.
	RTS RTSKind
	// Mixed hosts the broadcast runtime and the point-to-point runtime
	// on the same machines, so individual objects can opt out of the
	// RTS default with a creation policy (see TypeBuilder.NewWith and
	// Policy). Objects created without a policy still follow RTS.
	// Mixed implies broadcast-capable hardware regardless of RTS.
	Mixed bool
	// Seed drives all randomness in the simulation.
	Seed int64
	// Net overrides the network parameters (zero value: the paper's
	// 10 Mb/s Ethernet). BroadcastCapable is forced to match RTS.
	Net *netsim.Params
	// KernelCosts overrides kernel CPU costs (zero value: defaults).
	KernelCosts *amoeba.Costs
	// GroupMethod forces the broadcast method (PB/BB); zero is Auto.
	GroupMethod group.Method
	// Protocol picks the broadcast group's sequencing protocol: the
	// zero value is the paper's elected sequencer; group.Consensus
	// replaces it with the quorum-replicated log that survives
	// sequencer loss without an election stall. Requires the broadcast
	// runtime (or Mixed).
	Protocol group.Protocol
	// Batching, when non-nil, turns on the broadcast runtime's
	// batching pipeline: the group sequencer packs queued requests into
	// multi-op frames (one sequence number per op, one network frame
	// per batch), senders pack same-instant submissions, and unguarded
	// no-result writes travel through per-worker combining buffers
	// instead of blocking the invoker per op. Start from
	// DefaultBatching: every field must be set, MaxOps to at least 2.
	// Frames per op drop roughly by MaxOps under write-heavy load, at
	// the cost of up to Linger of added latency for a lone op. Every
	// operation but a combined write first drains the worker's buffer
	// (rts/batch.go), so program semantics are unchanged; virtual
	// timings differ, which is why
	// batched runs pin their own determinism goldens. Nil means one op
	// per frame, the paper's protocol. Under Mixed, batching applies to
	// the sequencer groups only.
	Batching *group.BatchConfig
	// Sequencer picks the initial group sequencer for the broadcast
	// runtime (default: processor 0). Fault experiments use it to put
	// the sequencer on a machine the fault plan crashes, without
	// crashing the main process on processor 0. Under sharding it is
	// the rotation offset: shard k's sequencer is span[(k+Sequencer) %
	// len(span)], so consecutive shards sequence on distinct machines.
	Sequencer int
	// Shards splits the broadcast total order across this many
	// independent sequencer groups, each on its own kernel port with
	// its own sequencer; objects are assigned to a shard at creation
	// (hash of the object id, or explicitly via OnShard / Sharded
	// creation options) and unrelated objects sequence concurrently.
	// 0 or 1 keeps the single group. Requires broadcast hardware (RTS:
	// Broadcast, or Mixed); composes with Mixed, so a sharded program
	// may also place primary-copy and adaptive objects.
	Shards int
	// ShardSpan is each sequencer group's replication domain size: the
	// machines are cut into Processors/ShardSpan contiguous blocks and
	// shard k replicates its objects on block k mod blocks only, so a
	// write costs receive-and-apply on ShardSpan machines instead of
	// all of them (machines outside a domain reach its objects through
	// the forwarder RPC). 0 means every shard spans all machines.
	// Requires Processors divisible by ShardSpan and Shards divisible
	// by the block count (so every machine hosts a shard).
	ShardSpan int
	// Faults, when non-nil, is the failure schedule for the run:
	// machine crashes executed by the runtime (kernel, threads,
	// process accounting, and runtime-system routing all follow), plus
	// network partitions and loss windows applied at the wire. All
	// fault handling is seed-deterministic. Crash reports land in
	// Report.Crashes.
	Faults *netsim.FaultPlan
}

// maxTime bounds a run's virtual time: a program still running after an
// hour is reported as timed out.
const maxTime = 3600 * sim.Second

// Runtime is one configured simulated machine + runtime instance. A
// Runtime runs exactly one program.
type Runtime struct {
	cfg      Config
	env      *sim.Env
	net      *netsim.Network
	machines []*amoeba.Machine
	members  []*group.Member // every sequencer group's endpoints, in group order
	sys      *rts.Router
	reg      *rts.Registry

	liveProcs int
	started   sim.Time
	timedOut  bool

	forkSeq  int64
	forks    map[int64]forkEntry
	forkMsgs sim.Chunk[forkMsg] // what fork messages are carved from

	hists map[string]*rts.LatencyHist

	procs   []*procRec // every Orca process, for crash accounting
	crashes []CrashRecord
}

// forkMsg travels the wire so process creation is ordered with respect
// to object operations, as Amoeba's process management messages were.
// The closure itself stays in host memory (the simulation shares an
// address space); only the identifier is "transmitted", in a record
// carved from the runtime's chunk (a *forkMsg), whose first run holds
// a worker's fork for every other machine.
type forkMsg struct {
	FID    int64
	Target int
}

type forkEntry struct {
	name   string
	cpu    int
	origin int // forking processor; the fork dies with it while in flight
	fn     func(p *Proc)
}

// Validate reports the first reason the configuration cannot be built,
// or nil. It is the one place configurations are checked: New panics
// with its error before building a single machine. What a valid
// configuration can host is decided per object at creation (see
// TypeBuilder.NewWith), by the runtime's placement router.
func (cfg Config) Validate() error {
	hw := cfg.RTS == Broadcast || cfg.Mixed // broadcast hardware, hence sequencer groups
	switch {
	case cfg.Processors <= 0:
		return errors.New("orca: need at least one processor")
	case cfg.RTS != Broadcast && cfg.RTS != P2PUpdate && cfg.RTS != P2PInvalidate:
		return fmt.Errorf("orca: unknown RTS kind %d", int(cfg.RTS))
	case cfg.Shards < 0:
		return fmt.Errorf("orca: negative shard count %d", cfg.Shards)
	case !hw && (cfg.Batching != nil || cfg.Protocol != group.ElectedSequencer || cfg.Shards > 1 || cfg.ShardSpan != 0):
		return errors.New("orca: Batching, Protocol, Shards and ShardSpan configure sequencer groups, which need broadcast hardware (RTS: Broadcast, or Mixed)")
	case cfg.Batching != nil && (cfg.Batching.MaxOps < 2 || cfg.Batching.MaxBytes <= 0 || cfg.Batching.Linger <= 0):
		return errors.New("orca: Batching needs MaxOps of at least 2 and a positive MaxBytes and Linger (start from DefaultBatching)")
	}
	if span := cfg.ShardSpan; span != 0 {
		switch {
		case span < 0 || span > cfg.Processors || cfg.Processors%span != 0:
			return fmt.Errorf("orca: ShardSpan %d must divide Processors %d", span, cfg.Processors)
		case max(cfg.Shards, 1)%(cfg.Processors/span) != 0:
			return fmt.Errorf("orca: Shards %d must be a multiple of the %d domains (every machine must host a shard)", cfg.Shards, cfg.Processors/span)
		}
	}
	if cfg.Faults != nil {
		return cfg.Faults.Validate(cfg.Processors)
	}
	return nil
}

// New builds a runtime. setup registers the program's object types.
// Every configuration builds the same thing — a placement router over
// the domains the configuration calls for: max(Shards, 1) sequencer
// groups when there is broadcast hardware (RTS: Broadcast, or Mixed),
// and the point-to-point domain when RTS is point-to-point or Mixed.
func New(cfg Config, setup func(reg *rts.Registry)) *Runtime {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	env := sim.New(cfg.Seed)
	np := netsim.DefaultParams()
	if cfg.Net != nil {
		np = *cfg.Net
	}
	np.BroadcastCapable = cfg.RTS == Broadcast || cfg.Mixed
	nw := netsim.New(env, cfg.Processors, np)
	kc := amoeba.DefaultCosts()
	if cfg.KernelCosts != nil {
		kc = *cfg.KernelCosts
	}
	rt := &Runtime{cfg: cfg, env: env, net: nw, reg: rts.NewRegistry(),
		forks: make(map[int64]forkEntry), hists: make(map[string]*rts.LatencyHist)}
	rt.forkMsgs.Plan(cfg.Processors - 1) // a program's workers, one forked to each other machine
	setup(rt.reg)
	for i := 0; i < cfg.Processors; i++ {
		rt.machines = append(rt.machines, amoeba.NewMachine(env, nw, i, kc))
	}
	var groups []rts.GroupDef
	if np.BroadcastCapable {
		groups = rt.joinGroups()
	}
	// The point-to-point domain, with the protocol forced by the RTS
	// kind when that kind is point-to-point.
	var p2p *rts.P2PConfig
	if cfg.RTS != Broadcast || cfg.Mixed {
		pc := rts.DefaultP2PConfig()
		if cfg.RTS == P2PInvalidate {
			pc.Protocol = rts.Invalidation
		}
		p2p = &pc
	}
	rt.sys = rts.NewRouter(rt.reg, rts.DefaultCosts(), rt.machines, groups, p2p, cfg.RTS != Broadcast)
	if cfg.Batching != nil {
		rt.sys.EnableBatching(*cfg.Batching)
	}
	// Forks are ordered with object writes: they reach the target's
	// extra handler through the sequencer groups (see Fork), or the
	// kernel port below when no group spans both machines.
	rt.sys.SetExtraHandler(func(node int, body any) {
		if fm, ok := body.(*forkMsg); ok && node == fm.Target {
			rt.startFork(fm.FID)
		}
	})
	for _, m := range rt.machines {
		m.Bind("orca-fork", func(p *sim.Proc, from int, pkt amoeba.Packet) {
			rt.startFork(pkt.Body.(*forkMsg).FID)
		})
	}
	// Arm the fault plan last: link faults filter at the wire, and
	// each crash entry fires rt.crashNode at its instant.
	rt.net.InstallFaults(cfg.Faults, rt.crashNode)
	return rt
}

// joinGroups cuts the machines into replication domains of ShardSpan
// machines (default: one domain of all of them) and joins one sequencer
// group per shard — group k on domain k mod domains, on its own kernel
// port, its sequencer rotated by k so consecutive groups sequence on
// distinct machines.
func (rt *Runtime) joinGroups() []rts.GroupDef {
	cfg := rt.cfg
	span := cfg.ShardSpan
	if span == 0 {
		span = cfg.Processors
	}
	blocks := cfg.Processors / span
	defs := make([]rts.GroupDef, max(cfg.Shards, 1))
	for k := range defs {
		ids := make([]int, span)
		base := (k % blocks) * span
		for i := range ids {
			ids[i] = base + i
		}
		gcfg := group.DefaultConfig(ids)
		gcfg.Method = cfg.GroupMethod
		gcfg.Protocol = cfg.Protocol
		gcfg.Sequencer = ids[((k+cfg.Sequencer)%span+span)%span]
		if len(defs) > 1 {
			gcfg.Port = fmt.Sprintf("%s%d", group.Port, k)
		}
		if cfg.Batching != nil {
			gcfg.Batch = *cfg.Batching
			// Batched runs move MaxOps times the work per frame, so
			// delivery-progress reports can be MaxOps times sparser
			// for the same history-trimming lag — and every member
			// reports, so the interval also scales with the span to keep
			// the aggregate status traffic flat (statuses contribute
			// (span-1)/StatusEvery frames per delivered op). The trim
			// lag stays a small fraction of the sequencer's history.
			gcfg.StatusEvery *= gcfg.Batch.MaxOps * max(span/32, 1)
		}
		members := group.JoinAll(rt.machines[base:base+span], gcfg)
		rt.members = append(rt.members, members...)
		defs[k] = rts.GroupDef{Members: members, Span: ids}
	}
	return defs
}

// startFork launches a previously registered fork on its target
// processor. Called from delivery context when the fork message
// arrives.
func (rt *Runtime) startFork(fid int64) {
	fe, ok := rt.forks[fid]
	if !ok {
		return
	}
	delete(rt.forks, fid)
	rt.spawnProc(fe.cpu, fe.name, fe.fn)
}

// System exposes the runtime system — the placement router over the
// configured domains (for harness statistics).
func (rt *Runtime) System() *rts.Router { return rt.sys }

// Net exposes the simulated network (for harness statistics).
func (rt *Runtime) Net() *netsim.Network { return rt.net }

// Stats returns the unified runtime-system counter snapshot: sequencer
// groups fill the broadcast fields, the point-to-point domain the p2p
// fields, and the snapshot merges every domain built.
func (rt *Runtime) Stats() rts.RTSStats { return rt.sys.Counters() }

// GroupStats returns per-member broadcast protocol counters, sequencer
// group by sequencer group (empty without broadcast hardware).
func (rt *Runtime) GroupStats() []group.Stats {
	var out []group.Stats
	for _, g := range rt.members {
		out = append(out, g.Stats())
	}
	return out
}

// Env exposes the simulation environment.
func (rt *Runtime) Env() *sim.Env { return rt.env }

// Histogram returns the named virtual-latency histogram, creating an
// empty one on first use. Programs record request→completion virtual
// durations into histograms (serving workloads: one per op class);
// every histogram touched during a run is published in
// Report.Latency. Purely observational — recording never changes
// simulated timing.
func (rt *Runtime) Histogram(name string) *rts.LatencyHist {
	h, ok := rt.hists[name]
	if !ok {
		h = &rts.LatencyHist{}
		rt.hists[name] = h
	}
	return h
}

// Histogram returns the runtime's named virtual-latency histogram
// (see Runtime.Histogram).
func (p *Proc) Histogram(name string) *rts.LatencyHist { return p.rt.Histogram(name) }

// Report summarizes one program run.
type Report struct {
	// Elapsed is the virtual time from program start to the
	// completion of the last process.
	Elapsed sim.Time
	// TimedOut reports that the program was still running after an
	// hour of virtual time, when the run stops.
	TimedOut bool
	// Net is the wire-level statistics snapshot.
	Net netsim.Stats
	// RTS is the unified runtime-system counter snapshot (see
	// Runtime.Stats).
	RTS rts.RTSStats
	// Shards holds each sequencer group's own counter snapshot when
	// the runtime is sharded (Config.Shards > 1); RTS is their merge.
	// Nil otherwise.
	Shards []rts.RTSStats
	// CPUBusy is each machine's total CPU-busy time (kernel +
	// application).
	CPUBusy []sim.Time
	// AppBusy is each machine's application compute time.
	AppBusy []sim.Time
	// Blocked lists the simulated threads still parked when a run
	// timed out — the first place to look at a deadlocked program.
	Blocked []string
	// Crashes lists the machine crashes the fault plan executed, in
	// crash order, with per-crash process accounting.
	Crashes []CrashRecord
	// Latency holds the virtual-latency histograms the program
	// recorded (see Runtime.Histogram), keyed by name. Nil when the
	// program recorded none. Render percentiles in sorted-name order:
	// the map itself iterates nondeterministically.
	Latency map[string]*rts.LatencyHist
	// Placements reports every adaptive object's final placement
	// ("replicated" or "primary@N") when the program created adaptive
	// objects (see orca.Adaptive); nil otherwise. Iterate in sorted
	// ObjID order for deterministic output.
	Placements map[rts.ObjID]string
}

// Run executes main as the program's main Orca process on processor 0
// and returns the run report. Run may be called once per Runtime.
func (rt *Runtime) Run(main func(p *Proc)) Report {
	rt.started = rt.env.Now()
	rt.forkOn(0, "main", main)
	rt.env.RunUntil(maxTime)
	if rt.liveProcs > 0 {
		rt.timedOut = true
	}
	rt.env.Stop()
	rep := Report{
		Elapsed:    rt.env.Now() - rt.started,
		TimedOut:   rt.timedOut,
		Net:        rt.net.Stats(),
		RTS:        rt.Stats(),
		Shards:     rt.sys.ShardStats(),
		Crashes:    rt.Crashes(),
		Placements: rt.sys.AdaptivePlacements(),
	}
	if len(rt.hists) > 0 {
		rep.Latency = rt.hists
	}
	if rt.timedOut {
		rep.Blocked = rt.env.Blocked()
	}
	for _, m := range rt.machines {
		rep.CPUBusy = append(rep.CPUBusy, m.CPU().BusyTime())
		rep.AppBusy = append(rep.AppBusy, m.AppBusy())
	}
	rt.env.Shutdown()
	return rep
}

// forkOn starts an Orca process on a processor, counting it live from
// this instant (so the run cannot terminate while forks are in
// flight).
func (rt *Runtime) forkOn(cpu int, name string, fn func(p *Proc)) {
	if cpu < 0 || cpu >= len(rt.machines) {
		panic(fmt.Sprintf("orca: fork on invalid processor %d", cpu))
	}
	rt.liveProcs++
	rt.spawnProc(cpu, name, fn)
}

// spawnProc starts the process thread. The caller has already counted
// it in liveProcs.
func (rt *Runtime) spawnProc(cpu int, name string, fn func(p *Proc)) {
	m := rt.machines[cpu]
	rec := &procRec{node: cpu}
	rt.procs = append(rt.procs, rec)
	m.SpawnThread(name, func(sp *sim.Proc) {
		defer func() {
			if sp.Killed() {
				// The machine crashed under this process: crashNode
				// already settled the accounting, and this body is being
				// reaped by Shutdown after the run — it must not touch
				// shared state.
				return
			}
			rec.done = true
			rt.liveProcs--
			if rt.liveProcs == 0 {
				rt.env.Stop()
			}
		}()
		p := &Proc{rt: rt, w: rts.NewWorker(sp, m)}
		fn(p)
		p.w.Flush()
		// Drain the write-combining buffer: a process's final writes
		// (a barrier arrival, an accumulator update) must reach the
		// total order before the process counts as done.
		p.w.SyncShared()
	})
}

// Proc is the execution context of one Orca process.
type Proc struct {
	rt *Runtime
	w  *rts.Worker
}

// Runtime returns the owning runtime.
func (p *Proc) Runtime() *Runtime { return p.rt }

// CPU reports the processor this process runs on.
func (p *Proc) CPU() int { return p.w.Node() }

// Procs reports the number of processors in the machine.
func (p *Proc) Procs() int { return p.rt.cfg.Processors }

// Now reports current virtual time (flushing pending work first, so
// timestamps are accurate).
func (p *Proc) Now() sim.Time {
	p.w.Flush()
	return p.w.P.Now()
}

// Work charges d of computation to this process's processor.
func (p *Proc) Work(d sim.Time) { p.w.Charge(d) }

// Sleep idles the process for d of virtual time.
func (p *Proc) Sleep(d sim.Time) {
	p.w.Flush()
	p.w.FlushShared() // buffered writes should not sit out the sleep
	p.w.P.Sleep(d)
}

// Fork creates a new Orca process running fn on the given processor
// (the paper's `fork func(args) on cpu`; cpu < 0 means the current
// one). Shared objects are passed by closing over their handles,
// mirroring Orca's call-by-reference object parameters.
//
// Remote forks travel as messages, ordered after the parent's writes in
// every sequencer group spanning both machines: with one group the fork
// joins its total order, with several it is a barrier fence that starts
// the child only after the last of them delivered it on the target.
// When no group spans both machines (disjoint replication domains, or
// no broadcast hardware) it is a kernel message to the target. Either
// way a child never observes the shared objects as they were before
// its parent's preceding writes.
func (p *Proc) Fork(cpu int, name string, fn func(p *Proc)) {
	rt := p.rt
	if cpu < 0 {
		cpu = p.CPU()
	}
	if cpu >= len(rt.machines) {
		panic(fmt.Sprintf("orca: fork on invalid processor %d", cpu))
	}
	if rt.machines[cpu].Crashed() {
		panic(fmt.Sprintf("orca: fork on crashed processor %d", cpu))
	}
	p.w.Flush()
	// The child must observe every write its parent issued before the
	// fork: drain the combining buffer before the fork message joins
	// the total order.
	p.w.SyncShared()
	if cpu == p.CPU() {
		// A local fork needs no wire: the local replica already
		// reflects every write this process completed.
		rt.forkOn(cpu, name, fn)
		return
	}
	rt.forkSeq++
	fid := rt.forkSeq
	rt.forks[fid] = forkEntry{name: name, cpu: cpu, origin: p.CPU(), fn: fn}
	rt.liveProcs++
	msg := rt.forkMsgs.Add(forkMsg{FID: fid, Target: cpu})
	if !rt.sys.ForkFence(p.w, cpu, "orca-fork", msg, 32) {
		rt.machines[p.CPU()].Send(p.w.P, cpu, amoeba.Packet{
			Port: "orca-fork", Kind: "orca-fork", Body: msg, Size: 32,
		})
	}
}

// call performs an operation on a shared object: sequentially
// consistent, indivisible, blocking on guards. The typed descriptors
// fill the argument record and read the result record themselves.
func (p *Proc) call(id rts.ObjID, def *rts.OpDef, in rts.Args) rts.Args {
	return p.rt.sys.Call(p.w, id, def.Name, in)
}

// readState is the typed descriptors' local-read fast path: when the
// runtime can serve an unguarded read from the local replica, it
// charges the read (exactly as call would) and returns the state for
// the caller to apply its typed operation directly, with no record at
// all. ok == false means the caller must take the general path.
func (p *Proc) readState(id rts.ObjID, def *rts.OpDef) (rts.State, bool) {
	return p.rt.sys.LocalReadState(p.w, id, def)
}

// FencedOp is one write of a cross-shard fenced invocation, built from
// a write descriptor, a handle and the write's arguments:
// op.Fenced(h, arg).
type FencedOp struct{ op rts.FencedOp }

// InvokeFenced applies a set of unguarded writes on replicated objects
// that may live in different shards as one indivisible step: no
// operation on any touched shard is ordered between them. The fence
// reserves a slot in every touched shard (in ascending shard order),
// pauses each shard's delivery at its slot, executes all the writes,
// and releases the shards — a sequenced two-phase barrier, not a lock.
// Results are not returned; fenced operations are writes issued for
// effect (a transfer, a multi-object commit). With a single sequencer
// group the fence is one reservation in the one total order.
//
// Every operation is checked before anything is sequenced: a fence
// naming a primary-copy or adaptive object, a guarded write, or a shard
// that does not span this processor panics.
func (p *Proc) InvokeFenced(ops ...FencedOp) {
	rops := make([]rts.FencedOp, len(ops))
	for i, op := range ops {
		rops[i] = op.op
	}
	if err := p.rt.sys.InvokeFenced(p.w, rops); err != nil {
		panic("orca: " + err.Error())
	}
}
