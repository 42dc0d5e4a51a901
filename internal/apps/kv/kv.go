package kv

import (
	"fmt"
	"slices"

	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/rts"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ShardObj is the registered type name of one store shard.
const ShardObj = "kv.shard"

// entry is one key's stored record: the value and a version that
// increments on every write. Versions make acknowledged writes
// auditable: a put's returned version is its durability receipt, and
// a later read of the key must see at least that version or shard
// state was lost.
type entry struct {
	val int64
	ver int64
}

// shardState is one shard replica: a record array indexed by a key's
// slot in the run's directory (see directory), ver == 0 marking an absent
// key, and n counting the keys present. Many shards, each a small
// object, is the store's shape — placement is decided per shard, so the
// same traffic can run fully replicated, primary-copy, or mixed.
type shardState struct {
	e []entry
	n int
}

// WireSize implements rts.Sized.
func (s *shardState) WireSize() int { return 16 + 24*s.n }

// get reads one key: (value, version), (0, 0) when absent.
func (s *shardState) get(ref int64) (int64, int64) {
	if s.e == nil {
		return 0, 0
	}
	e := s.e[uint32(ref)]
	return e.val, e.ver
}

// write advances the version of the entry ref names and returns it. The
// array is allocated at the replica's first write, to the slot count
// the reference carries, so it never grows.
func (s *shardState) write(ref int64) *entry {
	if s.e == nil {
		s.e = make([]entry, ref>>32)
	}
	e := &s.e[uint32(ref)]
	if e.ver == 0 {
		s.n++
	}
	e.ver++
	return e
}

// put overwrites a key and returns (new version, previous existence) —
// the version is the caller's durability receipt.
func (s *shardState) put(ref, val int64) (int64, bool) {
	e := s.write(ref)
	e.val = val
	return e.ver, e.ver > 1
}

// bump is the read-modify-write session update: add delta to the stored
// value indivisibly, returning (new value, new version).
func (s *shardState) bump(ref, delta int64) (int64, int64) {
	e := s.write(ref)
	e.val += delta
	return e.val, e.ver
}

var (
	shardB = orca.NewType(ShardObj, func([]any) *shardState { return &shardState{} }).
		CloneWith(func(s *shardState) *shardState { return &shardState{e: slices.Clone(s.e), n: s.n} }).
		SizedBy((*shardState).WireSize)

	shardGet  = orca.DefRead1x2(shardB, "get", (*shardState).get)
	shardPut  = orca.DefWrite2x2(shardB, "put", (*shardState).put)
	shardBump = orca.DefWrite2x2(shardB, "bump", (*shardState).bump)
	// size reads the shard's key count.
	shardSize = orca.DefRead0(shardB, "size", func(s *shardState) int { return s.n })
)

// Shard is a typed handle to one store shard.
type Shard struct{ h orca.Handle[*shardState] }

// NewShard creates a shard under the given placement options.
func NewShard(p *orca.Proc, opts ...orca.Option) Shard {
	return Shard{h: shardB.NewWith(p, opts)}
}

// Handle exposes the typed handle (for statistics).
func (s Shard) Handle() orca.Handle[*shardState] { return s.h }

// Get reads the key ref names: (value, version), version 0 when absent.
func (s Shard) Get(p *orca.Proc, ref int64) (int64, int64) { return shardGet.Call(p, s.h, ref) }

// Put overwrites the key ref names with val and returns the new version.
func (s Shard) Put(p *orca.Proc, ref, val int64) int64 {
	ver, _ := shardPut.Call(p, s.h, ref, val)
	return ver
}

// Bump adds delta to the value of the key ref names indivisibly,
// returning the new value and version.
func (s Shard) Bump(p *orca.Proc, ref, delta int64) (int64, int64) {
	return shardBump.Call(p, s.h, ref, delta)
}

// Size reads the shard's key count.
func (s Shard) Size(p *orca.Proc) int { return shardSize.Call(p, s.h) }

// Register adds the kv types on top of the std registrations.
func Register(reg *rts.Registry) {
	std.Register(reg)
	shardB.Register(reg)
}

// Policy selects the per-shard placement strategy.
type Policy int

const (
	// PolicyReplicated replicates every shard on every machine:
	// local reads, writes through the total order (§3.2.1).
	PolicyReplicated Policy = iota
	// PolicyPrimary keeps each shard as a single primary copy on its
	// home machine under the point-to-point update protocol: cheap
	// writes at the home, remote reads RPC to it (§3.2.2). Requires
	// Config.Mixed (or a point-to-point RTS default).
	PolicyPrimary
	// PolicyMixed alternates: even shards replicated, odd shards
	// primary-copy — both strategies side by side on one trace.
	// Requires Config.Mixed.
	PolicyMixed
	// PolicyAdaptive puts every shard under the online placement
	// controller: shards start replicated and re-place themselves
	// (primary copy at the dominant writer, back to replicated, primary
	// re-homing) as the observed traffic warrants. Requires
	// Config.Mixed.
	PolicyAdaptive
)

// String names the policy for tables.
func (pl Policy) String() string {
	switch pl {
	case PolicyReplicated:
		return "replicated"
	case PolicyPrimary:
		return "primary"
	case PolicyMixed:
		return "mixed"
	case PolicyAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("Policy(%d)", int(pl))
}

// Params configures one store run.
type Params struct {
	// Shards is the shard-object count (default 2 per processor).
	// Shard s is homed on machine s mod P: its primary copy (under
	// PolicyPrimary) lives there.
	Shards int
	// Policy is the per-shard placement strategy.
	Policy Policy
	// Clients is the client-process count (default one per
	// processor); client c runs on machine c mod P.
	Clients int
	// SequencerShards, when positive, splits the broadcast total
	// order across that many independent sequencer groups (it sets
	// Config.Shards) and stripes store shard s onto group s mod
	// SequencerShards, so writes to different store shards sequence
	// concurrently. Replicated and adaptive shards are striped;
	// primary-copy shards have no sequencer group.
	SequencerShards int
	// Adapt parameterizes the placement controller under
	// PolicyAdaptive; the zero value selects the defaults.
	Adapt rts.AdaptConfig
	// AffineKeys maps keys to shards in contiguous blocks (shard =
	// key * Shards / Keys) instead of the multiplicative hash, so a
	// workload partition block (workload.Config.Partitions) aligns
	// with a shard and its home machine — the input shape where
	// per-shard placement and re-homing matter.
	AffineKeys bool
	// PhaseWarmup excludes open-loop operations arriving within this
	// duration of a phase's start from the per-phase latency
	// percentiles (PhaseP50US/PhaseP99US) — the steady-state view,
	// applied to every policy equally. PhaseOps and PhaseThroughput
	// still count every operation. Zero keeps every sample.
	PhaseWarmup sim.Time
	// Workload describes the aggregate traffic: Rate and Ops are
	// split evenly across clients, each client drawing from its own
	// seeded generator (Seed xor a per-client salt). When
	// Workload.Partitions > 1, each client's Partition is set to its
	// machine id modulo Partitions, so traffic affinity follows
	// machine placement.
	Workload workload.Config
}

// Result of one store run.
type Result struct {
	// Ops counts completed operations by class.
	Ops, Gets, Puts, Updates int64
	// AckedPuts counts writes whose ack (returned version) the
	// issuing client recorded before the run ended.
	AckedPuts int64
	// LostAcked counts acknowledged writes the post-run audit could
	// not find (stored version below the acked version) — zero
	// unless shard state was genuinely lost (e.g. a primary-copy
	// shard whose only copy crashed).
	LostAcked int
	// Throughput is completed ops per virtual second of serving time
	// (first arrival to last completion).
	Throughput float64
	// Report is the run report; Report.Latency carries the kv.get /
	// kv.put / kv.update / kv.all histograms.
	Report orca.Report
	// Runtime gives the harness access to post-run statistics.
	Runtime *orca.Runtime

	// Per-phase accounting of a phase-shift trace (everything lands in
	// phase 0 when the workload has no shift). Kept out of the run's
	// histograms on purpose: it is computed from host memory after the
	// fact, so enabling it changes no simulated event.
	PhaseOps [2]int64
	// PhaseThroughput is completed ops per virtual second within each
	// phase's serving interval.
	PhaseThroughput [2]float64
	// PhaseP50US / PhaseP99US are completion-latency percentiles
	// within each phase, in virtual microseconds.
	PhaseP50US [2]float64
	PhaseP99US [2]float64
}

// shardOf maps a key to its shard with a multiplicative hash, so the
// Zipf-hot low keys spread across shards (each shard still gets hot
// keys — the hottest single key makes its shard the hot spot, which
// is the serving behavior under test).
func shardOf(key int64, shards int) int {
	h := (uint64(key) + 1) * 0x9E3779B97F4A7C15
	return int((h >> 17) % uint64(shards))
}

// shardOfAffine maps keys to shards in contiguous blocks: shard s owns
// keys [s*Keys/Shards, (s+1)*Keys/Shards). With a partitioned affinity
// workload this aligns key block, shard, and home machine.
func shardOfAffine(key, keys int64, shards int) int {
	s := int(key * int64(shards) / keys)
	if s >= shards {
		s = shards - 1
	}
	return s
}

// directory resolves every key in [0, keys) once per run, to its shard
// (shardOf, or shardOfAffine when affine) and to the reference an
// operation on it ships: slot | slots<<32, the slot being the key's
// rank among its shard's keys in ascending key order and slots, the
// shard's key count, sizing a replica's array at its first write.
func directory(keys int64, shards int, affine bool) (shard []int, ref []int64) {
	shard, ref = make([]int, keys), make([]int64, keys)
	slots := make([]int64, shards)
	for k := range shard {
		s := shardOf(int64(k), shards)
		if affine {
			s = shardOfAffine(int64(k), keys, shards)
		}
		shard[k], ref[k] = s, slots[s]
		slots[s]++
	}
	for k, s := range shard {
		ref[k] |= slots[s] << 32
	}
	return shard, ref
}

// shardOpts resolves one shard's creation options under the policy.
// seqShards > 0 stripes store shard s onto sequencer group s mod
// seqShards (the Sharded option applies the modulus).
func shardOpts(pl Policy, s, seqShards int, adapt rts.AdaptConfig) []orca.Option {
	if pl == PolicyMixed {
		if s%2 == 0 {
			pl = PolicyReplicated
		} else {
			pl = PolicyPrimary
		}
	}
	if pl == PolicyPrimary {
		return orca.Opts(orca.With(orca.PrimaryCopy{
			Protocol: orca.Update, Placement: orca.SingleCopy,
		}))
	}
	opts := orca.Opts(orca.With(orca.Replicated))
	if pl == PolicyAdaptive {
		opts = orca.Opts(orca.With(orca.Adaptive(adapt)))
	}
	if seqShards > 1 {
		opts = append(opts, orca.Sharded(s))
	}
	return opts
}

// supervisePollInterval is how often the supervisor checks client
// liveness, mirroring the fault-tolerant solvers: liveness is not a
// shared object, so the supervisor polls crash reports in virtual
// time.
const supervisePollInterval = 25 * sim.Millisecond

// Run executes the store: shards are created on their home machines,
// clients serve their trace slices, a supervisor on processor 0
// waits for every client to finish or die, and the audit then checks
// every acknowledged write. Crash schedules must not take machine 0
// (the supervisor's home, as with the fault-tolerant solvers).
func Run(cfg orca.Config, params Params) Result {
	if params.Shards == 0 {
		params.Shards = 2 * cfg.Processors
	}
	if params.Clients == 0 {
		params.Clients = cfg.Processors
	}
	if params.Workload.Keys <= 0 {
		panic("kv: Params.Workload.Keys must be positive")
	}
	if params.Workload.Keys >= 1<<31 {
		panic("kv: Params.Workload.Keys must be below 1<<31 (a key reference packs a slot and its shard's slot count into one int64)")
	}
	if params.SequencerShards > 0 {
		cfg.Shards = params.SequencerShards
	}
	// New validates the configuration; a policy it cannot host (primary
	// copies or adaptive shards without the point-to-point domain) is
	// rejected here rather than at the first shard creation.
	rt := orca.New(cfg, Register)
	for s := 0; s < 2; s++ { // PolicyMixed alternates by parity
		if err := rt.CheckPlacement(shardOpts(params.Policy, s, params.SequencerShards, params.Adapt)...); err != nil {
			panic(fmt.Sprintf("kv: %v shards: %v", params.Policy, err))
		}
	}
	res := Result{}
	rep := rt.Run(func(p *orca.Proc) {
		P := cfg.Processors
		nShards, nClients := params.Shards, params.Clients
		keyShard, keyRef := directory(params.Workload.Keys, nShards, params.AffineKeys)

		// Create shards from their home machines, so a primary copy
		// lives where the shard is homed. The handles travel through
		// host memory (the simulation shares an address space); the
		// barrier orders every creation before the first client op.
		shards := make([]Shard, nShards)
		creators := P
		if nShards < P {
			creators = nShards
		}
		ready := std.NewBarrier(p, creators)
		for home := 0; home < creators; home++ {
			home := home
			p.Fork(home, fmt.Sprintf("kv-place%d", home), func(cp *orca.Proc) {
				for s := home; s < nShards; s += P {
					shards[s] = NewShard(cp, shardOpts(params.Policy, s, params.SequencerShards, params.Adapt)...)
				}
				ready.Arrive(cp)
			})
		}
		ready.Wait(p)

		// Clients. Each records completion latencies into the shared
		// histograms and its acknowledged puts into host memory; a
		// client killed by a machine crash simply stops, leaving its
		// receipts at the last write it saw complete.
		histGet := p.Histogram("kv.get")
		histPut := p.Histogram("kv.put")
		histUpd := p.Histogram("kv.update")
		histAll := p.Histogram("kv.all")
		exited := std.NewBoolArray(p, nClients, false)
		// Versions per key are monotone in the total order, so the highest
		// acknowledged version is the receipt the audit needs.
		acked := make([]int64, params.Workload.Keys) // key -> highest acked version
		ackN := make([]int64, nClients)              // acks received (one per put)
		counts := make([][3]int64, nClients)         // gets, puts, updates
		var firstAt, lastDone sim.Time
		// Per-phase accounting, all in host memory: completion
		// latencies and serving intervals split at the workload's
		// phase shift (everything in phase 0 without one).
		var phaseLat [2][]sim.Time
		expect := params.Workload.Ops
		if r := params.Workload.Rate; r > 0 {
			expect = int(r*params.Workload.Duration.Seconds()*1.03) + 64 // arrivals are a Poisson draw
		}
		phaseLat[0] = make([]sim.Time, 0, expect) // a shift trace's second phase grows as it goes
		var phaseOps [2]int64
		var phaseFirst, phaseLast [2]sim.Time
		perRate := params.Workload.Rate / float64(nClients)
		perOps := params.Workload.Ops / nClients
		for c := 0; c < nClients; c++ {
			c := c
			wcfg := params.Workload
			wcfg.Rate = perRate
			wcfg.Ops = perOps
			wcfg.Seed = params.Workload.Seed ^ int64(c+1)*0x5DEECE66D
			if wcfg.Partitions > 1 {
				wcfg.Partition = (c % P) % wcfg.Partitions
			}
			p.Fork(c%P, fmt.Sprintf("kv-client%d", c), func(cp *orca.Proc) {
				g := workload.New(wcfg)
				// Trace arrival times count from the client's own
				// start instant (the store is up, serving begins).
				base := cp.Now()
				emitted := 0
				for {
					op, ok := g.Next()
					if !ok {
						break
					}
					// Which phase of a shift trace this op falls in,
					// mirroring the generator's own cut.
					ph := 0
					if wcfg.ShiftFrac > 0 && wcfg.ShiftFrac < 1 {
						if wcfg.Rate > 0 {
							if float64(op.At) >= wcfg.ShiftFrac*float64(wcfg.Duration) {
								ph = 1
							}
						} else if float64(emitted) >= wcfg.ShiftFrac*float64(wcfg.Ops) {
							ph = 1
						}
					}
					emitted++
					start := cp.Now()
					if op.At > 0 {
						// Open loop: wait for the arrival instant; a
						// busy client that is already past it issues
						// immediately and the latency includes the
						// backlog (no coordinated omission).
						at := base + op.At
						if at > start {
							cp.Sleep(at - start)
						}
						start = at
					}
					sh, ref := shards[keyShard[op.Key]], keyRef[op.Key]
					switch op.Kind {
					case workload.Get:
						sh.Get(cp, ref)
						counts[c][0]++
					case workload.Put:
						val := int64(c+1)<<32 | (counts[c][1] + 1)
						ver := sh.Put(cp, ref, val)
						acked[op.Key] = max(acked[op.Key], ver)
						ackN[c]++
						counts[c][1]++
					case workload.Update:
						sh.Bump(cp, ref, 1)
						counts[c][2]++
					}
					end := cp.Now()
					d := end - start
					switch op.Kind {
					case workload.Get:
						histGet.Record(d)
					case workload.Put:
						histPut.Record(d)
					case workload.Update:
						histUpd.Record(d)
					}
					histAll.Record(d)
					phaseStart := sim.Time(0)
					if ph == 1 {
						phaseStart = sim.Time(wcfg.ShiftFrac * float64(wcfg.Duration))
					}
					if op.At == 0 || op.At >= phaseStart+params.PhaseWarmup {
						phaseLat[ph] = append(phaseLat[ph], d)
					}
					phaseOps[ph]++
					if phaseFirst[ph] == 0 || start < phaseFirst[ph] {
						phaseFirst[ph] = start
					}
					if end > phaseLast[ph] {
						phaseLast[ph] = end
					}
					if firstAt == 0 || start < firstAt {
						firstAt = start
					}
					if end > lastDone {
						lastDone = end
					}
					if op.At == 0 && wcfg.Think > 0 {
						cp.Sleep(wcfg.Think)
					}
				}
				exited.Set(cp, c, true)
			})
		}

		// Supervisor: a client is settled once it has exited or its
		// machine is down.
		for {
			settled := true
			for c := 0; c < nClients; c++ {
				if !exited.Get(p, c) && !p.NodeDown(c%P) {
					settled = false
					break
				}
			}
			if settled {
				break
			}
			p.Sleep(supervisePollInterval)
		}

		// Audit: every acknowledged write must still be visible at
		// (at least) its acked version — including writes acked to
		// clients that died afterwards. Keys are audited in ascending
		// order so the audit's own op sequence is deterministic.
		for k, want := range acked {
			if want == 0 {
				continue
			}
			if _, ver := shards[keyShard[k]].Get(p, keyRef[k]); ver < want {
				res.LostAcked++
			}
		}
		for c := 0; c < nClients; c++ {
			res.AckedPuts += ackN[c]
			res.Gets += counts[c][0]
			res.Puts += counts[c][1]
			res.Updates += counts[c][2]
		}
		res.Ops = res.Gets + res.Puts + res.Updates
		if lastDone > firstAt {
			res.Throughput = float64(res.Ops) / (lastDone - firstAt).Seconds()
		}
		for ph := 0; ph < 2; ph++ {
			lats := phaseLat[ph]
			res.PhaseOps[ph] = phaseOps[ph]
			if phaseLast[ph] > phaseFirst[ph] {
				res.PhaseThroughput[ph] = float64(phaseOps[ph]) / (phaseLast[ph] - phaseFirst[ph]).Seconds()
			}
			if len(lats) == 0 {
				continue
			}
			slices.Sort(lats)
			res.PhaseP50US[ph] = float64(lats[(len(lats)-1)*50/100]) / float64(sim.Microsecond)
			res.PhaseP99US[ph] = float64(lats[(len(lats)-1)*99/100]) / float64(sim.Microsecond)
		}
	})
	res.Report = rep
	res.Runtime = rt
	return res
}
