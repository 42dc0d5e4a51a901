package harness

import (
	"repro/internal/apps/acp"
	"repro/internal/apps/atpg"
	"repro/internal/apps/chess"
	"repro/internal/apps/kv"
	"repro/internal/apps/tsp"
	"repro/internal/group"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/rts"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Pin is one entry of the catalogue of pinned configurations: a named
// row whose fingerprint the root package's determinism test compares
// with its pinned string, and whose virtual time the root benchmark
// reports.
type Pin struct {
	Name string
	// Quoted entries are pinned by the figures EXPERIMENTS.md quotes
	// (virtual seconds, wire traffic, runtime counters), not by their
	// whole schedule.
	Quoted bool
	row    func() Ran[any]
}

func pin[R any](name string, quoted bool, row Row[R]) Pin {
	return Pin{name, quoted, func() Ran[any] {
		res, rep := row.Run(row.Cfg, nil)
		return Ran[any]{Key: row.Key, Cfg: row.Cfg, Res: res, Report: rep}
	}}
}

// Run executes the entry once.
func (p Pin) Run() Ran[any] { return p.row() }

// Twice runs the entry and its twin, as the driver runs every row, and
// returns the fingerprint fp renders of the run. It fails if a run
// timed out or the twin's fingerprint differs.
func (p Pin) Twice(fp func(Ran[any]) string) (string, error) {
	return twice(func() (string, string, error) {
		r := p.row()
		if err := mustFinish(r.Report); err != nil {
			return "", "", err
		}
		s := fp(r)
		return s, s, nil
	})
}

// Catalogue lists the pinned configurations: up to kv-crash, reduced
// instances of each application on 4 processors, seed 1, pinned by
// their whole schedule; then the orca op stream's per-operation costs;
// then the larger configurations (P=8..128) EXPERIMENTS.md quotes.
func Catalogue() []Pin {
	tsp10, tsp12, acp16 := tsp.Generate(10, 5), tsp.Generate(12, 5), acp.GeneratePropagation(16, 16, 12, 2)
	none, ft, pq := tsp.Params{}, tsp.Params{FaultTolerant: true}, tsp.Params{PrimaryCopyQueue: true}
	p2p := bcast(4)
	p2p.RTS = orca.P2PUpdate
	// seqDies puts the sequencer on machine node, which dies at 150 ms.
	seqDies := func(cfg orca.Config, node int, protocol group.Protocol) orca.Config {
		cfg.Sequencer, cfg.Protocol = node, protocol
		return crashing(cfg, node, 150*sim.Millisecond)
	}
	quorum := batched(bcast(32), true)
	quorum.Protocol = group.Consensus
	zipf := workload.Config{Keys: 512, Dist: workload.Zipf, Theta: 0.99, ReadFrac: 0.9, UpdateFrac: 0.05, Seed: 1,
		Rate: 4000, Duration: 50 * sim.Millisecond}
	zipf8 := zipfLoad(2048, 8, 100*sim.Millisecond)
	// shifting is the phase-shift affinity trace under the adaptive
	// controller, one shard and one key partition per machine.
	shifting := func(p int, keys, seed int64, every int, rate float64) kv.Params {
		return kv.Params{Policy: kv.PolicyAdaptive, Shards: p, AffineKeys: true,
			Adapt: rts.AdaptConfig{SampleEvery: every, MinDwell: 10 * sim.Millisecond},
			Workload: workload.Config{Keys: keys, Dist: workload.Uniform, ReadFrac: 0.5, UpdateFrac: 0.25, Seed: seed,
				Rate: rate, Duration: 200 * sim.Millisecond, ShiftFrac: 0.5, Partitions: p, LocalFrac: 0.9}}
	}
	read := func(p *orca.Proc, c std.Counter, _ int64) { c.Value(p) }
	write := func(p *orca.Proc, c std.Counter, i int64) { c.Assign(p, int(i)) }
	return []Pin{
		pin("tsp", false, tspRow(tsp10, none, bcast(4))),
		pin("tsp-p2p", false, tspRow(tsp10, none, p2p)),
		pin("tsp-mixed", false, tspRow(tsp10, pq, mixedRTS(4))),
		pin("tsp-batched", false, tspRow(tsp10, none, batched(bcast(4), true))),
		pin("tsp-crash", false, tspRow(tsp10, ft, seqDies(bcast(4), 3, group.ElectedSequencer))),
		pin("tsp-consensus-crash", false, tspRow(tsp10, ft, seqDies(bcast(4), 3, group.Consensus))),
		pin("acp", false, acpRow(acp16, acp.Params{}, bcast(4))),
		pin("acp-crash", false, acpRow(acp16, acp.Params{FaultTolerant: true}, crashing(bcast(4), 2, 120*sim.Millisecond))),
		pin("chess", false, chessRow(chess.Params{MaxDepth: 3, SharedTT: true, SharedKiller: true}, bcast(4))),
		pin("atpg", false, atpgRow(atpg.Generate(12, 5, 20, 42), atpg.Params{Mode: atpg.StaticFaultSim}, bcast(4))),
		pin("kv", false, kvRow(mixedRTS(4), kv.Params{Policy: kv.PolicyMixed, Workload: zipf})),
		pin("kv-adaptive", false, kvRow(mixedRTS(4), shifting(4, 512, 7, 32, 6000))),
		pin("kv-crash", false, kvRow(crashing(mixedRTS(4), 3, 25*sim.Millisecond), kv.Params{Policy: kv.PolicyReplicated, Workload: zipf})),
		pin("orca-local-read", false, opStream(2_000_000, read, bcast(4))),
		pin("orca-broadcast-write", false, opStream(100_000, write, bcast(4))),
		pin("orca-bcast-write-batched", false, opStream(100_000, write, batched(bcast(4), true))),
		pin("fig2-tsp-p8", true, tspRow(tsp12, none, bcast(8))),
		pin("mixed-tsp-p8", true, tspRow(tsp12, pq, mixedRTS(8))),
		pin("scale-tsp-p32", true, tspRow(tsp12, none, batched(bcast(32), true))),
		pin("consensus-tsp-p32", true, tspRow(tsp12, none, quorum)),
		pin("consensus-tsp-crash-p8", true, tspRow(tsp12, ft, seqDies(bcast(8), 7, group.Consensus))),
		pin("kv-zipf-p8-repl", true, kvRow(mixedRTS(8), kv.Params{Policy: kv.PolicyReplicated, Workload: zipf8})),
		pin("kv-zipf-p8-primary", true, kvRow(mixedRTS(8), kv.Params{Policy: kv.PolicyPrimary, Workload: zipf8})),
		pin("adapt-kv-shift-p32", true, kvRow(mixedRTS(32), shifting(32, 4096, 1, 16, 6400))),
		pin("shard-counter-p128-s16", true, counterStream(false, 100, sharded(batched(modern(bcast(128)), true), 16, true))),
		pin("shard-tsp-p64-s8", true, tspRow(tsp12, none, sharded(batched(bcast(64), true), 8, false))),
	}
}

// opStream is the orca op stream: the main process of the row's
// runtime issues n operations on one counter. Its result is the mean
// virtual time of one operation.
func opStream(n int64, op func(p *orca.Proc, c std.Counter, i int64), cfg orca.Config) Row[sim.Time] {
	return Row[sim.Time]{Cfg: cfg, Run: func(cfg orca.Config, _ []Ran[sim.Time]) (sim.Time, orca.Report) {
		var per sim.Time
		rep := orca.New(cfg, std.Register).Run(func(p *orca.Proc) {
			c := std.NewCounter(p, 0)
			start := p.Now()
			for i := int64(0); i < n; i++ {
				op(p, c, i)
			}
			per = (p.Now() - start) / sim.Time(n)
		})
		return per, rep
	}}
}
