package orca_test

import (
	"fmt"
	"testing"

	"repro/internal/group"
	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/rts"
	"repro/internal/rts/scheck"
	"repro/internal/sim"
)

// matrixPlacements are the creation-option lists every configuration is
// asked to host, side by side in one program. hosted says whether a
// configuration builds the domain the placement needs — the whole
// validity rule of the placement router: sequencer groups exist with
// broadcast hardware, the point-to-point domain with a point-to-point
// RTS or Mixed, and an adaptive object needs both.
var matrixPlacements = []struct {
	name   string
	opts   []orca.Option
	hosted func(groups, p2p bool) bool
}{
	{"default", nil, func(g, p bool) bool { return true }},
	{"Replicated", orca.Opts(orca.With(orca.Replicated)), func(g, p bool) bool { return g }},
	{"Replicated+At", orca.Opts(orca.With(orca.Replicated), orca.At(0, 1)), func(g, p bool) bool { return g }},
	{"PrimaryCopy", orca.Opts(orca.With(orca.PrimaryCopy{Protocol: orca.Update, Placement: orca.SingleCopy})), func(g, p bool) bool { return p }},
	{"Adaptive", orca.Opts(orca.With(orca.Adaptive(rts.AdaptConfig{
		SampleEvery: 8, MinDwell: sim.Millisecond, WriteHeavyFrac: 0.08, ReadHeavyFrac: 0.04, DominantFrac: 0.5,
	}))), func(g, p bool) bool { return g && p }},
	{"OnShard", orca.Opts(orca.With(orca.Replicated), orca.OnShard(0)), func(g, p bool) bool { return g }},
}

// matrixOutcome is what one run of the matrix program produced.
type matrixOutcome struct {
	created []bool          // per placement: creation succeeded
	hist    [][][]scheck.Op // [placement][process] observed history
	fp      string
}

// matrixRun runs the reader/writer program under cfg: processor 0
// creates one counter per placement (recording which creations the
// router refuses), then every processor hammers every created counter —
// processor 0 writes unique values for the first half, processor 1 for
// the second, everyone else reads through the typed API.
func matrixRun(t *testing.T, cfg orca.Config) matrixOutcome {
	const iters = 12
	P := cfg.Processors
	out := matrixOutcome{created: make([]bool, len(matrixPlacements)), hist: make([][][]scheck.Op, len(matrixPlacements))}
	rt := orca.New(cfg, std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		objs := make([]std.Counter, len(matrixPlacements))
		for i, pl := range matrixPlacements {
			out.hist[i] = make([][]scheck.Op, P)
			func() {
				defer func() { out.created[i] = recover() == nil }()
				objs[i] = std.NewCounter(p, 0, pl.opts...)
			}()
		}
		fin := std.NewBarrier(p, P)
		body := func(wp *orca.Proc) {
			me := wp.CPU()
			for it := 0; it < iters; it++ {
				for i, c := range objs {
					if !out.created[i] {
						continue
					}
					if me == it/(iters/2) {
						v := (i+1)*10000 + me*100 + it + 1 // unique, nonzero
						c.Assign(wp, v)
						out.hist[i][me] = append(out.hist[i][me], scheck.Op{Proc: me, Write: true, Val: v})
					} else {
						out.hist[i][me] = append(out.hist[i][me], scheck.Op{Proc: me, Val: c.Value(wp)})
					}
				}
				wp.Work(50 * sim.Microsecond)
			}
			fin.Arrive(wp)
		}
		for cpu := 1; cpu < P; cpu++ {
			p.Fork(cpu, fmt.Sprintf("w%d", cpu), body)
		}
		body(p)
		fin.Wait(p)
	})
	if rep.TimedOut {
		t.Fatalf("timed out; blocked: %v", rep.Blocked)
	}
	out.fp = fmt.Sprintf("%s created=%v placements=%v", observed(rt, rep), out.created, rep.Placements)
	return out
}

// matrixConfigs calls cell with every combination of runtime kind, Mixed,
// sharding, replication domains, batching and sequencing protocol.
func matrixConfigs(t *testing.T, cell func(t *testing.T, cfg orca.Config)) {
	const P = 4
	type seq struct {
		name     string
		method   group.Method
		protocol group.Protocol
	}
	for _, kind := range []orca.RTSKind{orca.Broadcast, orca.P2PUpdate, orca.P2PInvalidate} {
		for _, mixed := range []bool{false, true} {
			for _, shards := range []int{1, 4} {
				for _, span := range []int{0, P / 2} {
					for _, batching := range []bool{false, true} {
						for _, sq := range []seq{{"pb", group.ForcePB, group.ElectedSequencer}, {"bb", group.ForceBB, group.ElectedSequencer}, {"consensus", group.Auto, group.Consensus}} {
							cfg := orca.Config{Processors: P, RTS: kind, Mixed: mixed, Seed: 7,
								Shards: shards, ShardSpan: span, GroupMethod: sq.method, Protocol: sq.protocol}
							if batching {
								cfg.Batching = orca.DefaultBatching()
							}
							name := fmt.Sprintf("%v/mixed=%v/shards=%d/span=%d/batch=%v/%s", kind, mixed, shards, span, batching, sq.name)
							t.Run(name, func(t *testing.T) { cell(t, cfg) })
						}
					}
				}
			}
		}
	}
}

// TestConfigMatrix drives every such combination through the same
// program, which asks for every placement. A
// configuration either fails Validate (and New panics) or builds, with
// no process of the runtime's own; a placement either is refused at
// creation — exactly when its domain was not built — or serves a
// sequentially consistent history; and a second run reproduces the
// first bit for bit.
func TestConfigMatrix(t *testing.T) { matrixConfigs(t, matrixCell) }

func matrixCell(t *testing.T, cfg orca.Config) {
	groups := cfg.RTS == orca.Broadcast || cfg.Mixed
	p2p := cfg.RTS != orca.Broadcast || cfg.Mixed
	// Group settings without groups, and a span that leaves machines
	// without a shard, are the configuration errors.
	wantErr := !groups && (cfg.Batching != nil || cfg.Protocol != group.ElectedSequencer || cfg.Shards > 1 || cfg.ShardSpan != 0) ||
		cfg.ShardSpan != 0 && cfg.Shards%(cfg.Processors/cfg.ShardSpan) != 0
	if err := cfg.Validate(); (err != nil) != wantErr {
		t.Fatalf("Validate() = %v, want error: %v", err, wantErr)
	}
	if wantErr {
		defer func() {
			if recover() == nil {
				t.Error("New built a configuration Validate rejects")
			}
		}()
		orca.New(cfg, std.Register)
		return
	}
	if n := orca.New(cfg, std.Register).Env().LiveProcs(); n != 0 {
		t.Errorf("a freshly built runtime has %d processes, want none", n)
	}
	out := matrixRun(t, cfg)
	for i, pl := range matrixPlacements {
		if want := pl.hosted(groups, p2p); out.created[i] != want {
			t.Errorf("%s: created = %v, want %v", pl.name, out.created[i], want)
		}
		if err := scheck.Check(out.hist[i]); err != nil {
			t.Errorf("%s: %v", pl.name, err)
		}
	}
	if again := matrixRun(t, cfg); again.fp != out.fp {
		t.Errorf("second run differs:\n  %s\n  %s", out.fp, again.fp)
	}
}

// TestInvokeFencedRejectsUnfenceableObjects: a fence that names a
// primary-copy or adaptive object is refused before anything is
// sequenced — the replicated write in the same fence never applies.
func TestInvokeFencedRejectsUnfenceableObjects(t *testing.T) {
	rt := orca.New(orca.Config{Processors: 2, RTS: orca.Broadcast, Mixed: true, Shards: 2, Seed: 3}, std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		rep := p.NewWith(std.IntObj, orca.Opts(orca.With(orca.Replicated)), 0)
		for _, pol := range []orca.Policy{orca.PrimaryCopy{}, orca.Adaptive(rts.AdaptConfig{})} {
			bad := p.NewWith(std.IntObj, orca.Opts(orca.With(pol)), 0)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("a fence naming a %T object did not panic", pol)
					}
				}()
				p.InvokeFenced(orca.FencedOp{Obj: rep, Op: "assign", Args: []any{1}},
					orca.FencedOp{Obj: bad, Op: "assign", Args: []any{1}})
			}()
		}
		if got := p.InvokeI(rep, "value"); got != 0 {
			t.Errorf("a rejected fence applied its replicated write: value = %d", got)
		}
	})
	if rep.RTS.FencedOps != 0 {
		t.Errorf("FencedOps = %d after only rejected fences", rep.RTS.FencedOps)
	}
}
