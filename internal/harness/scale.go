package harness

import (
	"fmt"

	"repro/internal/apps/tsp"
	"repro/internal/orca"
	"repro/internal/orca/std"
)

// stream is one run of the counter-stream program.
type stream struct {
	writes    int64   // operations through the total order
	perSec    float64 // writes per virtual second
	overFirst float64 // perSec over that of the first row at the same P
}

// counterStream is the broadcast-write microworkload scale and shard
// share: every machine streams n no-result assigns through the
// total order. With one counter all machines write the same object;
// otherwise each machine creates its own, in its replication domain's
// shard when the configuration is sharded, so the issued trace is
// identical across shard counts at fixed P and only the ordering
// structure changes.
func counterStream(oneCounter bool, n int, cfg orca.Config, key ...any) Row[stream] {
	return Row[stream]{Key: keys(key...), Cfg: cfg, Run: func(cfg orca.Config, done []Ran[stream]) (stream, orca.Report) {
		p := cfg.Processors
		rep := orca.New(cfg, std.Register).Run(func(pr *orca.Proc) {
			var shared std.Counter
			if oneCounter {
				shared = std.NewCounter(pr, 0)
			}
			fin := std.NewBarrier(pr, p)
			for cpu := 0; cpu < p; cpu++ {
				pr.Fork(cpu, fmt.Sprintf("stream-w%d", cpu), func(wp *orca.Proc) {
					c := shared
					if !oneCounter {
						var opts []orca.Option
						if cfg.Shards > 1 {
							opts = append(opts, orca.OnShard(cpu/cfg.ShardSpan))
						}
						c = std.NewCounter(wp, 0, opts...)
					}
					for i := 0; i < n; i++ {
						c.Assign(wp, cpu*n+i)
					}
					fin.Arrive(wp)
				})
			}
			fin.Wait(pr)
			if oneCounter {
				shared.Value(pr)
			}
		})
		out := stream{writes: rep.RTS.BcastWrites + rep.RTS.BatchedOps, overFirst: 1}
		out.perSec = float64(out.writes) / rep.Elapsed.Seconds()
		for _, d := range done {
			if d.Cfg.Processors == p {
				out.overFirst = out.perSec / d.Res.perSec
				break
			}
		}
		return out, rep
	}}
}

// scaleOut measures large-P scale-out and the batching pipeline's
// frame amortization (see DESIGN.md, "Batching and frame packing").
// Two workloads sweep the processor count, batched against unbatched:
//
//   - counter: the broadcast-write microworkload — every processor
//     streams no-result counter assignments through the total order.
//     This is the sequencer-bound worst case the batching pipeline
//     targets; frames/op is the amortization headline, and missing its
//     target at P >= 32 fails a check — that target is the point of
//     the pipeline.
//   - TSP: the paper's Figure 2 application, read-dominated with a
//     shared bound and a job queue — batching must not change its
//     optimum.
//
// Each row reports virtual time (the simulated outcome), total wire
// frames and frames per runtime-level operation; what the same runs
// cost the host is bench/'s job (sim.wall_ns_per_event,
// ops_per_wall_s).
func scaleOut(s Scale) Spec {
	cities, opsPer := at(s, 12, 11), at(s, 200, 100)
	framesPerOp := func(r Ran[stream]) float64 { return float64(r.Report.Net.Frames) / float64(r.Res.writes) }
	counter := Tab[stream]{
		Name:    "counter",
		Heading: fmt.Sprintf("-- counter: %d no-result assigns per processor through the total order --", opsPer),
		Cols:    []string{"procs", "batch", "virtual", "frames", "ops", "frames/op", "batched", "bframes"},
		Cells: func(r Ran[stream]) []any {
			rep := r.Report
			return []any{rep.Elapsed, rep.Net.Frames, r.Res.writes, fmt.Sprintf("%.3f", framesPerOp(r)), rep.RTS.BatchedOps, rep.RTS.Frames}
		},
		Checks: []Check[stream]{each("batched frames per op < 0.25 at P >= 32", func(r Ran[stream]) error {
			if fpo := framesPerOp(r); r.Cfg.Batching != nil && r.Cfg.Processors >= 32 && fpo >= 0.25 {
				return fmt.Errorf("frames/op %.3f, want < 0.25", fpo)
			}
			return nil
		})},
	}
	inst := tsp.Generate(cities, 5)
	app := Tab[tsp.Result]{
		Name:    "tsp",
		Heading: fmt.Sprintf("-- TSP %d cities: batching must not change the optimum --", cities),
		Cols:    []string{"procs", "batch", "virtual", "frames", "frames/op", "best", "batched", "bframes"},
		Cells: func(r Ran[tsp.Result]) []any {
			rep, st := r.Report, r.Report.RTS
			ops := st.BcastWrites + st.BatchedOps + st.LocalReads
			return []any{rep.Elapsed, rep.Net.Frames, fmt.Sprintf("%.4f", float64(rep.Net.Frames)/float64(ops)), r.Res.Best, st.BatchedOps, st.Frames}
		},
		Checks: []Check[tsp.Result]{sameOptimum},
		Prose: `Batching packs many ops into one sequenced frame (one seq number per
op), so the ordering protocol's frame rate stops being the throughput
ceiling: frames/op drops by roughly the batch factor under write-heavy
load, and stays harmless on read-dominated applications.`,
	}
	for _, p := range at(s, []int{8, 16, 32, 64, 128}, []int{8, 32}) {
		for _, on := range []bool{false, true} {
			counter.Rows = append(counter.Rows, counterStream(true, opsPer, batched(bcast(p), on), p, onOff(on)))
		}
	}
	for _, p := range at(s, []int{8, 16, 32, 64}, []int{8}) {
		for _, on := range []bool{false, true} {
			app.Rows = append(app.Rows, tspRow(inst, tsp.Params{}, batched(bcast(p), on), p, onOff(on)))
		}
	}
	return Spec{Title: "== SCALE: sequencer batching and large-P scale-out ==", Tables: []Block{counter, app}}
}
