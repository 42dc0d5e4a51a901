package harness

import (
	"fmt"
	"io"

	"repro/internal/apps/tsp"
	"repro/internal/orca"
	"repro/internal/orca/std"
)

// ScaleExperiment measures large-P scale-out and the batching
// pipeline's frame amortization (see DESIGN.md, "Batching and frame
// packing"). Two workloads sweep the processor count, batched against
// unbatched:
//
//   - counter: the broadcast-write microworkload — every processor
//     streams no-result counter assignments through the total order.
//     This is the sequencer-bound worst case the batching pipeline
//     targets; frames/op is the amortization headline.
//   - TSP: the paper's Figure 2 application, read-dominated with a
//     shared bound and a job queue — batching must not change its
//     optimum, and the harness panics if it does.
//
// Each row reports virtual time (the simulated outcome), total wire
// frames and frames per runtime-level operation; what the same runs
// cost the host is bench/'s job (sim.wall_ns_per_event,
// ops_per_wall_s). The harness panics if the batched counter workload
// misses the frames/op target at P >= 32 — that target is the point of
// the pipeline.
func ScaleExperiment(w io.Writer, scale Scale) {
	procs := []int{8, 16, 32, 64, 128}
	tspProcs := []int{8, 16, 32, 64}
	cities := 12
	opsPer := 200
	if scale == Quick {
		procs = []int{8, 32}
		tspProcs = []int{8}
		cities = 11
		opsPer = 100
	}

	fmt.Fprintln(w, "== SCALE: sequencer batching and large-P scale-out ==")

	// Counter microworkload.
	fmt.Fprintf(w, "-- counter: %d no-result assigns per processor through the total order --\n", opsPer)
	var rows [][]string
	for _, p := range procs {
		for _, batched := range []bool{false, true} {
			cfg := orca.Config{Processors: p, RTS: orca.Broadcast, Seed: 1}
			if batched {
				cfg.Batching = orca.DefaultBatching()
			}
			rt := orca.New(cfg, std.Register)
			rep := rt.Run(func(pr *orca.Proc) {
				c := std.NewCounter(pr, 0)
				fin := std.NewBarrier(pr, p)
				for cpu := 0; cpu < p; cpu++ {
					cpu := cpu
					pr.Fork(cpu, fmt.Sprintf("scale-w%d", cpu), func(wp *orca.Proc) {
						for i := 0; i < opsPer; i++ {
							c.Assign(wp, cpu*opsPer+i)
						}
						fin.Arrive(wp)
					})
				}
				fin.Wait(pr)
				c.Value(pr)
			})
			mustFinish(fmt.Sprintf("scale counter P=%d batched=%v", p, batched), rep)
			st := rep.RTS
			ops := st.BcastWrites + st.BatchedOps
			fpo := float64(rep.Net.Frames) / float64(ops)
			if batched && p >= 32 && fpo >= 0.25 {
				panic(fmt.Sprintf("harness: batched frames/op = %.3f at P=%d, want < 0.25", fpo, p))
			}
			rows = append(rows, []string{
				fmt.Sprint(p), onOff(batched),
				fmtTime(rep.Elapsed), fmt.Sprint(rep.Net.Frames), fmt.Sprint(ops),
				fmt.Sprintf("%.3f", fpo),
				fmt.Sprint(st.BatchedOps), fmt.Sprint(st.Frames),
			})
		}
	}
	Table(w, []string{"procs", "batch", "virtual", "frames", "ops", "frames/op", "batched", "bframes"}, rows)
	fmt.Fprintln(w)

	// TSP application sweep.
	fmt.Fprintf(w, "-- TSP %d cities: batching must not change the optimum --\n", cities)
	inst := tsp.Generate(cities, 5)
	rows = rows[:0]
	best := -1
	for _, p := range tspProcs {
		for _, batched := range []bool{false, true} {
			cfg := orca.Config{Processors: p, RTS: orca.Broadcast, Seed: 1}
			if batched {
				cfg.Batching = orca.DefaultBatching()
			}
			r := tsp.RunOrca(cfg, inst, tsp.Params{})
			if best == -1 {
				best = r.Best
			} else if r.Best != best {
				panic(fmt.Sprintf("harness: TSP optimum drifted under batching: %d vs %d (P=%d batched=%v)",
					r.Best, best, p, batched))
			}
			st := r.Report.RTS
			ops := st.BcastWrites + st.BatchedOps + st.LocalReads
			rows = append(rows, []string{
				fmt.Sprint(p), onOff(batched),
				fmtTime(r.Report.Elapsed), fmt.Sprint(r.Report.Net.Frames),
				fmt.Sprintf("%.4f", float64(r.Report.Net.Frames)/float64(ops)),
				fmt.Sprint(r.Best), fmt.Sprint(st.BatchedOps), fmt.Sprint(st.Frames),
			})
		}
	}
	Table(w, []string{"procs", "batch", "virtual", "frames", "frames/op", "best", "batched", "bframes"}, rows)
	fmt.Fprintln(w, "Batching packs many ops into one sequenced frame (one seq number per")
	fmt.Fprintln(w, "op), so the ordering protocol's frame rate stops being the throughput")
	fmt.Fprintln(w, "ceiling: frames/op drops by roughly the batch factor under write-heavy")
	fmt.Fprintln(w, "load, and stays harmless on read-dominated applications.")
	fmt.Fprintln(w)
}

// onOff renders a batched/unbatched flag.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
