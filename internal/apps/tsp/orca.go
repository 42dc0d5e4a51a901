package tsp

import (
	"fmt"

	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/rts"
	"repro/internal/sim"
)

// Result of one Orca TSP run.
type Result struct {
	Best   int
	Nodes  int64
	Report orca.Report
	// Runtime gives the harness access to post-run statistics
	// (group protocol counters, RTS counters).
	Runtime *orca.Runtime
}

// Params configures the Orca TSP program.
type Params struct {
	// JobDepth is the partial-route length of generated jobs
	// (default 4: fine-grained jobs for tail load balance).
	JobDepth int
	// ChunkSize is how many jobs travel per queue entry (default 6),
	// amortizing queue traffic over fine-grained jobs.
	ChunkSize int
	// SingleCopyQueue keeps the job queue on the manager's machine
	// only, instead of replicating it everywhere. The paper: "The RTS
	// described in this paper (the original one), replicates it on
	// all machines, although keeping a single copy would be better."
	SingleCopyQueue bool
	// PrimaryCopyQueue places the job queue on the point-to-point
	// runtime (primary copy on the manager, update protocol, no
	// secondaries) while the bound stays broadcast-replicated — the
	// paper's mixed strategy inside one program. Requires Config.Mixed.
	PrimaryCopyQueue bool
	// FaultTolerant runs the crash-aware variant: jobs travel through
	// a claim-tracking queue and the manager requeues a dead worker's
	// chunks, so a fault plan crashing worker machines still finds the
	// true optimum (see faults.go). Incompatible with the queue
	// placement options above.
	FaultTolerant bool
	// Workers overrides the worker count (default: one per CPU).
	Workers int
}

// Chunk is a batch of jobs taken from the queue in one operation.
type Chunk struct{ Jobs []Job }

// WireSize reports the chunk's size on the wire.
func (c Chunk) WireSize() int {
	n := 8
	for _, j := range c.Jobs {
		n += j.WireSize()
	}
	return n
}

// RunOrca executes the paper's TSP program on the given simulated
// machine: a manager fills the job queue with partial routes, one
// worker per processor repeatedly takes a job and searches it, pruning
// with the shared global bound.
func RunOrca(cfg orca.Config, inst *Instance, params Params) Result {
	if params.JobDepth == 0 {
		params.JobDepth = 4
	}
	if params.ChunkSize == 0 {
		params.ChunkSize = 6
	}
	if params.FaultTolerant {
		if params.SingleCopyQueue || params.PrimaryCopyQueue {
			panic("tsp: FaultTolerant uses its own job tracker; queue placement options do not apply")
		}
		return runOrcaFT(cfg, inst, params)
	}
	workers := params.Workers
	if workers == 0 {
		workers = cfg.Processors
	}
	rt := orca.New(cfg, std.Register)
	minOut := inst.MinOut() // every search of the run reads this one table
	res := Result{}
	rep := rt.Run(func(p *orca.Proc) {
		// The manager seeds the bound with a nearest-neighbor tour
		// (an O(n^2) computation it pays for) so pruning works from
		// the start on every worker.
		nn := InitialBound(inst)
		p.Work(sim.Time(inst.N*inst.N) * 2 * sim.Microsecond)
		bound := std.NewCounter(p, nn+1)
		var queue std.Queue[Chunk]
		switch {
		case params.PrimaryCopyQueue:
			queue = std.NewQueue[Chunk](p, orca.With(orca.PrimaryCopy{
				Protocol: orca.Update, Placement: orca.SingleCopy,
			}))
		case params.SingleCopyQueue:
			queue = std.NewQueue[Chunk](p, orca.At(p.CPU()))
		default:
			queue = std.NewQueue[Chunk](p)
		}
		nodesAcc := std.NewAccum(p)
		fin := std.NewBarrier(p, workers)

		// Workers: replicated across the processors.
		for wdx := 0; wdx < workers; wdx++ {
			cpu := wdx % cfg.Processors
			p.Fork(cpu, fmt.Sprintf("tsp-worker%d", wdx), func(wp *orca.Proc) {
				var total int64
				for {
					chunk, ok := queue.Get(wp)
					if !ok {
						break
					}
					for _, job := range chunk.Jobs {
						n := SearchJob(inst, minOut, job,
							func() int {
								wp.Work(BoundReadCost)
								return bound.Value(wp)
							},
							func(totalLen int) {
								// Only write when the route actually improves
								// on the (locally readable) bound; the min
								// operation re-checks indivisibly, so the
								// read-then-write race is benign.
								if totalLen < bound.Value(wp) {
									bound.Min(wp, totalLen)
								}
							},
							func(n int64) {
								wp.Work(sim.Time(n) * NodeCost)
							})
						total += n
					}
				}
				nodesAcc.Add(wp, int(total))
				fin.Arrive(wp)
			})
		}

		// Manager: generate jobs (paying for the generation) and add
		// them to the queue best-first. The head of the queue holds
		// the large subtrees, which must spread across workers, so it
		// is added as single-job entries; the long tail of small jobs
		// is batched to amortize queue traffic.
		jobs := GenerateJobs(inst, params.JobDepth)
		p.Work(sim.Time(len(jobs)) * 50 * sim.Microsecond)
		singles := 4 * workers
		if singles > len(jobs) {
			singles = len(jobs)
		}
		for i := 0; i < singles; i++ {
			queue.Add(p, Chunk{Jobs: jobs[i : i+1]})
		}
		for lo := singles; lo < len(jobs); lo += params.ChunkSize {
			hi := lo + params.ChunkSize
			if hi > len(jobs) {
				hi = len(jobs)
			}
			queue.Add(p, Chunk{Jobs: jobs[lo:hi]})
		}
		queue.Close(p)

		fin.Wait(p)
		res.Best = bound.Value(p)
		res.Nodes = int64(nodesAcc.Value(p))
	})
	res.Report = rep
	res.Runtime = rt
	return res
}

// Sized check: jobs carry their wire size.
var _ rts.Sized = Job{}
