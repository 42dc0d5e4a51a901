package tsp

import (
	"fmt"

	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/rts"
	"repro/internal/sim"
)

// Fault-tolerant TSP. The paper's replicated-worker TSP loses work
// when a worker machine crashes: jobs the dead worker had dequeued are
// gone, so the search may silently miss the optimum, and the final
// barrier waits forever. The crash-aware variant replaces the plain
// job queue + barrier with a job tracker — a shared object that
// remembers which worker holds which chunk — so the manager can
// requeue a dead worker's claimed chunks and the computation still
// visits every subtree. The bound object needs nothing: it is fully
// replicated, and a dead worker's last bound improvement was either
// broadcast (every survivor prunes with it) or lost with a subtree
// that will be re-searched anyway.

// TrackerObj is the registered type name of the job tracker.
const TrackerObj = "tsp.tracker"

// trackerState is the job tracker: pending chunks, per-worker claims,
// per-worker liveness, and completion counting. One shared object
// holds all of it because Orca guards range over a single object: the
// blocking take must see the queue, the close bit, and the completion
// count in one indivisible evaluation.
type trackerState struct {
	jobs    []Chunk // pending chunks, FIFO
	claims  []Chunk // claims[w]: chunk worker w is searching
	claimed []bool  // claims[w] valid
	dead    []bool  // w was retired after its machine crashed
	closed  bool    // all chunks generated
	total   int     // chunks added
	done    int     // chunks completed
}

// WireSize implements rts.Sized.
func (s *trackerState) WireSize() int {
	n := 21 + len(s.claimed) + len(s.dead)
	for i := range s.jobs {
		n += s.jobs[i].WireSize()
	}
	for w := range s.claims {
		if s.claimed[w] {
			n += s.claims[w].WireSize()
		}
	}
	return n
}

var (
	trackerB = orca.NewType(TrackerObj, func(args []any) *trackerState {
		workers := args[0].(int)
		return &trackerState{
			claims:  make([]Chunk, workers),
			claimed: make([]bool, workers),
			dead:    make([]bool, workers),
		}
	}).
		CloneWith(func(s *trackerState) *trackerState {
			return &trackerState{
				jobs:    append([]Chunk(nil), s.jobs...),
				claims:  append([]Chunk(nil), s.claims...),
				claimed: append([]bool(nil), s.claimed...),
				dead:    append([]bool(nil), s.dead...),
				closed:  s.closed,
				total:   s.total,
				done:    s.done,
			}
		}).
		SizedBy((*trackerState).WireSize)

	trackerAdd = orca.DefUpdate(trackerB, "add", func(s *trackerState, c Chunk) {
		s.jobs = append(s.jobs, c)
		s.total++
	})
	trackerClose = orca.DefUpdate0(trackerB, "close", func(s *trackerState) { s.closed = true })
	// take blocks until a chunk is available or the computation has
	// finished (all chunks generated and completed), then indivisibly
	// dequeues and records the claim. A retired worker's take — one
	// that was already in flight when its machine crashed — returns
	// empty instead of claiming, so requeued chunks cannot be handed
	// back to the dead.
	trackerTake = orca.DefWrite1x2(trackerB, "take", func(s *trackerState, w int) (Chunk, bool) {
		if s.dead[w] || len(s.jobs) == 0 {
			return Chunk{}, false
		}
		c := s.jobs[0]
		s.jobs = s.jobs[1:]
		s.claims[w] = c
		s.claimed[w] = true
		return c, true
	}).Guard(func(s *trackerState, w int) bool {
		return len(s.jobs) > 0 || s.dead[w] || (s.closed && s.done == s.total)
	})
	// complete reports the caller's claimed chunk finished.
	trackerComplete = orca.DefUpdate(trackerB, "complete", func(s *trackerState, w int) {
		s.claims[w] = Chunk{}
		s.claimed[w] = false
		s.done++
	})
	// requeue retires dead workers and returns their claimed chunks to
	// the queue for the survivors.
	trackerRequeue = orca.DefUpdate(trackerB, "requeue", func(s *trackerState, ws []int) {
		for _, w := range ws {
			s.dead[w] = true
			if s.claimed[w] {
				s.jobs = append(s.jobs, s.claims[w])
				s.claims[w] = Chunk{}
				s.claimed[w] = false
			}
		}
	})
	trackerFinished = orca.DefRead0(trackerB, "finished", func(s *trackerState) bool {
		return s.closed && s.done == s.total
	})
)

// tracker is the crash-aware job queue handle.
type tracker struct{ h orca.Handle[*trackerState] }

func newTracker(p *orca.Proc, workers int) tracker {
	return tracker{h: trackerB.New(p, workers)}
}

// Add appends a chunk of jobs.
func (t tracker) Add(p *orca.Proc, c Chunk) { trackerAdd.Call(p, t.h, c) }

// Close marks job generation finished.
func (t tracker) Close(p *orca.Proc) { trackerClose.Call(p, t.h) }

// Complete reports worker w's claimed chunk finished.
func (t tracker) Complete(p *orca.Proc, w int) { trackerComplete.Call(p, t.h, w) }

// Requeue retires dead workers, returning their claims to the queue.
func (t tracker) Requeue(p *orca.Proc, ws []int) { trackerRequeue.Call(p, t.h, ws) }

// Finished reports whether every generated chunk has completed.
func (t tracker) Finished(p *orca.Proc) bool { return trackerFinished.Call(p, t.h) }

// Take blocks for the next chunk; ok is false once the search is done
// (or the calling worker has been retired).
func (t tracker) Take(p *orca.Proc, w int) (Chunk, bool) {
	return trackerTake.Call(p, t.h, w)
}

// registerFT adds the tracker type on top of the std registrations.
func registerFT(reg *rts.Registry) {
	std.Register(reg)
	trackerB.Register(reg)
}

// supervisePollInterval is how often the crash-aware manager checks
// for worker deaths and completion. Liveness is not a shared object —
// it changes underneath the consistency protocols — so the manager
// polls the runtime's crash reports in virtual time.
const supervisePollInterval = 25 * sim.Millisecond

// runOrcaFT executes the crash-aware TSP program: same search, but
// jobs travel through the tracker and the manager supervises worker
// liveness, requeueing a dead worker's claimed chunks. With a fault
// plan that crashes worker machines (not processor 0, which hosts the
// manager), the run still reports the true optimum.
func runOrcaFT(cfg orca.Config, inst *Instance, params Params) Result {
	workers := params.Workers
	if workers == 0 {
		workers = cfg.Processors
	}
	rt := orca.New(cfg, registerFT)
	minOut := inst.MinOut()
	res := Result{}
	rep := rt.Run(func(p *orca.Proc) {
		nn := InitialBound(inst)
		p.Work(sim.Time(inst.N*inst.N) * 2 * sim.Microsecond)
		bound := std.NewCounter(p, nn+1)
		track := newTracker(p, workers)
		nodesAcc := std.NewAccum(p)
		exited := std.NewBoolArray(p, workers, false)

		for wdx := 0; wdx < workers; wdx++ {
			wdx := wdx
			cpu := wdx % cfg.Processors
			p.Fork(cpu, fmt.Sprintf("tsp-worker%d", wdx), func(wp *orca.Proc) {
				var total int64
				for {
					chunk, ok := track.Take(wp, wdx)
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
								if totalLen < bound.Value(wp) {
									bound.Min(wp, totalLen)
								}
							},
							func(n int64) {
								wp.Work(sim.Time(n) * NodeCost)
							})
						total += n
					}
					track.Complete(wp, wdx)
				}
				nodesAcc.Add(wp, int(total))
				exited.Set(wp, wdx, true)
			})
		}

		jobs := GenerateJobs(inst, params.JobDepth)
		p.Work(sim.Time(len(jobs)) * 50 * sim.Microsecond)
		singles := 4 * workers
		if singles > len(jobs) {
			singles = len(jobs)
		}
		for i := 0; i < singles; i++ {
			track.Add(p, Chunk{Jobs: jobs[i : i+1]})
		}
		for lo := singles; lo < len(jobs); lo += params.ChunkSize {
			hi := lo + params.ChunkSize
			if hi > len(jobs) {
				hi = len(jobs)
			}
			track.Add(p, Chunk{Jobs: jobs[lo:hi]})
		}
		track.Close(p)

		// Supervision loop: retire workers whose machines crashed
		// (requeueing their claimed chunks), and finish once every
		// chunk is completed and every worker has either exited or
		// died. Exit is tracked per worker — an aggregate count would
		// let a dead-but-exited worker stand in for a survivor still
		// draining its last chunk.
		retired := make(map[int]bool)
		for {
			for _, node := range p.DeadNodes() {
				if retired[node] {
					continue
				}
				retired[node] = true
				var ws []int
				for w := 0; w < workers; w++ {
					if w%cfg.Processors == node {
						ws = append(ws, w)
					}
				}
				if len(ws) > 0 {
					track.Requeue(p, ws)
				}
			}
			if track.Finished(p) {
				settled := true
				for w := 0; w < workers; w++ {
					if !exited.Get(p, w) && !p.NodeDown(w%cfg.Processors) {
						settled = false
						break
					}
				}
				if settled {
					break
				}
			}
			p.Sleep(supervisePollInterval)
		}
		res.Best = bound.Value(p)
		res.Nodes = int64(nodesAcc.Value(p))
	})
	res.Report = rep
	res.Runtime = rt
	return res
}
