package chess

import (
	"fmt"
	"sort"

	"repro/internal/orca"
	"repro/internal/orca/std"
	"repro/internal/sim"
)

// Oracol's parallel search partitions the search tree dynamically
// among the processors (§4.3). The algorithm is principal-variation
// splitting (Marsland & Campbell, the paper's reference [13]): the
// manager walks the leftmost line of the tree; at each node on that
// spine, the first successor is searched recursively (establishing a
// sound bound) and the remaining successors fan out to the workers
// through a job queue, pruned against a shared per-level bound object.
// Only the leftmost walk is serial, which is what bounds alpha-beta's
// parallel speedup — the paper measures 4.5-5.5 on 10 CPUs.
//
// The killer and transposition tables can be process-local or shared
// objects: the experiment of §4.3 ("In Orca, it is particularly easy
// to implement both versions and see which one is best").

// Params configures an Oracol run.
type Params struct {
	// MaxDepth is the iterative-deepening limit in plies.
	MaxDepth int
	// SharedTT shares the transposition table across processes.
	SharedTT bool
	// SharedKiller shares the killer table across processes.
	SharedKiller bool
	// TTBuckets sizes the transposition table (default 8192).
	TTBuckets int
	// TTMinDepth throttles shared stores: only subtrees at least this
	// deep are broadcast (default 3). Local stores always happen.
	TTMinDepth int
	// KillerMaxPly shares killers only for plies below this (default
	// 4); deep-ply killers churn too fast to be worth broadcasting.
	KillerMaxPly int
	// SplitMinDepth stops splitting: subtrees at most this deep are
	// one job (default 2).
	SplitMinDepth int
	// Workers overrides the worker count (default: one per CPU).
	Workers int
}

func (p *Params) fill() {
	if p.MaxDepth == 0 {
		p.MaxDepth = 5
	}
	if p.TTBuckets == 0 {
		p.TTBuckets = 8192
	}
	if p.TTMinDepth == 0 {
		p.TTMinDepth = 3
	}
	if p.KillerMaxPly == 0 {
		p.KillerMaxPly = 4
	}
	if p.SplitMinDepth == 0 {
		p.SplitMinDepth = 2
	}
}

// Result of an Oracol run.
type Result struct {
	BestMove Move
	Score    int
	Nodes    int64
	Report   orca.Report
	Runtime  *orca.Runtime
}

// searchJob asks a worker to search the position reached by Path
// (encoded moves from the root) to Depth. Level is the spine level
// whose bound object prunes this subtree; RootIdx >= 0 tags level-0
// jobs with their root-move index so scores can be collected.
type searchJob struct {
	Path    []int
	Depth   int
	Level   int
	RootIdx int
}

// WireSize reports the job size on the wire.
func (j searchJob) WireSize() int { return 24 + 4*len(j.Path) }

// sharedTables implements Tables over shared objects with a local
// overlay: lookups hit the local map first, then the replicated shared
// object (still a local read — no communication); stores above the
// depth threshold are broadcast.
type sharedTables struct {
	wp           *orca.Proc
	local        *LocalTables
	tt           std.Table
	killer       std.Killer
	useTT        bool
	useKiller    bool
	ttMinDepth   int
	killerMaxPly int
}

// TTLookup implements Tables.
func (t *sharedTables) TTLookup(key uint64) (int64, bool) {
	if e, ok := t.local.TTLookup(key); ok {
		return e, ok
	}
	if !t.useTT {
		return 0, false
	}
	return t.tt.Lookup(t.wp, key)
}

// TTStore implements Tables.
func (t *sharedTables) TTStore(key uint64, entry int64, depth int) {
	t.local.TTStore(key, entry, depth)
	if t.useTT && depth >= t.ttMinDepth {
		t.tt.Store(t.wp, key, entry)
	}
}

// Killers implements Tables.
func (t *sharedTables) Killers(ply int) (int, int) {
	if t.useKiller && ply < t.killerMaxPly {
		return t.killer.Get(t.wp, ply)
	}
	return t.local.Killers(ply)
}

// AddKiller implements Tables.
func (t *sharedTables) AddKiller(ply int, move int) {
	if t.useKiller && ply < t.killerMaxPly {
		t.killer.Add(t.wp, ply, move)
		return
	}
	t.local.AddKiller(ply, move)
}

// applyPath replays encoded moves from the root.
func applyPath(b *Board, path []int) *Board {
	c := b.Clone()
	for _, em := range path {
		c.MakeMove(DecodeMove(em))
	}
	return c
}

// RunOrca executes the parallel Oracol search on the simulated
// machine and returns the chosen move. It searches a copy of b, so
// runs over one board may proceed at once.
func RunOrca(cfg orca.Config, b *Board, params Params) Result {
	b = b.Clone()
	params.fill()
	workers := params.Workers
	if workers == 0 {
		workers = cfg.Processors
	}
	rootMoves := b.LegalMoves()
	res := Result{}
	if len(rootMoves) == 0 {
		return res
	}
	rt := orca.New(cfg, std.Register)
	rep := rt.Run(func(p *orca.Proc) {
		queue := std.NewQueue[searchJob](p)
		scores := std.NewTable(p, 512)
		done := std.NewCounter(p, 0)
		nodesAcc := std.NewAccum(p)
		tt := std.NewTable(p, params.TTBuckets)
		killer := std.NewKiller(p, 64)
		fin := std.NewBarrier(p, workers)
		// One bound object per spine level; siblings at level L are
		// pruned against levelBest[L] (the paper's shared-object idiom
		// for dynamic tree partitioning).
		levelBest := make([]std.Counter, params.MaxDepth+1)
		for i := range levelBest {
			levelBest[i] = std.NewCounter(p, -Infinity)
		}

		for wdx := 0; wdx < workers; wdx++ {
			cpu := wdx % cfg.Processors
			p.Fork(cpu, fmt.Sprintf("oracol%d", wdx), func(wp *orca.Proc) {
				tabs := &sharedTables{
					wp: wp, local: NewLocalTables(),
					tt: tt, killer: killer,
					useTT: params.SharedTT, useKiller: params.SharedKiller,
					ttMinDepth: params.TTMinDepth, killerMaxPly: params.KillerMaxPly,
				}
				var total int64
				for {
					job, ok := queue.Get(wp)
					if !ok {
						break
					}
					s := NewSearcher(applyPath(b, job.Path), tabs)
					s.Charge = func(n int64) { wp.Work(sim.Time(n) * NodeCost) }
					// The parent's bound is a local read of the
					// replicated level object.
					parentBound := levelBest[job.Level].Value(wp)
					v := s.AlphaBeta(job.Depth, -Infinity, -parentBound, len(job.Path))
					cand := -v
					if cand > parentBound {
						levelBest[job.Level].Max(wp, cand)
					}
					if job.RootIdx >= 0 {
						scores.Store(wp, uint64(job.RootIdx), int64(cand))
					}
					s.flush()
					total += s.Nodes
					s.Nodes, s.lastChg = 0, 0
					done.Inc(wp)
				}
				nodesAcc.Add(wp, int(total))
				fin.Arrive(wp)
			})
		}

		// Manager: iterative deepening over PV-split rounds.
		finished := 0
		await := func(n int) {
			finished += n
			done.AwaitGE(p, finished)
		}
		// hashMoveFor consults the shared transposition table (a local
		// read) to order the spine like the previous iteration.
		hashMoveFor := func(pos *Board) Move {
			if !params.SharedTT {
				return Move{}
			}
			entry, ok := tt.Lookup(p, pos.Hash())
			if !ok {
				return Move{}
			}
			_, _, _, mv := UnpackTT(entry)
			return mv
		}

		order := make([]int, len(rootMoves))
		for i := range order {
			order[i] = i
		}
		lastScores := make([]int, len(rootMoves))

		// pvsplit returns the negamax value of pos (side to move's
		// view), searched to depth, splitting siblings at each spine
		// level. path is the move list from the root; level 0 tags
		// jobs with root indices. rootOrder supplies the move order
		// at the root (from the previous iteration's scores).
		var pvsplit func(pos *Board, path []int, depth, level int) int
		pvsplit = func(pos *Board, path []int, depth, level int) int {
			moves := pos.LegalMoves()
			p.Work(sim.Time(len(moves)+8) * 40 * sim.Microsecond) // spine movegen
			if len(moves) == 0 {
				if pos.InCheck() {
					return -MateScore + level
				}
				return 0
			}
			if level == 0 {
				reordered := make([]Move, len(moves))
				for i, idx := range order {
					reordered[i] = rootMoves[idx]
				}
				moves = reordered
			} else {
				OrderMoves(pos, moves, hashMoveFor(pos), 0, 0)
			}
			// Leftmost successor: recurse (or a single job when the
			// subtree is too small to split further).
			first := moves[0]
			child := pos.Clone()
			child.MakeMove(first)
			var v0 int
			if depth-1 <= params.SplitMinDepth {
				ri := -1
				if level == 0 {
					ri = order[0]
				}
				levelBest[level].Assign(p, -Infinity)
				queue.Add(p, searchJob{
					Path:  append(append([]int(nil), path...), first.Encode()),
					Depth: depth - 1, Level: level, RootIdx: ri,
				})
				await(1)
				v0 = levelBest[level].Value(p)
			} else {
				v0 = -pvsplit(child, append(append([]int(nil), path...), first.Encode()), depth-1, level+1)
				levelBest[level].Assign(p, v0)
				if level == 0 {
					scores.Store(p, uint64(order[0]), int64(v0))
				}
			}
			// Remaining successors fan out to the workers, pruned
			// against this level's bound.
			if len(moves) > 1 {
				for i := 1; i < len(moves); i++ {
					ri := -1
					if level == 0 {
						ri = order[i]
					}
					queue.Add(p, searchJob{
						Path:  append(append([]int(nil), path...), moves[i].Encode()),
						Depth: depth - 1, Level: level, RootIdx: ri,
					})
				}
				await(len(moves) - 1)
			}
			return levelBest[level].Value(p)
		}

		for d := 1; d <= params.MaxDepth; d++ {
			score := pvsplit(b, nil, d, 0)
			for i := range rootMoves {
				sc, _ := scores.Lookup(p, uint64(i))
				lastScores[i] = int(sc)
			}
			sort.SliceStable(order, func(a, c int) bool {
				return lastScores[order[a]] > lastScores[order[c]]
			})
			res.Score = score
			res.BestMove = rootMoves[order[0]]
			if IsMateScore(score) {
				break
			}
		}
		queue.Close(p)
		fin.Wait(p)
		res.Nodes = int64(nodesAcc.Value(p))
	})
	res.Report = rep
	res.Runtime = rt
	return res
}
