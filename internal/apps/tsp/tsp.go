package tsp

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/sim"
)

// Instance is a symmetric TSP instance.
type Instance struct {
	N    int
	Dist [][]int
	// Xs, Ys are the generating coordinates (for display).
	Xs, Ys []int
}

// Generate creates a random Euclidean instance of n cities on a
// 1000x1000 grid, deterministically from seed. The paper's Fig. 2 uses
// a 14-city problem.
func Generate(n int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := &Instance{
		N:    n,
		Dist: make([][]int, n),
		Xs:   make([]int, n),
		Ys:   make([]int, n),
	}
	for i := 0; i < n; i++ {
		inst.Xs[i] = rng.Intn(1000)
		inst.Ys[i] = rng.Intn(1000)
	}
	for i := 0; i < n; i++ {
		inst.Dist[i] = make([]int, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx := float64(inst.Xs[i] - inst.Xs[j])
			dy := float64(inst.Ys[i] - inst.Ys[j])
			inst.Dist[i][j] = int(math.Round(math.Sqrt(dx*dx + dy*dy)))
		}
	}
	return inst
}

// Job is a partial initial route handed to workers. It satisfies
// rts.Sized so the runtime can model its wire size.
type Job struct {
	Route []int // visited cities, starting at 0
	Len   int   // length of the partial route
}

// WireSize reports the job's size on the wire.
func (j Job) WireSize() int { return 8 + 8*len(j.Route) }

// NodeCost is the virtual CPU time to expand one search-tree node on
// the simulated 68030 (distance add, bound compare, loop bookkeeping).
const NodeCost = 12 * sim.Microsecond

// BoundReadCost is the extra virtual CPU for consulting the shared
// bound at a node, beyond the runtime's read overhead.
const BoundReadCost = 2 * sim.Microsecond

// MinOut returns a new table of each city's cheapest outgoing edge,
// used in the branch-and-bound lower bound: a partial route can be
// pruned when its length plus the cheapest possible departure from
// every remaining city already reaches the global bound. (The paper's
// program prunes on route length alone; the added admissible bound
// keeps the search tractable at simulation speed while preserving the
// object access pattern — the bound object is still read at every node
// and written only when a better route is found.) A run computes the
// table once and hands it to every SearchJob; it is not kept on the
// instance, which concurrent runs may share.
func (inst *Instance) MinOut() []int {
	mo := make([]int, inst.N)
	for i := 0; i < inst.N; i++ {
		mo[i] = math.MaxInt
		for j := 0; j < inst.N; j++ {
			if i != j && inst.Dist[i][j] < mo[i] {
				mo[i] = inst.Dist[i][j]
			}
		}
	}
	return mo
}

// NearestNeighbor computes a greedy tour, returned as a city order
// starting at city 0.
func NearestNeighbor(inst *Instance) []int {
	n := inst.N
	visited := make([]bool, n)
	visited[0] = true
	tour := make([]int, 1, n)
	cur := 0
	for step := 1; step < n; step++ {
		best, bestD := -1, math.MaxInt
		for j := 0; j < n; j++ {
			if !visited[j] && inst.Dist[cur][j] < bestD {
				best, bestD = j, inst.Dist[cur][j]
			}
		}
		visited[best] = true
		tour = append(tour, best)
		cur = best
	}
	return tour
}

// TourLength sums a tour's edges, closing the cycle.
func TourLength(inst *Instance, tour []int) int {
	total := 0
	for i := range tour {
		total += inst.Dist[tour[i]][tour[(i+1)%len(tour)]]
	}
	return total
}

// TwoOpt improves a tour with 2-opt moves until no improvement
// remains. Nearest-neighbor plus 2-opt gives an initial bound within a
// few percent of the optimum, so branch-and-bound mostly proves
// optimality and its node count barely depends on execution order —
// the precondition for the near-perfect parallel speedup of Fig. 2.
func TwoOpt(inst *Instance, tour []int) []int {
	t := append([]int(nil), tour...)
	n := len(t)
	for improved := true; improved; {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 2; j < n; j++ {
				if i == 0 && j == n-1 {
					continue
				}
				a, b := t[i], t[i+1]
				c, d := t[j], t[(j+1)%n]
				delta := inst.Dist[a][c] + inst.Dist[b][d] - inst.Dist[a][b] - inst.Dist[c][d]
				if delta < 0 {
					for lo, hi := i+1, j; lo < hi; lo, hi = lo+1, hi-1 {
						t[lo], t[hi] = t[hi], t[lo]
					}
					improved = true
				}
			}
		}
	}
	return t
}

// InitialBound computes the heuristic upper bound that seeds the
// shared bound object: a 2-opt-improved nearest-neighbor tour.
func InitialBound(inst *Instance) int {
	return TourLength(inst, TwoOpt(inst, NearestNeighbor(inst)))
}

// SolveSeq is the sequential branch-and-bound baseline: same pruning
// rule as the parallel program, single local bound seeded with the
// nearest-neighbor tour. It returns the optimum length and the number
// of search nodes expanded. Instances have at most 64 cities.
func SolveSeq(inst *Instance) (best int, nodes int64) {
	n := inst.N
	if n > 64 {
		panic(fmt.Sprintf("tsp: %d cities, the solver handles at most 64", n))
	}
	s := seqSolver{dist: inst.Dist, minOut: inst.MinOut(), best: InitialBound(inst) + 1}
	rest := 0
	for i := 1; i < n; i++ {
		rest += s.minOut[i]
	}
	s.nodes = 1
	if rest+s.minOut[0] < s.best {
		s.dfs(0, 0, rest, uint64(1)<<n-2)
	}
	return s.best, s.nodes
}

// seqSolver is SolveSeq's search: the bound is a field, the free cities
// one uint64 walked in ascending order, and a child is counted and
// tested against the bound before the recursion, which it enters only
// if it survives. rest sums the cheapest departures of the free cities,
// so a child's test, length+row[next] + (rest-minOut[next]) +
// minOut[next], is length+row[next]+rest.
type seqSolver struct {
	dist   [][]int
	minOut []int
	best   int
	nodes  int64
}

// dfs expands a node that passed the bound test.
func (s *seqSolver) dfs(last, length, rest int, free uint64) {
	row := s.dist[last]
	if free == 0 {
		s.best = min(s.best, length+row[0])
		return
	}
	for m := free; m != 0; m &= m - 1 {
		next := bits.TrailingZeros64(m)
		s.nodes++
		if l := length + row[next]; l+rest < s.best {
			s.dfs(next, l, rest-s.minOut[next], free&^(1<<next))
		}
	}
}

// GenerateJobs expands the first jobDepth levels of the search tree
// into jobs, each a partial route starting at city 0. The paper: "The
// problem is split up into a large number of small jobs, each
// containing a partial (initial) route for the salesman."
//
// Jobs are sorted by ascending lower bound (best-first): promising
// prefixes are searched first, which both tightens the global bound
// early and schedules the largest subtrees before the tail of the run,
// avoiding stragglers.
func GenerateJobs(inst *Instance, jobDepth int) []Job {
	minOut := inst.MinOut()
	restAll := 0
	for i := 1; i < inst.N; i++ {
		restAll += minOut[i]
	}
	// Every job's route has depth cities, and there are count of them:
	// the routes are carved, as full slices, from one array.
	depth, count := max(jobDepth, 1), 1
	for i := 1; i < depth; i++ {
		count *= max(inst.N-i, 0)
	}
	jobs := make([]Job, 0, count)
	routes := make([]int, count*depth)
	var expand func(route []int, length, rest int)
	expand = func(route []int, length, rest int) {
		if len(route) >= jobDepth {
			r := routes[:depth:depth]
			routes = routes[depth:]
			copy(r, route)
			jobs = append(jobs, Job{Route: r, Len: length})
			return
		}
		last := route[len(route)-1]
		for next := 1; next < inst.N; next++ {
			seen := false
			for _, c := range route {
				if c == next {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
			expand(append(route, next), length+inst.Dist[last][next], rest-minOut[next])
		}
	}
	route := make([]int, 1, depth)
	expand(route, 0, restAll)
	lb := func(j Job) int {
		r := restAll
		for _, c := range j.Route {
			if c != 0 {
				r -= minOut[c]
			}
		}
		return j.Len + r + minOut[j.Route[len(j.Route)-1]]
	}
	slices.SortStableFunc(jobs, func(a, b Job) int { return cmp.Compare(lb(a), lb(b)) })
	return jobs
}

// SearchJob runs the branch-and-bound search under one job, with
// minOut the instance's cheapest-edge table (MinOut), which the caller
// computes once for every job of a run; the search allocates nothing.
// The caller supplies the bound interactions, so the same search core
// serves the sequential tests and the Orca workers:
//
//   - readBound returns the current global bound (read very often),
//   - foundRoute reports a complete route (rare write), returning the
//     updated bound to continue with,
//   - charge accounts virtual CPU per expanded node.
//
// It returns the number of nodes expanded. Instances have at most 64
// cities: the cities still to visit are one uint64.
func SearchJob(inst *Instance, minOut []int, job Job, readBound func() int, foundRoute func(total int), charge func(n int64)) int64 {
	n := inst.N
	if n > 64 {
		panic(fmt.Sprintf("tsp: %d cities, the search handles at most 64", n))
	}
	s := searcher{dist: inst.Dist, minOut: minOut, readBound: readBound, foundRoute: foundRoute, charge: charge}
	free := uint64(1)<<n - 2 // every city but the start
	rest := 0
	for i := 1; i < n; i++ {
		rest += s.minOut[i]
	}
	for _, c := range job.Route {
		free &^= 1 << c
		if c != 0 {
			rest -= s.minOut[c]
		}
	}
	s.dfs(job.Route[len(job.Route)-1], job.Len, rest, free)
	s.charge(s.nodes % 64)
	return s.nodes
}

// searcher is one job's search: the instance, the caller's bound
// interactions and the node count. A node is a compare against the
// bound, read afresh at every node, and a walk of the cities not yet
// on the route in ascending order, one bit each.
type searcher struct {
	dist       [][]int
	minOut     []int
	readBound  func() int
	foundRoute func(total int)
	charge     func(n int64)
	nodes      int64
}

// dfs expands the node that reached last with a route of the given
// length; rest sums the cheapest departures of the free cities.
func (s *searcher) dfs(last, length, rest int, free uint64) {
	s.nodes++
	if s.nodes%64 == 0 {
		s.charge(64)
	}
	// The bound object is read at every node; reads are local on a
	// replicated object, so this is cheap — the heart of the paper's
	// argument for replication.
	if length+rest+s.minOut[last] >= s.readBound() {
		return
	}
	row := s.dist[last]
	if free == 0 {
		s.foundRoute(length + row[0])
		return
	}
	for m := free; m != 0; m &= m - 1 {
		next := bits.TrailingZeros64(m)
		s.dfs(next, length+row[next], rest-s.minOut[next], free&^(1<<next))
	}
}
