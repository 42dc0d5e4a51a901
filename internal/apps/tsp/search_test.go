package tsp

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// searchJobRef is the search SearchJob replaced, kept as its reference:
// a closure recursing over a visited []bool, scanning every city at
// every node. It computes its own cheapest-edge table, as it always
// did, and ignores the one it is given.
func searchJobRef(inst *Instance, _ []int, job Job, readBound func() int, foundRoute func(total int), charge func(n int64)) int64 {
	n := inst.N
	minOut := inst.MinOut()
	visited := make([]bool, n)
	rest := 0
	for i := 1; i < n; i++ {
		rest += minOut[i]
	}
	for _, c := range job.Route {
		visited[c] = true
		if c != 0 {
			rest -= minOut[c]
		}
	}
	var nodes int64
	var dfs func(last, length, depth int)
	dfs = func(last, length, depth int) {
		nodes++
		if nodes%64 == 0 {
			charge(64)
		}
		if length+rest+minOut[last] >= readBound() {
			return
		}
		if depth == n {
			foundRoute(length + inst.Dist[last][0])
			return
		}
		for next := 1; next < n; next++ {
			if visited[next] {
				continue
			}
			visited[next] = true
			rest -= minOut[next]
			dfs(next, length+inst.Dist[last][next], depth+1)
			rest += minOut[next]
			visited[next] = false
		}
	}
	last := job.Route[len(job.Route)-1]
	dfs(last, job.Len, len(job.Route))
	charge(nodes % 64)
	return nodes
}

// boundScript is a bound as a worker sees it: it starts at start, a
// found route lowers it as Counter.Min would, and from the drop-th read
// on every every-th read lowers it by step more, as other workers'
// finds arriving mid-search would. every == 0 scripts no drops.
type boundScript struct {
	start, drop, every, step int
}

// searchTrace runs one kernel under a script and records what the
// worker observes, in order: "c<n>@<reads>" for a charge,
// "f<total>@<reads>" for a found route, and the node count last.
func searchTrace(kernel func(*Instance, []int, Job, func() int, func(int), func(int64)) int64, inst *Instance, job Job, sc boundScript) []string {
	var tr []string
	bound, reads := sc.start, 0
	nodes := kernel(inst, inst.MinOut(), job,
		func() int {
			reads++
			if sc.every > 0 && reads >= sc.drop && (reads-sc.drop)%sc.every == 0 {
				bound -= sc.step
			}
			return bound
		},
		func(total int) {
			tr = append(tr, fmt.Sprintf("f%d@%d", total, reads))
			bound = min(bound, total)
		},
		func(n int64) { tr = append(tr, fmt.Sprintf("c%d@%d", n, reads)) })
	return append(tr, fmt.Sprintf("nodes=%d reads=%d", nodes, reads))
}

// checkTrace fails t when the two kernels' traces of one job differ.
func checkTrace(t *testing.T, inst *Instance, job Job, sc boundScript) {
	t.Helper()
	got := searchTrace(SearchJob, inst, job, sc)
	want := searchTrace(searchJobRef, inst, job, sc)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d job %v script %+v:\n got  %v\n want %v", inst.N, job.Route, sc, got, want)
	}
}

// TestSearchJobMatchesReference: the bitmask kernel visits the nodes the
// closure kernel visits, in its order — every charge, every found route
// and the node count agree, under a bound that only the search lowers, a
// loose one, and bounds that fall mid-search.
func TestSearchJobMatchesReference(t *testing.T) {
	for n := 4; n <= 16; n++ {
		inst := Generate(n, int64(100+n))
		opt, _ := SolveSeq(inst)
		scripts := []boundScript{
			{start: InitialBound(inst) + 1},
			{start: opt + opt/4, drop: 50, every: 200, step: 3},
			{start: InitialBound(inst) + 1, drop: 1, every: 7, step: 1},
		}
		depths := []int{1, 2, 3, 4}
		if n <= 11 {
			scripts = append(scripts, boundScript{start: math.MaxInt})
		} else {
			depths = []int{2, 3} // a whole tree of 12 cities and more is slow under -race
		}
		for _, d := range depths {
			jobs := GenerateJobs(inst, d)
			// Big instances take three jobs each: the first (the
			// largest subtree), one in the middle and the last.
			if n >= 12 {
				jobs = []Job{jobs[0], jobs[len(jobs)/2], jobs[len(jobs)-1]}
			}
			for _, job := range jobs {
				for _, sc := range scripts {
					checkTrace(t, inst, job, sc)
				}
			}
		}
	}
}

// FuzzSearchJobTrace checks the two kernels on random instances, job
// depths, jobs and bound scripts. The seed corpus is in
// testdata/fuzz/FuzzSearchJobTrace; CI runs it.
//
//	go test -run '^$' -fuzz FuzzSearchJobTrace -fuzztime 20s ./internal/apps/tsp
func FuzzSearchJobTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, depth uint8, seed int64, job uint16, slack int16, drop, every uint16, step uint8) {
		cities := 4 + int(n)%13 // 4..16
		inst := Generate(cities, seed)
		jobs := GenerateJobs(inst, 1+int(depth)%min(4, cities-1))
		sc := boundScript{start: InitialBound(inst) + int(slack), drop: int(drop), every: int(every) % 512, step: int(step)}
		if cities > 12 && sc.start > InitialBound(inst)+50 {
			sc.start = InitialBound(inst) + 50 // keep the loose bounds of big instances tractable
		}
		checkTrace(t, inst, jobs[int(job)%len(jobs)], sc)
	})
}

// TestSearchJobRejectsBigInstances: a route's free cities are one uint64.
func TestSearchJobRejectsBigInstances(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SearchJob on 65 cities did not panic")
		}
	}()
	inst := &Instance{N: 65}
	SearchJob(inst, nil, Job{Route: []int{0}}, nil, nil, nil)
}
