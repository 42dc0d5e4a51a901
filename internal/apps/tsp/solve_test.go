package tsp

import (
	"math"
	"testing"
)

// solveSeqRef is the solver SolveSeq replaced, kept as its reference: a
// closure recursing over a visited []bool, scanning every city at every
// node and testing a node against the bound when it enters it.
func solveSeqRef(inst *Instance) (best int, nodes int64) {
	n := inst.N
	minOut := inst.MinOut()
	visited := make([]bool, n)
	visited[0] = true
	best = InitialBound(inst) + 1
	var rest int
	for i := 1; i < n; i++ {
		rest += minOut[i]
	}
	var dfs func(last, length, depth int)
	dfs = func(last, length, depth int) {
		nodes++
		if best < math.MaxInt && length+rest+minOut[last] >= best {
			return
		}
		if depth == n {
			total := length + inst.Dist[last][0]
			if total < best {
				best = total
			}
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
	dfs(0, 0, 1)
	return best, nodes
}

// checkSolveSeq fails t when SolveSeq and the reference disagree on the
// optimum or the node count of one instance.
func checkSolveSeq(t *testing.T, inst *Instance, seed int64) {
	t.Helper()
	best, nodes := SolveSeq(inst)
	wantBest, wantNodes := solveSeqRef(inst)
	if best != wantBest || nodes != wantNodes {
		t.Fatalf("n=%d seed %d: SolveSeq = (%d, %d nodes), reference (%d, %d nodes)",
			inst.N, seed, best, nodes, wantBest, wantNodes)
	}
}

// TestSolveSeqMatchesReference: the bitset solver finds the reference's
// optimum after expanding the same number of nodes, on every city count
// from 4 to 16.
func TestSolveSeqMatchesReference(t *testing.T) {
	for n := 4; n <= 16; n++ {
		seeds := []int64{1, 2, 3, 4, 5, 6}
		if n >= 14 {
			seeds = seeds[:2] // the reference takes up to a second on 16 cities under -race
		}
		for _, seed := range seeds {
			checkSolveSeq(t, Generate(n, seed+int64(100*n)), seed)
		}
	}
}

// TestSolveSeqRejectsBigInstances: the free cities are one uint64.
func TestSolveSeqRejectsBigInstances(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SolveSeq on 65 cities did not panic")
		}
	}()
	SolveSeq(&Instance{N: 65})
}

// FuzzSolveSeqMatchesReference checks the two solvers on random
// instances of 4 to 14 cities. The seed corpus is in
// testdata/fuzz/FuzzSolveSeqMatchesReference; CI runs it.
//
//	go test -run '^$' -fuzz FuzzSolveSeqMatchesReference -fuzztime 20s ./internal/apps/tsp
func FuzzSolveSeqMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, seed int64) {
		checkSolveSeq(t, Generate(4+int(n)%11, seed), seed)
	})
}
