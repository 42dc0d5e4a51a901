package tsp

import (
	"math"
	"testing"

	"repro/internal/orca"
)

// bruteForce computes the exact optimum by enumerating permutations.
func bruteForce(inst *Instance) int {
	n := inst.N
	perm := make([]int, 0, n)
	used := make([]bool, n)
	best := math.MaxInt
	var rec func(last, length int)
	rec = func(last, length int) {
		if length >= best {
			return
		}
		if len(perm) == n-1 {
			if t := length + inst.Dist[last][0]; t < best {
				best = t
			}
			return
		}
		for c := 1; c < n; c++ {
			if used[c] {
				continue
			}
			used[c] = true
			perm = append(perm, c)
			rec(c, length+inst.Dist[last][c])
			perm = perm[:len(perm)-1]
			used[c] = false
		}
	}
	rec(0, 0)
	return best
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(10, 42)
	b := Generate(10, 42)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if a.Dist[i][j] != b.Dist[i][j] {
				t.Fatal("instance generation not deterministic")
			}
		}
	}
	c := Generate(10, 43)
	same := true
	for i := 0; i < 10 && same; i++ {
		for j := 0; j < 10; j++ {
			if a.Dist[i][j] != c.Dist[i][j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical instances")
	}
}

func TestInstanceSymmetric(t *testing.T) {
	inst := Generate(12, 7)
	for i := 0; i < 12; i++ {
		if inst.Dist[i][i] != 0 {
			t.Fatalf("Dist[%d][%d] = %d", i, i, inst.Dist[i][i])
		}
		for j := 0; j < 12; j++ {
			if inst.Dist[i][j] != inst.Dist[j][i] {
				t.Fatal("distance matrix not symmetric")
			}
		}
	}
}

func TestSolveSeqMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		inst := Generate(9, seed)
		want := bruteForce(inst)
		got, nodes := SolveSeq(inst)
		if got != want {
			t.Fatalf("seed %d: SolveSeq = %d, brute force = %d", seed, got, want)
		}
		if nodes == 0 {
			t.Fatal("no nodes expanded")
		}
	}
}

func TestGenerateJobsCoverSearchSpace(t *testing.T) {
	inst := Generate(8, 3)
	jobs := GenerateJobs(inst, 3)
	// 7 choices for position 2, 6 for position 3.
	if len(jobs) != 42 {
		t.Fatalf("jobs = %d, want 42", len(jobs))
	}
	seen := map[[2]int]bool{}
	for _, j := range jobs {
		if len(j.Route) != 3 || j.Route[0] != 0 {
			t.Fatalf("bad job route %v", j.Route)
		}
		key := [2]int{j.Route[1], j.Route[2]}
		if seen[key] {
			t.Fatalf("duplicate job %v", j.Route)
		}
		seen[key] = true
		if want := inst.Dist[0][j.Route[1]] + inst.Dist[j.Route[1]][j.Route[2]]; j.Len != want {
			t.Fatalf("job length %d, want %d", j.Len, want)
		}
	}
}

func TestSearchJobEquivalentToSeq(t *testing.T) {
	inst := Generate(9, 5)
	want, _ := SolveSeq(inst)
	best := math.MaxInt
	minOut := inst.MinOut()
	for _, job := range GenerateJobs(inst, 3) {
		SearchJob(inst, minOut, job,
			func() int { return best },
			func(total int) {
				if total < best {
					best = total
				}
			},
			func(int64) {})
	}
	if best != want {
		t.Fatalf("job-split search = %d, want %d", best, want)
	}
}

func TestRunOrcaFindsOptimum(t *testing.T) {
	inst := Generate(10, 11)
	want, _ := SolveSeq(inst)
	res := RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}, inst, Params{})
	if res.Report.TimedOut {
		t.Fatal("run timed out")
	}
	if res.Best != want {
		t.Fatalf("parallel best = %d, want %d", res.Best, want)
	}
	if res.Nodes == 0 {
		t.Fatal("no nodes accounted")
	}
}

func TestRunOrcaSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup run in -short mode")
	}
	inst := Generate(12, 11)
	t1 := RunOrca(orca.Config{Processors: 1, RTS: orca.Broadcast, Seed: 1}, inst, Params{})
	t4 := RunOrca(orca.Config{Processors: 4, RTS: orca.Broadcast, Seed: 1}, inst, Params{})
	if t1.Best != t4.Best {
		t.Fatalf("different optima: %d vs %d", t1.Best, t4.Best)
	}
	speedup := float64(t1.Report.Elapsed) / float64(t4.Report.Elapsed)
	if speedup < 2.5 {
		t.Fatalf("speedup on 4 CPUs = %.2f, want > 2.5", speedup)
	}
}

func TestRunOrcaDeterministic(t *testing.T) {
	inst := Generate(9, 13)
	a := RunOrca(orca.Config{Processors: 3, RTS: orca.Broadcast, Seed: 9}, inst, Params{})
	b := RunOrca(orca.Config{Processors: 3, RTS: orca.Broadcast, Seed: 9}, inst, Params{})
	if a.Report.Elapsed != b.Report.Elapsed || a.Nodes != b.Nodes || a.Best != b.Best {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}
