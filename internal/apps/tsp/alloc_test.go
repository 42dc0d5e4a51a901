package tsp

import (
	"runtime/debug"
	"testing"
)

// skipUnderRace skips an allocation budget: the race detector allocates
// on its own account.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts mean nothing under the race detector")
			}
		}
	}
}

// TestSearchJobAllocations: a search given the run's cheapest-edge table
// allocates nothing, whatever it finds.
func TestSearchJobAllocations(t *testing.T) {
	skipUnderRace(t)
	inst := Generate(11, 7)
	minOut := inst.MinOut()
	jobs := GenerateJobs(inst, 3)
	start := InitialBound(inst) + 1
	bound, found := start, 0
	readBound := func() int { return bound }
	foundRoute := func(total int) { found++; bound = min(bound, total) }
	charge := func(int64) {}
	i := 0
	a := testing.AllocsPerRun(20, func() {
		bound = start
		SearchJob(inst, minOut, jobs[i%len(jobs)], readBound, foundRoute, charge)
		i++
	})
	if a != 0 {
		t.Errorf("SearchJob allocates %v times a job, want 0", a)
	}
	if found == 0 {
		t.Fatal("no search found a route: the budget covered only pruned jobs")
	}
}

// TestGenerateJobsAllocations: generating jobs allocates a fixed number
// of times, whatever the job count — the routes are carved from one
// array, not made one per job. (The collector is off: a collection may
// allocate for the runtime.)
func TestGenerateJobsAllocations(t *testing.T) {
	skipUnderRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget = 4 // the table, the jobs, their routes, the route expanded
	inst := Generate(14, 3)
	for depth := 1; depth <= 5; depth++ {
		var jobs []Job
		a := testing.AllocsPerRun(3, func() { jobs = GenerateJobs(inst, depth) })
		t.Logf("depth %d: %d jobs, %v allocations", depth, len(jobs), a)
		if a > budget {
			t.Errorf("depth %d: %d jobs take %v allocations, want at most %d", depth, len(jobs), a, budget)
		}
	}
}
