package tsp

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/orca"
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

// TestTSPRepetitionAllocations counts the allocations of one run of the
// benchmark's TSP configuration — P = 64, eight shards, batched — on a
// 12-city instance: building the runtime, the forks and their fences,
// the job queue and every operation, to the last worker's exit. The
// budget is the count measured when jobs, forks and fences stopped
// being boxed and the job queue stopped regrowing by copying (10 300;
// 11 620 before), with 3 % slack for what the collector's timing moves
// (sync.Pool's caches empty at each collection).
func TestTSPRepetitionAllocations(t *testing.T) {
	skipUnderRace(t)
	inst := Generate(12, 5)
	best, _ := SolveSeq(inst)
	run := func() Result {
		return RunOrca(orca.Config{Processors: 64, RTS: orca.Broadcast, Seed: 1, Shards: 8,
			Batching: orca.DefaultBatching()}, inst, Params{})
	}
	run() // the process-wide pools warm up
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := run()
	runtime.ReadMemStats(&m1)
	if r.Best != best || r.Report.TimedOut {
		t.Fatalf("best %d (timed out %v), want %d", r.Best, r.Report.TimedOut, best)
	}
	if n, budget := m1.Mallocs-m0.Mallocs, uint64(10300*103/100); n > budget {
		t.Errorf("a run allocates %d times, want at most %d", n, budget)
	}
}
