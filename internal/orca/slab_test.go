package orca_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps/tsp"
	"repro/internal/orca"
)

// What a run is built from — its group members and their delivery
// queues, object managers, replicas, primary copies' queues and the
// claimants they serve as — is carved from slabs of that run's own,
// never from a pool runs share. Two TSP runtimes, one of sharded batched
// groups and one Mixed with its job queue a primary copy, are built and
// run on goroutines at once, four of each, and each must come out with
// the fingerprint a serial run of it has: a slab shared between runs
// fails it, under the race detector (CI runs go test -race ./...) and
// without it.
func TestConcurrentRunsShareNoSlab(t *testing.T) {
	inst := tsp.Generate(11, 18)
	runs := []func() string{
		func() string {
			cfg := orca.Config{Processors: 16, RTS: orca.Broadcast, Seed: 1, Shards: 4, Batching: orca.DefaultBatching()}
			r := tsp.RunOrca(cfg, inst, tsp.Params{})
			return fmt.Sprintf("best=%d nodes=%d %s", r.Best, r.Nodes, observed(r.Runtime, r.Report))
		},
		func() string {
			cfg := orca.Config{Processors: 8, RTS: orca.Broadcast, Mixed: true, Seed: 2}
			r := tsp.RunOrca(cfg, inst, tsp.Params{PrimaryCopyQueue: true})
			return fmt.Sprintf("best=%d nodes=%d %s", r.Best, r.Nodes, observed(r.Runtime, r.Report))
		},
	}
	serial := make([]string, len(runs))
	for i, run := range runs {
		serial[i] = run()
	}
	got := make([]string, 4*len(runs))
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = runs[k%len(runs)]()
		}()
	}
	wg.Wait()
	for k, fp := range got {
		if want := serial[k%len(runs)]; fp != want {
			t.Errorf("goroutine %d:%s", k, diffAt(fp, want))
		}
	}
}
