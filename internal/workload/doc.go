// Package workload generates deterministic, seedable serving traffic
// for the shared-object runtime: skewed (Zipf) or uniform key
// distributions, a configurable get/put/update mix, open-loop arrival
// at a target virtual rate (Poisson interarrivals) or closed-loop
// issue with think time, and an optional phase shift that rotates the
// hot key set mid-run.
//
// Every run of the same Config produces the same trace, operation for
// operation: the generator draws from one seeded source in a fixed
// order (arrival, key, kind), so traces can be double-run for
// determinism goldens and replayed byte-identically by different
// placement policies. The Zipf table depends only on (Keys, Theta), so
// it is built once per process and shared by every generator. The repo's batch apps (tsp, acp, chess, atpg)
// run to completion; this package supplies the open-loop, read-heavy,
// hot-key traffic shape a session store serves — the proving ground
// for the adaptive-placement and sharding work the ROADMAP queues.
//
// Stack: internal/apps/kv drives a sharded store from these traces;
// internal/harness renders the sweeps (-exp kv).
package workload
