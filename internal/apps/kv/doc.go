// Package kv is the serving-shaped application: a sharded KV/session
// store built on the typed shared-object API, driven by open-loop or
// closed-loop traffic from internal/workload.
//
// Unlike the paper's batch-parallel solvers (tsp, acp, chess, atpg),
// nothing here "runs to completion" by solving a problem: clients
// serve a trace of get/put/update requests against many small shard
// objects and the interesting outputs are throughput and the
// p50/p95/p99 virtual-latency percentiles (Report.Latency). Each
// shard is one shared object whose placement policy is chosen per
// shard — fully Replicated (local reads everywhere, writes through
// the total order), PrimaryCopy (single copy on its home machine,
// reads RPC to the primary), or Mixed (alternating) — so the same
// trace compares the paper's §3.2.1 and §3.2.2 strategies under
// skewed, read-heavy load. The paper's object-distribution argument
// (replicate what you read, keep a single copy of what you write) is
// exactly the knob the Policy field turns.
//
// A shard's state is a record array, not a map. Run resolves every key
// once, before the clients start, to its shard and its slot (its rank
// among the shard's keys), and an operation ships the reference
// slot | slots<<32 in the one int64 the key took: a replica allocates
// its array at its first write, sized by the slot count the reference
// carries, and applies every write with one index. Keys must be below
// 1<<31.
//
// The store runs under Config.Faults crash schedules: clients on a
// crashed machine die mid-request, the survivors keep serving, and
// the post-run audit proves no acknowledged write was lost (every put
// a client saw complete is still visible at its recorded version).
//
// Stack: internal/workload generates the traces; internal/harness
// renders the sweeps (-exp kv); internal/orca/std supplies the
// barrier and liveness objects.
package kv
