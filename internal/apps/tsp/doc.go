// Package tsp implements the paper's first application (§4.1): the
// Traveling Salesman Problem solved by parallel branch-and-bound in
// the replicated worker style.
//
// "The parallel program keeps track of the best solution found so far
// by any worker process. This value is used as a bound. [...] The
// bound must be accessible to all workers, so it is stored in a shared
// object. This object is read very frequently and is written only when
// a new better route has been found. In practice, the object may be
// read millions of times and written only a few times."
//
// The program uses two shared objects: the global bound (a
// std.Counter, whose indivisible min operation checks the new value
// is actually smaller, preventing races) and a job queue filled by a
// manager with partial initial routes. Params selects queue placement
// variants (replicated, single-copy, primary-copy) and the
// fault-tolerant variant (faults.go), whose claim-tracking queue lets
// the manager requeue a crashed worker's jobs so the search still
// finds the optimum.
//
// The search kernel, SearchJob, costs the host what a node costs the
// simulated machine: a compare against the bound, read afresh at every
// node, and a walk of the cities not yet on the route. Those are one
// uint64, walked in ascending order with bits.TrailingZeros64, and the
// recursion is a method over the job's state with the current row of
// the distance matrix hoisted, so an instance has at most 64 cities.
// Its visit order, its CPU charges (64 nodes at a time, then the
// remainder) and its found routes are those of the closure over a
// visited []bool it replaced, which search_test.go keeps as the
// reference it checks the kernel against. A run computes the
// instance's cheapest-edge table once and hands it to every search, and
// GenerateJobs carves every job's route from one array, so a search
// allocates nothing and a job nothing of its own.
//
// SolveSeq walks the tree the same way, its free cities one uint64 and
// its bound a field of a small solver record, but it tests a child
// against the bound before recursing into it, counting it as a node
// either way; its optimum and node count are those of the closure over
// a visited []bool it replaced, which solve_test.go keeps as its
// reference. It is a separate solver on purpose, not a SearchJob with
// a local bound: the benchmark and the examples check every parallel
// optimum against it, so it must not share the code it checks.
//
// Downward: built on package orca and the std object types. Upward:
// internal/harness reproduces Figure 2 and the fault scenarios from
// this package.
package tsp
