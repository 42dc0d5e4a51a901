// Package rts implements the paper's shared data-object runtime
// systems: the broadcast RTS (§3.2.1: full replication, local reads,
// writes propagated by totally-ordered broadcast), the point-to-point
// RTS (§3.2.2: primary copy plus secondaries kept consistent by an
// invalidation or two-phase update protocol, with dynamic replication
// decided from read/write statistics), and the Router that hosts any
// number of broadcast sequencer groups plus the point-to-point runtime
// as domains, so placement is a per-object — and, for adaptive
// objects, a run-time — decision. A domain is always a part of its
// Router, which holds the one object table and the settings the domains
// share.
//
// An object is an instance of an ObjectType: encapsulated state plus
// a set of operations, each classified as a read (no state change) or
// a write. Operations may carry a guard; a guarded operation blocks
// until its guard is true and then executes indivisibly — Orca's
// condition synchronization. Operations are sequentially consistent
// among the objects behind one sequencer group's total order and among
// primary copies. Across groups sequential consistency holds per object:
// only fences (Router.InvokeFenced) and forks order operations on
// objects in different groups.
//
// Machine crashes are survived, not masked: the broadcast runtime
// rides on the group layer's re-election and routes forwarded work
// around dead replica holders, while the point-to-point runtime
// re-homes an object whose primary died onto a surviving copy (or
// restarts it from its creation arguments if none survived) — see
// p2p_recover.go for the at-least-once caveat on writes in flight.
//
// The runtime has no process of its own. Every machine's servers — the
// object manager applying a group's delivery stream, the machine's one
// object service (an RPC dispatcher serving the point-to-point
// domain's requests and the operations forwarded to this machine's
// replicas), each primary copy's queue — are consumers with no process
// behind them (sim.Queue.Serve): they serve on the simulator's dispatch
// lane, in the name of a claimant of their machine, and take every step
// a server thread would take, in continuation form, in the same virtual
// instants and event slots. A continuation is a sim.Firer: a server is
// its own (objQueue.then and bcastManager.then hand out the server with
// its next step set), a combining buffer and a sequenced record's wait
// are their broadcasts', and a forwarded write is its wait's. A primary
// fans a write out to its secondaries as one RPC in continuation form
// each (amoeba.Client.CallOn), and a forwarded operation waits for its
// guard or its write's place in the total order in continuation form
// too. The only threads are an application's workers, and a worker that
// waits for the total order is that wait's continuation, and parks
// (bcastManager.sequence).
//
// Both domains keep a machine's copy of an object in one record, a
// replica, and retry the guarded operations parked on it with one
// routine, a sweep in rounds: the object manager at each frame
// boundary, a primary's queue after each committed write.
//
// Downward: replicas live on amoeba machines; broadcast writes ride
// package group and primary-copy traffic rides amoeba RPC. Upward:
// package orca wraps these systems in the Orca programming model.
package rts
