// Package rts implements the paper's shared data-object runtime
// systems: the broadcast RTS (§3.2.1: full replication, local reads,
// writes propagated by totally-ordered broadcast), the point-to-point
// RTS (§3.2.2: primary copy plus secondaries kept consistent by an
// invalidation or two-phase update protocol, with dynamic replication
// decided from read/write statistics), and the Router that hosts any
// number of broadcast sequencer groups plus the point-to-point runtime
// as domains, so placement is a per-object — and, for adaptive
// objects, a run-time — decision.
//
// An object is an instance of an ObjectType: encapsulated state plus
// a set of operations, each classified as a read (no state change) or
// a write. Operations may carry a guard; a guarded operation blocks
// until its guard is true and then executes indivisibly — Orca's
// condition synchronization. All operations on all shared objects are
// sequentially consistent.
//
// Machine crashes are survived, not masked: the broadcast runtime
// rides on the group layer's re-election and routes forwarded work
// around dead replica holders, while the point-to-point runtime
// re-homes an object whose primary died onto a surviving copy (or
// restarts it from its creation arguments if none survived) — see
// p2p_recover.go for the at-least-once caveat on writes in flight.
//
// Downward: replicas live on amoeba machines; broadcast writes ride
// package group and primary-copy traffic rides amoeba RPC. Upward:
// package orca wraps these systems in the Orca programming model.
package rts
