// Package orca provides the programming model of the Orca language as
// an embedded Go API: processes and shared data-objects.
//
// The paper's Orca is a procedural language whose parallel constructs
// are `fork` (create a process, optionally on a chosen processor,
// passing shared objects by reference) and operations on shared
// objects, which are sequentially consistent and indivisible, with
// guarded operations for condition synchronization. This package
// reproduces exactly that semantic model; what a compiler front-end
// would add is syntax, not behaviour (see DESIGN.md for the
// substitution argument). The typed layer (typed.go) plays the role
// of Orca's static type checking: object types are built with a
// fluent TypeBuilder and operations are typed descriptors.
//
// A program is a function run as the main process on processor 0 of a
// simulated Amoeba multicomputer. It creates objects (TypeBuilder.New,
// or NewWith for per-object placement policies), forks workers
// (Proc.Fork), performs operations, and charges its computation in
// virtual time (Proc.Work). The runtime beneath is selected by
// Config.RTS; with Config.Mixed both runtimes share the machines.
// Config.Faults schedules machine crashes the run must survive, and
// Report.Crashes accounts for them.
//
// Downward: programs run against the package rts runtime systems on
// simulated amoeba machines. Upward: internal/orca/std provides the
// standard object types and internal/apps/* are the paper's four
// applications.
package orca
