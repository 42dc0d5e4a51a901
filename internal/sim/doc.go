// Package sim provides a deterministic discrete-event simulation
// kernel: a virtual clock, a (time, sequence) totally ordered event
// queue, and cooperatively scheduled processes.
//
// Exactly one simulated process (or event handler) executes at any
// instant, so simulations are fully deterministic and race-free by
// construction: the entire run is a single logical thread of control.
// Each process body is a pooled coroutine (iter.Pull), and one driver
// loop, on the goroutine that called Run, resumes whichever process an
// event hands control to. A server that never needs to block is no
// process at all: a served queue's consumer (Queue.Serve) runs on the
// dispatch lane, claiming resources and waiting on conditions through
// continuations in the name of a claimant (Env.Claimant), a record that
// can be killed but never runs. Because time is virtual, a 16-processor run
// is exact and repeatable on a single-core host, and injected faults
// (Env.Kill; see netsim.FaultPlan) replay exactly like any other event.
//
// This is the bottom of the stack. Upward: package netsim models the
// shared Ethernet on this clock, package amoeba boots simulated
// kernels whose threads are sim processes and whose servers are served
// queues, and everything above
// (group, rts, orca, the applications) inherits determinism from
// here.
package sim
