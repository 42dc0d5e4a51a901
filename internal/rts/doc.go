// Package rts implements the paper's shared data-object runtime: one
// object manager per machine over two kinds of orderer. An orderer puts
// an object's writes in one order, and a copy set applies them:
//
//   - a sequencer group (§3.2.1): full replication on the group's span,
//     or on a replica set within it with the rest forwarding, local
//     reads, and writes propagated by totally-ordered broadcast and
//     applied by every member's delivery consumer;
//   - a primary copy (§3.2.2): the primary's queue orders the writes
//     and keeps the secondaries consistent by an invalidation or a
//     two-phase update protocol, with dynamic replication decided from
//     read/write statistics.
//
// The Router is the runtime. It holds the object table, in which each
// object's entry names its orderer and holds its type, its op cache and
// its creation arguments, and it decides placement per object — for an
// adaptive object, at run time: a migration is a sequenced change of
// the entry's orderer plus one installed copy. Each machine's manager
// (objMgr) holds the machine's copies of every object, under either
// orderer, in one table indexed by object id, and its one object
// service.
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
// Machine crashes are survived, not masked: a group rides on the group
// layer's re-election and routes forwarded work around dead replica
// holders, while a primary copy whose machine died is re-homed onto a
// surviving copy (or restarted from its creation arguments if none
// survived) — see p2p_recover.go for the at-least-once caveat on writes
// in flight.
//
// The runtime has no process of its own. Every machine's servers — a
// group's delivery consumer, the machine's one object service (an RPC
// dispatcher serving primary-copy requests and the operations forwarded
// to this machine's replicas), each primary copy's queue — are
// consumers with no process behind them (sim.Queue.Serve): they serve
// on the simulator's dispatch lane, in the name of a claimant of their
// machine, and take every step a server thread would take, in
// continuation form, in the same virtual instants and event slots. A
// continuation is a sim.Firer: a server's is part of its record
// (steps.then hands it out with the server's next step set), a
// guard-retry pass is its guard check's, a combining buffer and a
// sequenced record's wait are their broadcasts', and a forwarded write
// is its wait's. A primary fans a write out to its secondaries as one
// RPC in continuation form each (amoeba.Client.CallOn), and a forwarded
// operation waits for its guard or its write's place in the total order
// in continuation form too. The only threads are an application's
// workers, and a worker that waits for the total order is that wait's
// continuation, and parks (bcastManager.sequence).
//
// Both orderers keep a machine's copy of an object in one record, a
// replica, and retry the guarded operations parked on it with one
// routine, a sweep in rounds: a group's consumer at each frame
// boundary, a primary's queue after each committed write.
//
// Downward: copies live on amoeba machines; group writes ride package
// group and primary-copy traffic rides amoeba RPC. Upward: package orca
// wraps the runtime in the Orca programming model.
package rts
