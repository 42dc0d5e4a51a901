// Package amoeba models the microkernel of the paper's testbed: one
// kernel instance per processor-pool machine, providing threads,
// transparent RPC, and the hooks the group-communication layer needs.
// Amoeba's segments (memory management) are not modelled: replica
// storage charges no virtual time and nothing reported reads it.
//
// Each Machine owns one CPU (the testbed machines are single-CPU
// MC68030s) modelled as a sim.Resource. Every frame delivered by the
// network is serviced in interrupt context: per-fragment interrupt cost
// plus protocol processing cost is charged to the CPU ahead of queued
// user work, and the bound port handler then runs. This per-message CPU
// tax is what bends the speedup curves of update-heavy applications,
// exactly as the paper reports for ACP. Interrupt context is one FIFO
// consumer per machine with no process behind it, which runs to
// completion on the simulator's dispatch lane in the name of the
// machine's interrupt claimant (see sim.Env.Claimant): the charge, the
// handler and deferred functions (kernel timer rounds) alike. Every
// primitive that waits has one continuation form, which takes a
// sim.Firer (a func through sim.Func), and its blocking form is that
// form with the calling thread as the continuation, and a park. A
// handler never blocks: it sends through the continuation forms (SendOn,
// MulticastOn), chaining one send from the last one's continuation, and
// the kernel serves the next packet once the handler and every
// continuation it started have run, so service stalls behind its sends
// as it did behind a blocked interrupt thread, in the same virtual
// instants. A kernel timer round that runs once is a Deadline: a record
// of the machine's whose event is armed in place and whose round is
// deferred into interrupt service when it fires. The record is reused
// only after its round has run, so a deadline armed again while a fired
// one's round still waits runs both rounds, and a crashed machine drops
// its rounds; arming one allocates nothing once the machine holds as
// many records as it ever has rounds pending.
//
// RPC is Amoeba's: a Client thread blocks in Call (or Trans, its
// all-body form), which retransmits on timeout, and a consumer makes the
// same transaction in continuation form, in its claimant's name
// (CallOn, of which Call is the park); a Server deduplicates by
// transaction id and answers a duplicate of an executed request from
// its reply cache, so execution is at most once on a lossy net. What
// travels is a Packet: port, traffic class, size and an opaque body,
// and — as Amoeba's header carried h_command and the small parameters
// beside the buffer — the transaction header in the packet itself: the
// transaction id, the operation and object asked for, and an Args
// record of parameters (results, in a reply), all by value. A unicast
// packet crosses the wire in a pooled box that the receiving machine
// copies out of and returns; a broadcast is one immutable record shared
// by its receivers, which the last of them to open it returns to its
// sender. A frame waiting in a queue keeps its payload where the sender
// put it: the packet is built once, when the delivery has been charged
// for. Nothing in flight aliases a record anyone can reuse, which is
// what lets every record here be pooled. A Server is consumed by threads that
// loop on GetRequest and PutReply — any number of them — or by one
// consumer with no process behind it (Server.Serve): each request's
// context switch is charged in the consumer's claimant's name, and a
// function of the owner's is handed the request at the instant
// GetRequest would have returned it, serves it on the dispatch lane
// through the continuation form PutReplyOn without
// blocking, and calls Done. Only the wall clock can tell that from one
// thread serving the port. Request and transaction records are pooled:
// a Request is the server's again once its reply is on its way, and a
// transaction's record goes back to its client when the transaction
// ends.
//
// Machines crash whole: Crash kills every thread and claimant of the
// machine and takes it off the network, and in-flight RPCs from other machines to
// it fail with ErrCrashed instead of hanging — the primitive the
// runtime systems' crash recovery is built on.
//
// Downward: threads are sim processes and frames travel package
// netsim. Upward: package group speaks the kernel's port interface,
// and the rts runtimes use RPC (Client/Server) and machine threads.
package amoeba
