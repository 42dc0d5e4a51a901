// Package group implements Amoeba's totally-ordered reliable
// broadcast (Kaashoek's group-communication protocol) as the paper
// describes it, and the variations the reproduction grew around it.
//
// The paper's protocol (Config.Protocol == ElectedSequencer): a
// sequencer orders all broadcasts; the PB method (Point-to-point, then
// Broadcast) sends the message to the sequencer which broadcasts it
// with a sequence number, while the BB method (Broadcast, then
// Broadcast) broadcasts the message directly and the sequencer
// broadcasts a short Accept. PB costs 2m bandwidth and one interrupt
// per machine; BB costs m plus a tiny accept and two interrupts. The
// implementation dynamically picks PB for messages that fit one packet
// and BB for longer ones, exactly as the paper states.
//
// One data path (batch.go): every op travels in a frame — a request
// frame to the sequencer or a BB data frame to everyone, then a
// sequenced data frame or an accept frame back — and
// Config.Batch.MaxOps is the number of ops a frame may carry. The
// paper's protocol is MaxOps 1, the zero BatchConfig: each packer
// flushes the instant an op is queued. A larger capacity lets the
// sequencer coalesce queued ops into one multi-op frame (one sequence
// number per op) and senders pack same-instant submissions; the
// handlers, the wire bodies and the retransmission machinery are the
// same code either way.
//
// Reliability: the sequencer keeps a history buffer; members detect
// sequence gaps and request retransmission; senders retransmit
// unacknowledged requests. If the sequencer crashes, surviving
// members elect a new one (the candidate that has seen the most
// messages wins) and resynchronize from its rebuilt history — the
// paper's "committee electing a chairman", re-run on failure
// (election.go).
//
// Consensus (Config.Protocol == Consensus, consensus.go) replaces the
// election with a replicated log: the leader proposes each frame's
// slots, a majority accepts them before anyone delivers, and a
// successor takes a crashed leader's log over in one re-proposal round
// instead of an election window.
//
// Shards: several groups can share the same machines, each bound to
// its own kernel port with its own sequencer, history and membership
// (Config.Port, and a Members list that may be a subset of the
// network, reached by multicast). The runtime above
// routes each object to one group.
//
// Steps and the outbox: every protocol packet and every timer round
// (sender retransmission, gap and heartbeat timers, the packers'
// deadlines, election and consensus timers) runs in the kernel's
// interrupt context, which never blocks, and application threads enter
// the protocol through Broadcast and BroadcastBatch. Each is a step: it
// runs straight through over the member's state and appends its sends,
// in order, to an outbox of the member's pool, together with the calls
// that must wait for them — a frame's next record once a status report
// has gone out, a timer armed once a round's request has. One driver
// (outbox.issue) then chains the sends through the kernel's
// continuation forms in the step's name, so a handler's sends are
// joined as the kernel requires, and makes each waiting call where a
// thread blocked in Send would have resumed. Broadcast and
// BroadcastBatch are their steps, with the thread as the outbox's
// continuation (a sim.Firer; BroadcastBatchOn takes any), plus a park,
// so a thread and interrupt service run one implementation of the
// protocol (group.go, "Steps and the outbox"; DESIGN.md, "group: the
// ordering protocol"). What a member creates per operation — sequenced
// records, the frames that carry them, its per-op wire bodies and
// heartbeats — is carved from runs the member allocates and never
// reuses (chunk, in ring.go). The packers' Linger deadlines and the
// sender's same-instant flush are kernel deadlines (amoeba.Deadline) on
// records the machine recycles, the sender's retransmission timer is an
// event of its send record, and every other timer is a kernel timer
// (amoeba.Timer), which the member makes when it first arms it (the
// heartbeat apart, below), so that a member holds only the timers it
// runs: with no fault, a PB send
// allocates nothing, batched or not, and a BB or consensus send only
// its send record. A group's
// members are built as one (JoinAll): their records, delivery queues and
// per-source delivered windows come from per-group slabs, the tables
// only a sequencer reads are made when a member first sequences
// (resetSeqTables), and the heartbeat, which every member runs, is a
// kernel timer in the member's record whose round is the member, so a
// member costs one allocation of its own, its port binding. A member's delivered cache is a log whose
// segments are made as its deliveries reach them and reused once the
// sequencer's trim point has passed them (cacheLog), so it holds slots
// for what it must keep, not for the cap it might reach.
//
// Downward: members speak kernel ports and timers from package
// amoeba. Upward: the broadcast runtime in package rts consumes each
// member's totally-ordered delivery stream.
package group
