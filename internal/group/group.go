package group

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/amoeba"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Method selects the broadcast protocol variant.
type Method int

const (
	// Auto picks PB for single-packet messages and BB for longer
	// ones, the policy of the paper's implementation.
	Auto Method = iota
	// ForcePB always uses the Point-to-point/Broadcast method.
	ForcePB
	// ForceBB always uses the Broadcast/Broadcast method.
	ForceBB
)

// String names the method for tables and traces.
func (m Method) String() string {
	switch m {
	case Auto:
		return "auto"
	case ForcePB:
		return "PB"
	case ForceBB:
		return "BB"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Protocol selects how the group establishes its total order.
type Protocol int

const (
	// ElectedSequencer is the paper's protocol: a single sequencer
	// orders every broadcast (PB/BB), and its crash triggers a
	// vote-collection election during which sequencing stalls.
	ElectedSequencer Protocol = iota
	// Consensus replicates the sequencing log: a quorum of members
	// accepts every slot (single-decree Paxos per sequence number)
	// before any member delivers it, so losing the leader costs one
	// in-flight re-proposal instead of an election window. See
	// consensus.go.
	Consensus
)

// String names the protocol for tables and traces.
func (pr Protocol) String() string {
	switch pr {
	case ElectedSequencer:
		return "sequencer"
	case Consensus:
		return "consensus"
	}
	return fmt.Sprintf("Protocol(%d)", int(pr))
}

// BatchConfig is the frame capacity of the group's one data path (see
// DESIGN.md, "Group layer: one data path"). Every op travels in a
// frame; MaxOps says how many ops a frame may carry. With MaxOps above
// 1 the sequencer coalesces queued requests into one sequenced
// multi-op frame (one sequence number per op, one frame per batch),
// and a sender packs ops submitted in the same virtual instant into
// one request frame. The zero value means MaxOps 1: every op is a
// frame of its own and leaves the instant it is submitted.
type BatchConfig struct {
	// MaxOps flushes a frame at this many ops. Values below 1 mean 1.
	MaxOps int
	// MaxBytes flushes when the packed payload reaches this many
	// bytes (so a batch stays within one wire fragment).
	MaxBytes int
	// Linger is the flush deadline: an op waits at most this long in
	// a packer before the partial batch is sent.
	Linger sim.Time
}

// Enabled reports whether frames may carry more than one op.
func (b BatchConfig) Enabled() bool { return b.MaxOps > 1 }

// Config parameterizes a group.
type Config struct {
	// Members lists the node ids in the group. The initial sequencer
	// is the lowest id ("a committee electing a chairman") unless
	// Sequencer picks another member.
	Members []int
	// Sequencer, when it names a member, is the initial sequencer.
	// Any other value (including the zero value when node 0 is not a
	// member) falls back to the lowest member id. Fault experiments
	// use it to place the sequencer on a machine the fault plan
	// crashes without losing the computation's main process.
	Sequencer int
	// Method selects PB/BB policy; Auto follows the paper.
	Method Method
	// Protocol selects the sequencing protocol: the paper's elected
	// sequencer (the zero value) or the consensus-replicated log.
	Protocol Protocol
	// ProposeTimeout is the consensus leader's re-propose deadline for
	// slots a quorum has not yet accepted, and the unit of the
	// deterministic takeover backoff ladder.
	ProposeTimeout sim.Time
	// Batch is the frame capacity; the zero value is one op per frame.
	Batch BatchConfig
	// SenderTimeout is how long a sender waits for its broadcast to be
	// sequenced before retransmitting.
	SenderTimeout sim.Time
	// SenderRetries bounds retransmissions before the sender suspects
	// the sequencer has crashed and calls an election.
	SenderRetries int
	// GapTimeout is the interval between retransmission requests for
	// missing sequence numbers.
	GapTimeout sim.Time
	// StatusEvery makes members report their delivery progress to the
	// sequencer every N deliveries, enabling history trimming.
	StatusEvery int
	// ElectionWait is how long candidates collect votes.
	ElectionWait sim.Time
	// Heartbeat is the interval at which the sequencer announces its
	// highest sequence number, so members discover losses even when
	// traffic stops (a trailing dropped broadcast would otherwise go
	// unnoticed forever).
	Heartbeat sim.Time
	// Port is the kernel port the group binds; empty means Port ("grp").
	// Hosting several groups on one machine requires distinct ports
	// (Bind panics on a duplicate): orca names sequencer group k of
	// several "grp<k>".
	Port string
}

const (
	// historyMax caps the sequencer history buffer (and the consensus
	// acceptor's log): a safety net if statuses stall, e.g. while a
	// member is crashed.
	historyMax = 16384
	// cacheSize is the per-member cache of recently delivered
	// messages, used to rebuild history after an election.
	cacheSize = 8192
)

// DefaultConfig returns a configuration tuned for the simulated
// testbed.
func DefaultConfig(members []int) Config {
	return Config{
		Members:        members,
		Method:         Auto,
		ProposeTimeout: 40 * sim.Millisecond,
		SenderTimeout:  200 * sim.Millisecond,
		SenderRetries:  6,
		GapTimeout:     50 * sim.Millisecond,
		StatusEvery:    64,
		ElectionWait:   300 * sim.Millisecond,
		Heartbeat:      250 * sim.Millisecond,
	}
}

// Validate checks the configuration for combinations that would
// misbehave mid-run. Join panics on the returned error, so a bad
// configuration fails at startup instead of corrupting a run.
func (c Config) Validate() error {
	if len(c.Members) == 0 {
		return errors.New("group: empty membership")
	}
	for i, id := range c.Members {
		if id < 0 {
			return fmt.Errorf("group: negative member id %d", id)
		}
		if slices.Contains(c.Members[:i], id) {
			return fmt.Errorf("group: duplicate member id %d", id)
		}
	}
	switch c.Method {
	case Auto, ForcePB, ForceBB:
	default:
		return fmt.Errorf("group: unknown method %v", c.Method)
	}
	switch c.Protocol {
	case ElectedSequencer, Consensus:
	default:
		return fmt.Errorf("group: unknown protocol %v", c.Protocol)
	}
	if c.Protocol == Consensus && c.Method == ForceBB {
		return errors.New("group: ForceBB is incompatible with the consensus protocol (proposals already replicate payloads)")
	}
	if c.Protocol == Consensus && c.ProposeTimeout <= 0 {
		return errors.New("group: the consensus protocol requires a positive ProposeTimeout")
	}
	if c.Batch.MaxOps < 0 || c.Batch.MaxBytes < 0 || c.Batch.Linger < 0 {
		return errors.New("group: negative batch parameter")
	}
	if c.Batch.Enabled() && c.Batch.Linger <= 0 {
		return errors.New("group: batching requires a positive Linger deadline")
	}
	return nil
}

// Msg is one application message on its way through the total order:
// what a member broadcasts and what every member is delivered. An
// operation travels inline, in the shape of amoeba.Packet's header — Obj
// names the object, Op the operation, Args its parameters — so a
// sequenced operation is its frame's record and nothing besides; Body
// carries any other payload. Size is the payload's wire size.
type Msg struct {
	Kind string
	Obj  int64
	Op   string
	Args amoeba.Args
	Body any
	Size int
}

// Delivery is one totally-ordered message handed to the application:
// the sequenced record itself, which the frame it arrived in, the
// history rings and every consumer share, and which nobody mutates after
// it was sequenced. All members observe identical (Seq, UID, Src, Msg)
// streams. More marks a mid-batch op: the remaining ops of its packed
// frame follow at the next sequence numbers, letting consumers amortize
// per-frame work (the RTS runs one guard-retry sweep per frame, not per
// op). The More flags are assigned by the sequencer and travel with the
// message, so every member sees identical frame boundaries regardless
// of how (or how often) a message reached it.
type Delivery struct {
	*dataMsg
	// Dup marks a re-sequenced duplicate suppressed by the dedup
	// window. Its message must not be applied again (consumers test Dup
	// first); the delivery exists so consumers still observe the frame
	// boundary the duplicate occupied — without it a member whose frame
	// tail was a duplicate would defer its per-frame sweep forever.
	Dup bool
}

// item is one application message on its way to being sequenced.
// SrcSeq is the sender's dense per-member submission counter: the
// sequencer and the delivery path dedup on (Src, SrcSeq) with O(1)
// ring-buffer windows instead of uid hash maps.
type item struct {
	UID    int64
	Src    int
	SrcSeq int64
	Msg
}

// Wire message bodies. All travel on the "grp" port. The four data
// roles (request, BB data, accept, sequenced data) each carry a list
// of ops; an unbatched group's lists have one element. Frames travel
// by pointer and are never mutated after they are sent: every receiver
// shares the sender's records instead of rebuilding them. A status
// report — delivery progress, for history trimming — has no body: it is
// the packet header's Obj, from the member the packet is from.
type (
	// reqMsg is PB's RequestForBroadcast, unicast to the sequencer.
	reqMsg struct {
		Items []item
	}
	// bbDataMsg is BB's unsequenced data broadcast from the sender.
	// Members stash pointers into Items until the accept arrives.
	bbDataMsg reqMsg
	// dataMsg is one sequenced op. Epoch stamps the sequencer's view so
	// stale pre-election frames cannot interleave with a new sequencer's
	// stream. More marks a mid-batch op (see Delivery).
	dataMsg struct {
		item
		Seq   int64
		Epoch int
		More  bool
	}
	// dataFrame is the frame of sequenced ops the sequencer broadcasts
	// (PB), or one restamped copy unicast as a retransmission. Recs
	// occupy consecutive sequence numbers. The history ring, the
	// delivery buffers and every receiver hold pointers into Recs; one
	// backs it for a one-op frame. Frames and records are carved from
	// their maker's chunks (see newFrame), so a frame costs no allocation
	// of its own.
	dataFrame struct {
		Recs []dataMsg
		one  [1]dataMsg
	}
	// acceptMsg is BB's short Accept broadcast from the sequencer:
	// UIDs[i] gets sequence number Seq+i, and every op but the last is
	// mid-batch. More marks the last one mid-batch too — a lone accept
	// retransmitted for a mid-batch op carries it, so the member
	// reconstructs the boundary every other replica saw. one backs UIDs
	// for a one-op accept.
	acceptMsg struct {
		Seq   int64
		Epoch int
		More  bool
		UIDs  []int64
		one   [1]int64
	}
	// retxReq asks the sequencer to retransmit sequence numbers
	// [From, To]. Delivered piggybacks the requester's progress.
	retxReq struct {
		From, To  int64
		Node      int
		Delivered int64
	}
	// electMsg is an election vote: the candidate with the highest
	// HighSeq (ties to the lowest node id) becomes sequencer.
	electMsg struct {
		Epoch   int
		Node    int
		HighSeq int64
	}
	// coordMsg announces the election winner.
	coordMsg electMsg
	// coordAck confirms a member has installed the winner's view;
	// the winner sequences nothing until every live member has. It
	// carries no HighSeq.
	coordAck electMsg
	// coordNack rejects a view whose HighSeq is behind the member's
	// deliveries (the winner must abort and re-elect).
	coordNack electMsg
	// hbMsg is the sequencer's periodic progress announcement.
	hbMsg electMsg
)

// Header sizes in bytes for the wire model.
const (
	hdrData   = 24
	hdrAccept = 20
	hdrSmall  = 20
	// hdrItem is the per-op framing overhead inside a multi-op frame
	// (uid, source, length).
	hdrItem = 12
)

// frameSize is the wire size of a request, BB data or sequenced data
// frame of n ops whose payloads total payload bytes. A one-op frame
// carries no item table.
func frameSize(n, payload int) int {
	if n == 1 {
		return hdrData + payload
	}
	return hdrData + payload + n*hdrItem
}

// srcWindow is the per-source dedup window, in submissions: how far
// back the sequencer and the delivery path remember a source's
// operations. A source only retransmits while one of its ops is
// unacknowledged, and it can have at most a handful in flight, so the
// window is orders of magnitude deeper than any reachable
// retransmission. Submissions older than the window are treated as
// already handled.
const srcWindow = 4096

// Port is the kernel port the group protocol binds on every member.
const Port = "grp"

// bbAccept is a recorded accept whose data frame has not arrived yet.
type bbAccept struct {
	uid  int64
	more bool
}

// sendState tracks one request or BB data frame of this member's ops
// until they are sequenced. Each op completes individually as it
// appears in the sequenced stream, and retransmissions carry only the
// ops still outstanding.
//
// Records are recycled through the member's free list under one rule: a
// frame on the wire or in a queue owns what it points to. A request or
// BB data frame points to req, and so to the item array; under BB every
// member's pendingBB stash points into the array too. So a record goes
// back to the list only when no frame that shares it can still arrive,
// which is known in one case — fresh (see flushSend): the elected
// sequencer's protocol, the PB method, items no frame has carried
// before, one transmission, the timer never fired. Those items can have
// been sequenced only by the sequencer reading that one frame, so their
// acknowledgment says the frame has been consumed. Every other record
// is left to the collector once acknowledged, with whatever still
// points to it.
type sendState struct {
	items   []item
	one     [1]item // backs items for a one-op send
	req     reqMsg  // the request or BB data frame's body
	method  Method  // resolved (PB or BB)
	retries int
	cycles  int // consensus: full retry cycles, for retransmit backoff
	fresh   bool

	// The retransmission timer is part of the record, so arming it
	// allocates nothing: its firing (bound in newSend) has interrupt
	// service run resend. timed says the timer has been started; it then
	// re-arms itself for as long as the send is live.
	g     *Member
	timer sim.Event
	timed bool
	next  *sendState // on g.sendFree
}

// poison makes a sendState unusable when it is released, so that a
// frame that reads one after its release fails loudly. Tests turn it
// on.
var poison bool

// live reports whether any op of this send is still unacknowledged.
func (st *sendState) live(g *Member) bool {
	for i := range st.items {
		if g.outstanding[st.items[i].UID] == st {
			return true
		}
	}
	return false
}

// Stats counts protocol activity at one member.
type Stats struct {
	Sent int64
	// PBSends and BBSends split Sent by the method each of this
	// member's own ops was submitted under (the sequencer's own ops
	// count as PB: one sequenced frame on the wire). Retransmissions and
	// frames relayed for other members are not counted; an op a view
	// change re-routes before it is sequenced counts again.
	PBSends     int64
	BBSends     int64
	Delivered   int64
	Retransmits int64
	GapRequests int64
	Elections   int64
	// BatchedOps counts ops that traveled inside a multi-op frame
	// this member sequenced or sent; Batches counts those frames.
	BatchedOps int64
	Batches    int64
	// Takeovers counts consensus leader takeovers this member
	// completed; Reproposals counts slots it re-proposed (after a
	// takeover or a propose timeout). RecoveryTime accumulates the
	// virtual time between suspecting a sequencer failure and the next
	// delivery — the stall an application actually observes.
	Takeovers    int64
	Reproposals  int64
	RecoveryTime sim.Time
}

// Member is one node's endpoint of the group. All methods must run in
// simulation context on the member's machine.
type Member struct {
	m   *amoeba.Machine
	cfg Config

	// port is the resolved kernel port (see Config.Port); castTo is
	// the sorted member list protocol broadcasts multicast to, nil
	// when the group spans every network node and physical broadcast
	// is identical (and cheaper to simulate). Every member of a JoinAll
	// shares it, read-only.
	port   string
	castTo []int

	seqNode int
	epoch   int
	nextSeq int64 // next sequence number to deliver
	maxSeen int64 // highest sequence number observed
	sendSeq int64 // dense per-member submission counter (SrcSeq)
	outQ    sim.Queue[Delivery]

	// The three maps are made at their first insert.
	buffered    seqRing[*dataMsg]    // seq -> out-of-order data
	pendingBB   map[int64]*item      // uid -> BB data awaiting accept
	acceptedBB  map[int64]bbAccept   // seq -> accept waiting for its data
	outstanding map[int64]*sendState // uid -> my unsequenced sends
	sendFree    *sendState           // released records (see sendState)

	chunks *chunks // made with the first record (see carve)

	// The gap timer (see armGapTimer) and what it remembers between
	// rounds; gapOn from when it is armed until its round starts in
	// interrupt context, or it is stopped.
	gapTimer           *timer
	gapOn              bool
	gapNext            int64
	gapEpoch, gapStall int

	hbTimer amoeba.Timer // its round is the member (see hbRound)

	// out is the outbox of the step that is running (see outbox), boxes
	// the released ones.
	out, boxes *outbox
	// box0 is the member's first outbox.
	box0 outbox
	// sendFire is the sender packer's same-instant flush step (see
	// enqueueSend), bound when first armed.
	sendFire func(p *sim.Proc)

	// memberIdx maps a node id to its dense index in cfg.Members (-1
	// for non-members); the per-source rings below are indexed by it.
	// Every member of a JoinAll shares it, read-only.
	memberIdx []int

	// Delivered-message cache (for election history rebuild) and
	// per-source delivered windows: dlvBySrc[i] remembers which of a
	// source's submissions have been delivered, so a re-sequenced
	// duplicate after an election is recognized in O(1).
	cache    cacheLog
	dlvBySrc []dedupWindow

	// Sequencer state. A freshly elected sequencer is not installed
	// until every live member acknowledged its view; it assigns no
	// sequence numbers before that. history is a seq-indexed ring:
	// sequence numbers are dense, so lookup, record, and trim are
	// array steps and nothing iterates a map on the delivery path. The
	// per-source and per-member tables (and consensus acked) are made
	// when the member first sequences (see resetSeqTables).
	isSeq     bool
	installed bool
	viewAcks  map[int]bool
	history   seqRing[*dataMsg]
	seenBySrc []*seqRing[int64] // per-source: submission -> assigned seq
	statuses  []int64           // per-member delivered progress (-1: none)
	trimMin   int64             // min status found by the last trim scan (-1: a member had none)
	trimAtMin int               // members found at trimMin and not reported past it since
	trimDown  int               // machines down at the last scan
	trimOwn   bool              // last scan was limited by own progress
	trimmed   int64             // the trim point: every member counted has delivered below it
	trimScans int               // trim scans run

	// Sequencer-side packers (see batch.go): PB ops queued for the next
	// sequenced data frame, BB ops for the next accept frame.
	pack packer
	acc  packer

	// Sender-side packer: ops submitted in the same instant leave in
	// one request frame.
	sendQ     []item
	sendBytes int
	sendArmed bool

	// Election state.
	electing   bool
	bestCand   electMsg
	votedEpoch int
	// The vote-collection window and the rounds it has waited for the
	// expected winner (see armElectionTimer), and the re-announcement of
	// a view not yet installed, for the epoch it was announced in. These
	// timers and the consensus ones below are made when first armed
	// (see arm).
	electTimer  *timer
	electRounds int
	viewTimer   *timer
	viewEpoch   int
	// Claimant convergence (exercised only when elections collide,
	// which needs a large group with unsynchronized suspicions): the
	// coord accepted for the current epoch, so a worse claimant cannot
	// displace a better one and a duplicate re-announcement does not
	// re-trigger a full retransmit of outstanding ops.
	haveCoord bool
	lastCoord coordMsg

	// Consensus state (Config.Protocol == Consensus; see
	// consensus.go).
	ballot     int64            // leader: the ballot my proposals carry (0: not leading)
	promised   int64            // highest ballot promised or accepted
	committed  int64            // highest slot known chosen (commit watermark)
	accepted   seqRing[accSlot] // acceptor log: slot -> highest-ballot accepted value
	accPrefix  int64            // contiguous accepted prefix under `promised`
	acked      []int64          // leader: per-member cumulative accepted prefixes
	ackScratch []int64          // quorum-floor scratch
	propTimer  *timer           // leader: re-propose deadline
	propOn     bool
	takeover   *takeoverState // in-flight prepare round (nil otherwise)
	// The takeover backoff of a member that is not the successor, and
	// the leader and progress it was armed against (see suspectLeader).
	suspTimer *timer
	suspOn    bool
	suspNode  int
	suspNext  int64

	// Congestion damping: a fruitless re-propose round (no commit
	// progress) doubles the next re-propose deadline, and a suspicion
	// round that yields no delivery progress delays the next one.
	// Without this, a transient overload snowballs — re-proposals and
	// takeover traffic saturate the simulated wire, queueing delay
	// diverges, and every timeout fires forever against stale state.
	propBackoff uint  // leader: consecutive fruitless re-propose rounds
	propLastCmt int64 // leader: commit watermark at the last re-propose
	suspRounds  int   // suspicion rounds since the last delivery progress
	suspMark    int64 // nextSeq at the last suspicion round
	// leaderSeen is the last instant this member accepted a sign of
	// life (proposal, commit, heartbeat) from the leader it follows.
	// Prepares and fresh takeovers stand down while it is recent:
	// without that stickiness a large group's unsynchronized
	// suspicions depose every newly installed leader before it can
	// commit a single slot, and leadership changes hands forever.
	leaderSeen sim.Time
	// seqAlive is the last instant a delivery advanced nextSeq. The
	// elected protocol's sender suspicion consults it the same way
	// consensus consults leaderSeen: after a view change the new
	// sequencer drains the whole group's re-kicked backlog, and in a
	// large group that drain outlasts the sender retry budget — an
	// unsequenced op while deliveries are streaming means the op is
	// queued behind the backlog, not that the sequencer died.
	seqAlive sim.Time

	// Ack/commit-announce throttles (leading edge + refractory
	// window): the first event sends immediately, later ones inside
	// the window coalesce into one trailing send, so the per-op
	// O(P) message cost collapses under load without adding latency
	// when the group is idle. The flags follow both timers, so they
	// share one word.
	ackTimer, cmtTimer *timer
	ackOn, ackPending  bool
	cmtOn, cmtPending  bool

	// recoveryStart is the instant this member first suspected a
	// sequencer failure; the next delivery accumulates the gap into
	// stats.RecoveryTime.
	recoveryStart sim.Time

	stats Stats
}

// Join attaches machine m to the group: a JoinAll of one machine.
func Join(m *amoeba.Machine, cfg Config) *Member { return JoinAll([]*amoeba.Machine{m}, cfg)[0] }

// JoinAll attaches the machines to the group, one member each, in order.
// Every member must join before the simulation starts broadcasting. The
// members are built as one: what they share (the member index, the
// multicast list) they share read-only, and their records, delivery
// queues (each sized to one frame) and per-source delivered windows come
// from slabs of the group's, so building a group costs a handful of
// allocations whatever its size, and a member one: its port binding. A
// member makes the tables only a sequencer reads when it first sequences
// (resetSeqTables), the boot sequencer here.
func JoinAll(ms []*amoeba.Machine, cfg Config) []*Member {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	seq := slices.Min(cfg.Members)
	if slices.Contains(cfg.Members, cfg.Sequencer) {
		seq = cfg.Sequencer
	}
	if cfg.Batch.MaxOps < 1 {
		cfg.Batch.MaxOps = 1
	}
	port := cfg.Port
	if port == "" {
		port = Port
	}
	n, k, frame := len(cfg.Members), len(ms), cfg.Batch.MaxOps
	idx := make([]int, slices.Max(cfg.Members)+1)
	for i := range idx {
		idx[i] = -1
	}
	for i, id := range cfg.Members {
		idx[id] = i
	}
	var castTo []int
	if n < ms[0].Net().Nodes() {
		castTo = slices.Clone(cfg.Members)
		slices.Sort(castTo)
	}
	var (
		slab   = make([]Member, k)
		out    = make([]*Member, k)
		dlv    = make([]dedupWindow, k*n)
		frames = make([]Delivery, k*frame)
	)
	for j, m := range ms {
		g := &slab[j]
		*g = Member{
			m:         m,
			cfg:       cfg,
			port:      port,
			castTo:    castTo,
			seqNode:   seq,
			nextSeq:   1,
			acc:       packer{accept: true},
			memberIdx: idx,
			dlvBySrc:  dlv[j*n : (j+1)*n : (j+1)*n],
			history:   seqRing[*dataMsg]{max: historyMax},
		}
		g.outQ.Buffer(frames[j*frame : j*frame : (j+1)*frame]) // a frame's deliveries, queued at once
		g.buffered.reset(1)
		g.history.reset(1)
		g.isSeq = m.ID() == seq
		g.installed = true // the boot view needs no installation round
		if g.isSeq {
			g.resetSeqTables()
		}
		if cfg.Protocol == Consensus {
			g.accepted = seqRing[accSlot]{max: historyMax}
			g.accepted.reset(1)
			if g.isSeq {
				// The boot leader owns the smallest ballot of its member
				// index; every member starts at promised 0 and accepts it.
				g.ballot = int64(idx[seq]) + 1
				g.promised = g.ballot
			}
		}
		m.BindHandler(port, (*portHandler)(g))
		g.hbTimer.Init(m, (*hbRound)(g))
		if cfg.Heartbeat > 0 {
			g.hbTimer.Arm(cfg.Heartbeat)
		}
		out[j] = g
	}
	return out
}

// Steps and the outbox. The protocol runs in interrupt context, where
// nothing blocks, and on application threads, which may. Every packet
// handler, timer round and broadcast entry point is a step: it runs in
// one go over the member's state and appends what must wait for the
// wire to the outbox of the step (g.out): its sends, in order, and the
// calls that must run only once the sends before them have gone out.
// One driver, issue, then carries the outbox out, chaining each send
// through the kernel's continuation forms in the step's name, so the
// kernel joins a handler's sends as it always has. A call that may
// follow a send goes through later, which runs it at once when nothing
// the step appended is still pending and appends it otherwise; its own
// sends and calls go in where it stood. A walk that may send at any
// element runs each element once the one before it has been issued. On
// the paths an operation takes, calls and walks are typed effects, so a
// step allocates nothing; the cold paths (view changes, takeovers,
// suspicion) use call for a closure and each for a walk. DESIGN.md
// ("group: the ordering protocol") states which state a step may touch
// at once.

// fxKind names what an effect does when it is issued.
type fxKind uint8

const (
	fxSend       fxKind = iota // pkt to dst; to the group if dst is netsim.Broadcast
	fxProcess                  // processData(on)
	fxDrain                    // the rest of a delivery run after a status report
	fxRequest                  // requestItem(on)
	fxBroadcast                // append broadcast(on)'s uid to *uids
	fxArmSender                // armSenderTimer(on)
	fxArmGap                   // startGap()
	fxArmHB                    // start the heartbeat timer
	fxAcceptProp               // acceptProp(on)
	fxCommit                   // applyCommit(on.Ballot, on.UpTo)
	fxGapCheck                 // armGapTimer() if a hole remains
	fxTryCommit                // tryCommit()
	fxArmProp                  // armPropTimer()
	fxAck                      // scheduleAck()
	fxArmAck                   // open the ack throttle's window
	fxArmCommit                // open the commit throttle's window
	fxCall                     // on()
	fxEach                     // on(i) for i in [i, n)
	fxBBData                   // bbItem(&on.Items[i]) for i in [i, n)
	fxAccept                   // acceptItem(on, i) for i in [i, n)
)

// effect is one entry of an outbox.
type effect struct {
	kind fxKind
	dst  int
	pkt  amoeba.Packet
	on   any // what the effect is about: a pointer or func of the type its kind says
	uids *[]int64
	i, n int
}

// outbox is one step's effects: fx[i:] are still to be issued, and the
// step or call running now inserts its own at at. Outboxes are pooled
// per member, so a step allocates none.
type outbox struct {
	g     *Member
	p     *sim.Proc
	fx    []effect
	i, at int
	then  sim.Firer // fires after the last effect (nil: interrupt context)
	free  *outbox
}

// Fire issues the rest of the outbox: an outbox is its sends'
// continuation, so chaining them binds nothing.
func (o *outbox) Fire() { o.issue() }

// begin opens the outbox of a step on p's behalf; issue then carries it
// out, and then fires once the last effect has been issued.
func (g *Member) begin(p *sim.Proc, then sim.Firer) *outbox {
	o := g.boxes
	if o == nil {
		o = &g.box0
		if o.g != nil { // in use: a step began while another's sends wait
			o = new(outbox)
		}
		o.g = g
	} else {
		g.boxes, o.free = o.free, nil
	}
	o.p, o.then, g.out = p, then, o
	return o
}

// step runs body, on g, as a step in interrupt context on p's behalf: a
// kernel timer round (see amoeba.Machine.Defer). A round that is a
// method expression binds nothing.
func (g *Member) step(p *sim.Proc, body func(*Member)) {
	o := g.begin(p, nil)
	body(g)
	o.issue()
}

// portHandler is a member as the handler of its group's port.
type portHandler Member

func (h *portHandler) Handle(p *sim.Proc, from int, pkt amoeba.Packet) {
	(*Member)(h).handle(p, from, pkt)
}

// hbRound is a member as the round of its heartbeat timer.
type hbRound Member

func (r *hbRound) Round(p *sim.Proc) { (*Member)(r).step(p, (*Member).heartbeat) }

// timer is a kernel timer of the member whose round runs as a step in
// interrupt context. It is its own round, so arming it allocates
// nothing.
type timer struct {
	amoeba.Timer
	g     *Member
	round func(*Member)
}

func (t *timer) Round(p *sim.Proc) { t.g.step(p, t.round) }

// arm arms the timer *t to fire d from now. The timer is made and bound
// when it is first armed, so a member whose protocol never arms it pays
// nothing for it.
func (g *Member) arm(t **timer, d sim.Time, round func(*Member)) {
	if *t == nil {
		*t = &timer{g: g, round: round}
		(*t).Init(g.m, *t)
	}
	(*t).Arm(d)
}

// issue carries out the outbox from fx[i] on, and goes on from a send's
// continuation.
func (o *outbox) issue() {
	g := o.g
	for o.i < len(o.fx) {
		e := o.fx[o.i]
		o.fx[o.i] = effect{}
		o.i++
		o.at = o.i
		switch {
		case e.kind != fxSend:
			g.out = o
			g.run(e)
			continue
		case e.dst == netsim.Broadcast && g.castTo != nil:
			g.m.MulticastOn(o.p, e.pkt, g.castTo, o)
		default:
			g.m.SendOn(o.p, e.dst, e.pkt, o)
		}
		return
	}
	then := o.then
	o.fx, o.i, o.at, o.then, o.p = o.fx[:0], 0, 0, nil, nil
	o.free, g.boxes = g.boxes, o
	if then != nil {
		then.Fire()
	}
}

// run carries out an effect that is not a send.
func (g *Member) run(e effect) {
	switch e.kind {
	case fxProcess:
		g.processData(e.on.(*dataMsg))
	case fxDrain:
		g.nextSeq++
		g.buffered.advanceTo(g.nextSeq)
		g.drain()
	case fxRequest:
		g.requestItem(e.on.(*item))
	case fxBroadcast:
		*e.uids = append(*e.uids, g.broadcast(e.on.(*Msg)))
	case fxArmSender:
		g.armSenderTimer(e.on.(*sendState))
	case fxArmGap:
		g.startGap()
	case fxArmHB:
		g.hbTimer.Arm(g.cfg.Heartbeat)
	case fxAcceptProp:
		g.acceptProp(e.on.(*propMsg))
	case fxCommit:
		m := e.on.(*pcmtMsg)
		g.applyCommit(m.Ballot, m.UpTo)
	case fxGapCheck:
		if g.nextSeq <= g.maxSeen {
			g.armGapTimer()
		}
	case fxTryCommit:
		g.tryCommit()
	case fxArmProp:
		g.armPropTimer()
	case fxAck:
		g.scheduleAck()
	case fxArmAck:
		g.ackOn = true
		g.arm(&g.ackTimer, g.coalesceDelay(), (*Member).ackRound)
	case fxArmCommit:
		g.cmtOn = true
		g.arm(&g.cmtTimer, g.coalesceDelay(), (*Member).commitRound)
	case fxCall:
		e.on.(func())()
	case fxEach, fxBBData, fxAccept:
		for ; e.i < e.n; e.i++ {
			if o := g.out; o.at > o.i {
				g.push(e) // goes on once element e.i-1's effects have been issued
				return
			}
			switch e.kind {
			case fxBBData:
				g.bbItem(&e.on.(*bbDataMsg).Items[e.i])
			case fxAccept:
				g.acceptItem(e.on.(*acceptMsg), e.i)
			default:
				e.on.(func(int))(e.i)
			}
		}
	}
}

// push appends e to the running step's outbox, where it stands.
func (g *Member) push(e effect) {
	o := g.out
	o.fx = slices.Insert(o.fx, o.at, e)
	o.at++
}

// later runs e now if nothing the running step appended is pending, and
// appends it otherwise.
func (g *Member) later(e effect) {
	if o := g.out; o.at > o.i {
		g.push(e)
		return
	}
	g.run(e)
}

// call is later of a call.
func (g *Member) call(fn func()) { g.later(effect{kind: fxCall, on: fn}) }

// each runs body(0), ..., body(n-1), each once whatever the one before
// it appended has been issued: a walk that may send at any element, for
// the one closure.
func (g *Member) each(n int, body func(i int)) { g.run(effect{kind: fxEach, on: body, n: n}) }

// send unicasts a protocol packet of the given kind, body and wire size
// to dst.
func (g *Member) send(dst int, kind string, body any, size int) {
	g.push(effect{kind: fxSend, dst: dst, pkt: amoeba.Packet{Port: g.port, Kind: kind, Body: body, Size: size}})
}

// cast sends a protocol packet to the group: physical broadcast when the
// group spans every network node, hardware multicast to the member set
// otherwise (non-members' NICs filter the frame without taking an
// interrupt). The header's Obj, which a frame with a body does not
// otherwise use, carries the member's trim point: members read it off a
// sequencer's data, accepts and heartbeats (see dropBelow).
func (g *Member) cast(kind string, body any, size int) {
	g.push(effect{kind: fxSend, dst: netsim.Broadcast, pkt: amoeba.Packet{Port: g.port, Kind: kind, Body: body, Size: size, Obj: g.trimmed}})
}

// dropBelow drops the delivered cache's records below the trim point t
// a sequencer announced, and never those this member has yet to
// deliver. Every member the sequencer counted, which is every member
// not crashed, has delivered everything below t, so none asks for those
// records again: not from a new sequencer's history (rebuildHistory),
// not from a follower's retransmissions (onRetxReq) and not in a
// takeover's promises (promiseSlots), which all start at the asker's
// next delivery.
func (g *Member) dropBelow(t int64) { g.cache.trim(min(t, g.nextSeq)) }

// now is the virtual time.
func (g *Member) now() sim.Time { return g.m.Env().Now() }

// srcIdx resolves a node id to its member index (-1 for non-members).
func (g *Member) srcIdx(node int) int {
	if node < 0 || node >= len(g.memberIdx) {
		return -1
	}
	return g.memberIdx[node]
}

// seenSeq consults the sequencer's per-source dedup window: it reports
// whether submission srcSeq from src was already sequenced, and under
// which sequence number (0 if that has been forgotten). Submissions
// below the window are certainly ancient and report as handled.
func (g *Member) seenSeq(src int, srcSeq int64) (seq int64, dup bool) {
	idx := g.srcIdx(src)
	if idx < 0 || srcSeq <= 0 || g.seenBySrc[idx] == nil {
		return 0, false
	}
	r := g.seenBySrc[idx]
	if srcSeq < r.lo {
		return 0, true
	}
	s := r.get(srcSeq)
	return s, s != 0
}

// noteSeen records that submission srcSeq from src was assigned seq.
func (g *Member) noteSeen(src int, srcSeq int64, seq int64) {
	idx := g.srcIdx(src)
	if idx < 0 || srcSeq <= 0 {
		return
	}
	r := g.seenBySrc[idx]
	if r == nil {
		r = &seqRing[int64]{max: srcWindow}
		r.reset(1)
		g.seenBySrc[idx] = r
	}
	r.set(srcSeq, seq)
}

// dupDelivery reports whether submission srcSeq from src was already
// handed to the application (a re-sequenced duplicate after an
// election), and notes it as delivered if not. Submissions below the
// window are ancient and count as delivered.
func (g *Member) dupDelivery(src int, srcSeq int64) bool {
	idx := g.srcIdx(src)
	if idx < 0 || srcSeq <= 0 {
		return false
	}
	w := &g.dlvBySrc[idx]
	dup := w.delivered(srcSeq)
	if !dup {
		w.note(srcSeq)
	}
	return dup
}

// heartbeat is the periodic sequencer announcement, a kernel timer
// round. Every member runs the timer; only the current sequencer
// transmits.
func (g *Member) heartbeat() {
	// A consensus leader announces its commit watermark, not its
	// assigned maximum: uncommitted slots are not yet deliverable
	// and must not trigger gap recovery at members.
	high := g.maxSeen
	if g.cfg.Protocol == Consensus {
		high = g.committed
	}
	if g.isSeq && g.installed && high > 0 {
		g.cast("grp-hb", g.carve().hbs.Add(hbMsg{Epoch: g.epoch, Node: g.m.ID(), HighSeq: high}), hdrSmall)
	}
	g.later(effect{kind: fxArmHB})
}

// Deliveries returns the totally-ordered stream of group messages for
// this member. Consumers (the RTS object manager) Get in a loop.
func (g *Member) Deliveries() *sim.Queue[Delivery] { return &g.outQ }

// Sequencer reports the node this member currently believes is the
// sequencer.
func (g *Member) Sequencer() int { return g.seqNode }

// IsSequencer reports whether this member is the sequencer.
func (g *Member) IsSequencer() bool { return g.isSeq }

// Stats returns a snapshot of this member's protocol counters.
func (g *Member) Stats() Stats { return g.stats }

// resolveMethod picks PB or BB for a request frame of the given wire
// size, following the paper's one-packet rule in Auto mode.
func (g *Member) resolveMethod(frame int) Method {
	if g.cfg.Protocol == Consensus {
		// Proposals replicate payloads to every member regardless of
		// size, so BB's data-first optimization buys nothing: requests
		// always travel PB-style to the leader.
		return ForcePB
	}
	if g.cfg.Method != Auto {
		return g.cfg.Method
	}
	if g.m.Net().FragmentsFor(frame) > 1 {
		return ForceBB
	}
	return ForcePB
}

// Broadcast reliably, totally-ordered broadcasts a message to the
// group (including this member, which sees it in its own delivery
// stream). It returns the message uid; delivery order is defined by
// the sequence numbers all members agree on. Broadcast does not wait
// for delivery: callers needing write-completion semantics wait until
// their uid appears in the delivery stream.
func (g *Member) Broadcast(p *sim.Proc, kind string, body any, size int) int64 {
	return g.BroadcastMsg(p, Msg{Kind: kind, Body: body, Size: size})
}

// BroadcastMsg is Broadcast of a message record, which may carry an
// operation inline.
func (g *Member) BroadcastMsg(p *sim.Proc, m Msg) int64 {
	o := g.begin(p, p)
	uid := g.broadcast(&m)
	o.issue()
	p.Park()
	return uid
}

// broadcast is the step of BroadcastMsg.
func (g *Member) broadcast(m *Msg) int64 {
	uid := g.m.ServiceID()
	g.sendSeq++
	g.stats.Sent++
	it := item{UID: uid, Src: g.m.ID(), SrcSeq: g.sendSeq, Msg: *m}
	if g.isSeq && g.installed {
		// The sequencer sequences its own ops directly and broadcasts
		// the sequenced data: one message on the wire.
		g.stats.PBSends++
		g.enqueue(&g.pack, it)
	} else {
		g.enqueueSend(it)
	}
	return uid
}

// newSend registers items as one outstanding send of this member.
func (g *Member) newSend(items []item, method Method) *sendState {
	st := g.sendFree
	if st == nil {
		st = &sendState{g: g}
		st.items = st.one[:0]
		resend := func(p *sim.Proc) { g.step(p, func(*Member) { st.resend() }) }
		st.timer.InitOn(g.m.Env(), sim.Func(func() {
			st.fresh = false // the queued round refers to the record
			g.m.Defer(resend)
		}))
	} else {
		g.sendFree, st.next = st.next, nil
	}
	st.method = method
	st.items = append(st.items[:0], items...)
	st.req.Items = st.items
	for i := range st.items {
		put(&g.outstanding, st.items[i].UID, st)
	}
	return st
}

// acknowledged takes a send whose last op has appeared in the sequenced
// stream off its timer and, if nothing else can refer to it (see
// sendState), back to the free list.
func (g *Member) acknowledged(st *sendState) {
	if st.timed {
		st.timer.Cancel()
	}
	if !st.fresh {
		return
	}
	clear(st.items)
	st.req, st.retries, st.cycles, st.fresh, st.timed = reqMsg{}, 0, 0, false, false
	if poison { // a frame that still shares the record asks for an op nobody sent
		st.items[0] = item{UID: -1, Src: 1 << 30, SrcSeq: -1, Msg: Msg{Kind: "group: released send"}}
		st.req.Items = st.items[:1]
	}
	st.next, g.sendFree = g.sendFree, st
}

// transmit performs one send attempt for an outstanding send. Only the
// still-outstanding ops travel; a retransmission after a partial
// acknowledgment shrinks the frame.
func (g *Member) transmit(st *sendState) {
	n, payload := 0, 0
	for i := range st.items {
		if g.outstanding[st.items[i].UID] == st {
			n++
			payload += st.items[i].Size
		}
	}
	if n == 0 {
		return
	}
	st.fresh = false // unless this is the first sending: see flushSend
	// The frame shares the send's own item array and body (nobody
	// mutates them; a BB data frame is the same body under its own type)
	// unless some ops have already been acknowledged.
	live, req := st.items, &st.req
	if n < len(live) {
		live = make([]item, 0, n)
		for i := range st.items {
			if g.outstanding[st.items[i].UID] == st {
				live = append(live, st.items[i])
			}
		}
		req = &reqMsg{Items: live}
	}
	if st.method == ForcePB {
		g.send(g.seqNode, "grp-req", req, frameSize(n, payload))
		return
	}
	// BB: the sender will not hear its own frame, so it stashes the data
	// it broadcasts.
	for i := range live {
		put(&g.pendingBB, live[i].UID, &live[i])
	}
	g.cast("grp-bb-data", (*bbDataMsg)(req), frameSize(n, payload))
}

// armSenderTimer schedules retransmission for st until it is
// acknowledged by appearing in the sequenced stream. Under consensus
// each completed retry cycle doubles the period (up to 16x): during a
// long leaderless window every member's whole outstanding set
// retransmitting at the base period is by itself enough to saturate
// the wire, and recovery needs that bandwidth for the takeover.
func (g *Member) armSenderTimer(st *sendState) {
	period := g.cfg.SenderTimeout
	if g.cfg.Protocol == Consensus {
		period <<= uint(min(st.cycles, 4))
	}
	st.timed = true
	st.timer.Arm(period)
}

// resend is the retransmission timer's round.
func (st *sendState) resend() {
	g := st.g
	if !st.live(g) {
		return
	}
	st.retries++
	// Consensus suspects one retry earlier than the elected
	// protocol: a wrong suspicion there costs a pnacked prepare
	// (the stickiness window protects a live leader), not a view
	// teardown, so the cheaper failure mode buys faster detection.
	limit := g.cfg.SenderRetries
	if g.cfg.Protocol == Consensus && limit > 1 {
		limit--
	}
	if st.retries > limit {
		if g.cfg.Protocol != Consensus && g.seqAlive > 0 && g.now()-g.seqAlive < g.stickWindow() {
			// Deliveries are advancing, so the sequencer is alive and
			// this op is stuck behind its backlog (typical right after
			// a view change re-kicks every member's outstanding set).
			// A real crash stops all deliveries well before the retry
			// budget runs out, so crash suspicion is not delayed.
			st.retries = 0
			g.armSenderTimer(st)
			return
		}
		g.m.Env().Tracef("node%d: sequencer %d suspected dead (uid %d)", g.m.ID(), g.seqNode, st.items[0].UID)
		g.suspectSequencer()
		// Re-arm: the message is still outstanding and will be
		// retransmitted to the new sequencer once elected.
		g.call(func() {
			st.retries = 0
			st.cycles++
			g.armSenderTimer(st)
		})
		return
	}
	g.stats.Retransmits++
	g.transmit(st)
	g.later(effect{kind: fxArmSender, on: st})
}

// resetSeqTables gives a member that starts sequencing empty per-source
// dedup windows and no member's status, making its sequencer tables the
// first time: a member that never sequences holds none.
func (g *Member) resetSeqTables() {
	if n := len(g.cfg.Members); g.statuses == nil {
		g.statuses, g.seenBySrc = make([]int64, n), make([]*seqRing[int64], n)
		if g.cfg.Protocol == Consensus {
			g.acked = make([]int64, n)
		}
	}
	clear(g.seenBySrc)
	for i := range g.statuses {
		g.statuses[i] = -1
	}
	g.trimMin, g.trimOwn, g.trimmed = -1, false, 0
}

// recordHistory stores a sequenced message in the sequencer's history
// ring (which drops its oldest entry beyond historyMax) and the
// per-source dedup window.
func (g *Member) recordHistory(d *dataMsg) {
	g.history.set(d.Seq, d)
	g.noteSeen(d.Src, d.SrcSeq, d.Seq)
}

// trimHistory drops history entries all members have delivered, and
// this member's cached records with them: the trim point is one past the
// lowest delivered number any live member reported, or past this
// member's own if that is lower. It is an O(members) scan, so callers
// gate it on the possibility that the minimum actually advanced (see
// noteStatus); the trim itself touches exactly the dropped entries.
func (g *Member) trimHistory() {
	low, at := int64(1<<62-1), 0
	g.trimScans++
	g.trimDown = g.m.Net().Downs()
	for i, id := range g.cfg.Members {
		if id == g.m.ID() || g.m.Net().Down(id) {
			continue // crashed members never report; don't stall
		}
		switch s := g.statuses[i]; {
		case s < 0:
			g.trimMin = -1
			return // no report yet; cannot trim
		case s < low:
			low, at = s, 1
		case s == low:
			at++
		}
	}
	own := g.nextSeq - 1
	g.trimMin, g.trimAtMin, g.trimOwn = low, at, own < low
	g.trimmed = max(g.trimmed, min(low, own)+1)
	g.history.advanceTo(g.trimmed)
	g.cache.trim(g.trimmed)
}

// noteStatus records a member's delivery progress and re-trims when
// the minimum may have advanced: when the member had not reported
// before, the last member the last scan found at its minimum reports
// past it, a report falls below it, a machine went down since, or the
// scan was limited by this sequencer's own progress. Members report at
// the same delivered counts, so the O(members) scan runs about once per
// reporting round, on the round's last report, and the trim points are
// those a scan of every report would find.
func (g *Member) noteStatus(node int, delivered int64) {
	idx := g.srcIdx(node)
	if idx < 0 || !g.isSeq {
		return // a new sequencer starts from no status (resetSeqTables)
	}
	old := g.statuses[idx]
	g.statuses[idx] = delivered
	if old == g.trimMin && delivered > old {
		g.trimAtMin--
	}
	if old < 0 || g.trimOwn || g.m.Net().Downs() != g.trimDown || g.trimMin >= 0 && (g.trimAtMin == 0 || delivered < g.trimMin) {
		g.trimHistory()
	}
}
