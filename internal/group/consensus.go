package group

// Consensus-backed sequencing (Config.Protocol == Consensus): a
// replicated total-order log that survives sequencer loss without an
// election stall.
//
// The elected-sequencer protocol delivers a slot the moment the
// sequencer's data frame arrives, so a sequencer crash loses the
// undelivered tail and every broadcast stalls for a full
// vote-collection election. Here the leader instead runs one
// single-decree Paxos instance per sequence number:
//
//   - The leader assigns slots exactly like the sequencer (the same
//     sequence/history/dedup machinery) but broadcasts a proposal
//     frame (grp-prop) instead of sequenced data. A packed batch
//     travels as one multi-slot proposal, accepted atomically per
//     member, which keeps More frame boundaries stable across
//     re-proposal.
//   - Members accept proposals into an acceptor log and acknowledge
//     with their cumulative contiguous accepted prefix (grp-pacc).
//     Cumulative prefixes make acks idempotent: retransmitted
//     proposals or reordered acks cannot double-count.
//   - When a majority's prefixes cover a slot the leader commits it:
//     it delivers locally and broadcasts the new commit watermark
//     (grp-pcmt, also piggybacked on later proposals and heartbeats).
//     A member delivers an accepted slot when a commit covers it AND
//     the slot was accepted under the committing ballot; otherwise
//     the slot is a gap and the ordinary retransmission machinery
//     fetches the chosen value — the leader only ever serves
//     committed slots as direct data.
//
// Leader loss: suspicion reuses the sender-retry and gap-stall paths,
// but instead of an election the members run a deterministic takeover
// ladder — the first live member after the leader in membership order
// acts immediately, later ranks back off by rank*2*ProposeTimeout
// plus a hash-of-(node,ballot) jitter, so re-runs of one seed take
// over in the same order with no wall clock and no extra rand draws.
// The candidate prepares a fresh ballot it owns (member i owns
// ballots b with (b-1) mod n == i), collects a majority of promises
// carrying accepted entries, adopts the highest-ballot value per slot
// (holes become noop fillers that occupy the slot but never surface),
// truncates any More boundary whose successor was noop-filled, and
// re-proposes the whole uncommitted tail under its ballot. Everything
// a quorum accepted survives verbatim; the stall is one re-proposal
// round trip, not an election window.
//
// Determinism notes: no wall clocks, no env.Rand() draws — every
// timer is a fixed Config duration and the only "randomness" is a
// splitmix64 hash of (node id, ballot). Nothing iterates a Go map on
// a path that transmits (promise merges go to a map but the finalize
// walks slot indices in order).

import (
	"slices"

	"repro/internal/sim"
)

// noopKind marks a consensus noop filler (Src -1): a slot chosen to
// carry nothing, filling a hole left by a crashed leader.
const noopKind = "grp-noop"

// balChosen is the ballot promises report for slots this member has
// already delivered. Delivered slots are chosen — decided forever —
// so they must outrank any merely-accepted value in the takeover
// merge: a candidate that missed the deciding round may hold a stale
// accepted value under a higher ballot than the one that won, and
// re-proposing that value would split the log.
const balChosen = int64(1)<<62 - 1

// accSlot is one acceptor-log entry: the highest-ballot value
// accepted for a slot. The zero value means "nothing accepted".
type accSlot struct {
	bal int64
	d   *dataMsg
}

// Consensus wire bodies (all on the "grp" port).
type (
	// propMsg proposes values for the slots Ds occupy (whole records
	// travel, so More flags survive re-proposal verbatim), and
	// piggybacks the proposer's commit watermark.
	propMsg struct {
		Ballot int64
		Commit int64
		Ds     []*dataMsg
	}
	// paccMsg acknowledges proposals: AccUpTo is the member's
	// cumulative contiguous accepted prefix under Ballot.
	paccMsg struct {
		Ballot  int64
		Node    int
		AccUpTo int64
	}
	// pcmtMsg announces that every slot up to UpTo is chosen; all
	// slots in the newly covered range were proposed under Ballot.
	pcmtMsg struct {
		Ballot int64
		UpTo   int64
	}
	// pnackMsg tells a stale proposer which ballot the member has
	// promised.
	pnackMsg struct {
		Promised int64
		Node     int
	}
	// prepMsg opens a takeover: the candidate asks for promises and
	// for accepted entries at slots >= From. Known summarizes the
	// values the candidate already holds, so members answer with
	// votes instead of redundant copies of the same tail: without it,
	// every member of a large group re-sends the whole uncommitted
	// tail on every prepare — megabytes per round on a shared wire
	// whose congestion is what the takeover is trying to outrun.
	prepMsg struct {
		Ballot int64
		From   int64
		Node   int
		Known  []balRange
	}
	// balRange says the prepare's sender already holds a value
	// accepted at ballot Bal for every slot in [From, To]. A member
	// whose own entry for such a slot has ballot <= Bal omits it from
	// the promise: an equal-ballot entry is the same value (ballots
	// have unique owners, and a ballot proposes one value per slot),
	// and a lower-ballot entry loses the merge anyway.
	balRange struct {
		From, To, Bal int64
	}
	// promSlot reports one accepted entry (the slot is D.Seq).
	promSlot struct {
		Bal int64
		D   *dataMsg
	}
	// promMsg is a member's promise for a takeover ballot.
	promMsg struct {
		Ballot int64
		Node   int
		Commit int64
		Slots  []promSlot
	}
)

// knownBal returns the ballot a prepare's Known summary claims for a
// slot, or 0 if the summary does not cover it. Summaries are a handful
// of ranges, so a linear scan is fine.
func knownBal(known []balRange, slot int64) int64 {
	for _, r := range known {
		if slot >= r.From && slot <= r.To {
			return r.Bal
		}
	}
	return 0
}

// takeoverState is one in-flight prepare round.
type takeoverState struct {
	ballot  int64
	from    int64              // first slot values are needed for
	maxSlot int64              // highest slot any promise reported
	acks    map[int]bool       // members that promised (incl. self)
	slots   map[int64]promSlot // slot -> highest-ballot reported value
	tries   int                // re-prepare rounds (exponential backoff)
	timer   timer              // the re-prepare deadline (see armTakeoverTimer)
}

// mix64 is the splitmix64 finalizer: the deterministic jitter source
// for the takeover backoff ladder.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// quorum is the majority of the full configured membership.
func (g *Member) quorum() int { return len(g.cfg.Members)/2 + 1 }

// myIdx is this member's dense index in cfg.Members.
func (g *Member) myIdx() int { return g.srcIdx(g.m.ID()) }

// nextOwnBallot returns the smallest ballot strictly above min that
// this member owns: member i owns ballots b with (b-1) mod n == i, so
// competing candidates can never collide on a ballot number.
func (g *Member) nextOwnBallot(min int64) int64 {
	n := int64(len(g.cfg.Members))
	b := int64(g.myIdx()) + 1
	if b <= min {
		b += ((min-b)/n + 1) * n
	}
	return b
}

// advanceAccPrefix extends the contiguous accepted prefix: delivered
// slots count unconditionally (they are chosen), undelivered ones
// only under the currently promised ballot.
func (g *Member) advanceAccPrefix() {
	g.accPrefix = max(g.accPrefix, g.nextSeq-1)
	for {
		a := g.accepted.get(g.accPrefix + 1)
		if a.d == nil || a.bal != g.promised {
			return
		}
		g.accPrefix++
	}
}

// adoptBallot promises a higher ballot: a leading member steps down,
// an in-flight lower-ballot takeover aborts, and the accepted prefix
// rebases onto the new ballot.
func (g *Member) adoptBallot(b int64) {
	if b <= g.promised {
		return
	}
	g.promised = b
	if g.takeover != nil && b > g.takeover.ballot {
		g.abortTakeover()
	}
	if g.isSeq && b > g.ballot {
		g.stepDown()
	}
	g.call(func() {
		g.accPrefix = g.nextSeq - 1
		g.advanceAccPrefix()
	})
}

// ---------------------------------------------------------------------
// Leader: propose, commit, re-propose.

// propose broadcasts freshly assigned slots (already sequenced and
// recorded in history by the caller) as one proposal frame. The
// leader accepts its own proposal immediately — it is one member of
// the quorum.
func (g *Member) propose(ds []*dataMsg) {
	for _, d := range ds {
		g.accepted.set(d.Seq, accSlot{bal: g.ballot, d: d})
	}
	if g.promised < g.ballot {
		g.promised = g.ballot
	}
	if idx := g.myIdx(); idx >= 0 {
		g.acked[idx] = g.maxSeen
	}
	g.broadcastProp(ds)
	g.later(effect{kind: fxTryCommit})
	g.later(effect{kind: fxArmProp})
}

// broadcastProp sends one proposal frame under the current ballot.
func (g *Member) broadcastProp(ds []*dataMsg) {
	size := 0
	for _, d := range ds {
		size += d.Size + hdrItem
	}
	g.cast("grp-prop", g.carve().props.Add(propMsg{Ballot: g.ballot, Commit: g.committed, Ds: ds}), size+hdrData)
}

// armPropTimer re-proposes assigned-but-unchosen slots until a quorum
// accepts them: proposal or ack frames may be lost, and this timer is
// the only retransmission path for uncommitted slots. Consecutive
// rounds without commit progress back off exponentially (up to 16x):
// a large uncommitted tail re-broadcast at the base period is itself
// enough to saturate the wire, which is exactly the condition that
// keeps the tail from committing.
func (g *Member) armPropTimer() {
	if g.propOn {
		return
	}
	g.propOn = true
	g.arm(&g.propTimer, g.cfg.ProposeTimeout<<g.propBackoff, (*Member).reproposeRound)
}

// reproposeRound is the re-propose deadline's round.
func (g *Member) reproposeRound() {
	g.propOn = false
	if !g.isSeq || g.cfg.Protocol != Consensus || g.committed >= g.maxSeen {
		return
	}
	if g.committed == g.propLastCmt {
		if g.propBackoff < 4 {
			g.propBackoff++
		}
	} else {
		g.propBackoff = 0
	}
	g.propLastCmt = g.committed
	g.reproposeUncommitted(g.committed + 1)
	g.later(effect{kind: fxArmProp})
}

// reproposeUncommitted re-broadcasts every uncommitted slot from s on
// out of history under the current ballot, in frames of up to 32 slots,
// each once the last one has gone out.
func (g *Member) reproposeUncommitted(s int64) {
	var ds []*dataMsg
	for ; s <= g.maxSeen && len(ds) < 32; s++ {
		// Uncommitted slots cannot have been trimmed (trimming stops
		// at the minimum delivered, which never exceeds committed).
		if d := g.history.get(s); d != nil {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return
	}
	g.stats.Reproposals += int64(len(ds))
	g.stats.Retransmits++
	g.broadcastProp(ds)
	// A full frame may have more behind it, read once it has gone out;
	// after a short one, slots sequenced meanwhile wait for the next round.
	if len(ds) == 32 {
		g.call(func() { g.reproposeUncommitted(s) })
	}
}

// tryCommit advances the commit watermark to the quorum floor: the
// quorum-th largest cumulative accepted prefix.
func (g *Member) tryCommit() {
	g.ackScratch = append(g.ackScratch[:0], g.acked...)
	slices.Sort(g.ackScratch)
	floor := min(g.ackScratch[len(g.ackScratch)-g.quorum()], g.maxSeen)
	if floor > g.committed {
		g.advanceCommit(floor)
	}
}

// advanceCommit commits (committed, upTo], announces the watermark,
// and delivers the newly chosen slots locally. The announcement runs
// through the same leading-edge throttle as member acks: later
// proposals piggyback the watermark anyway, so under load one
// trailing pcmt per window is enough — but a lone op still commits
// at its members with no added latency.
func (g *Member) advanceCommit(upTo int64) {
	from := g.committed + 1
	g.committed = upTo
	g.propBackoff = 0 // progress: restore the fast re-propose deadline
	if g.cmtOn {
		g.cmtPending = true
	} else {
		g.announceCommit()
		g.later(effect{kind: fxArmCommit}) // a refractory window opens
	}
	for s := from; s <= upTo; s++ {
		if d := g.history.get(s); d != nil {
			g.later(effect{kind: fxProcess, on: d})
		}
	}
}

// commitRound closes the commit announcement's refractory window (see
// fxArmCommit): the commits inside it are announced once, now, and the
// next window opens.
func (g *Member) commitRound() {
	g.cmtOn = false
	if g.cmtPending && g.isSeq {
		g.cmtPending = false
		g.announceCommit()
		g.later(effect{kind: fxArmCommit})
	}
}

// announceCommit broadcasts the current commit watermark.
func (g *Member) announceCommit() {
	g.cast("grp-pcmt", g.carve().commits.Add(pcmtMsg{Ballot: g.ballot, UpTo: g.committed}), hdrSmall)
}

// stepDown demotes a deposed leader to a plain member. Its own
// assigned-but-unchosen ops re-enter the sender path — the new leader
// may never have seen them — while other members' ops are re-sent by
// their own retransmission timers.
func (g *Member) stepDown() {
	if !g.isSeq {
		return
	}
	g.isSeq = false
	g.ballot = 0
	if g.propOn {
		g.propTimer.Cancel()
		g.propOn = false
	}
	g.flush(&g.pack) // queued own ops re-enter the sender path too
	g.call(func() {
		hi, from := g.maxSeen, g.committed+1
		g.maxSeen = g.committed // assigned-but-unchosen slots are void
		g.each(int(hi-from+1), func(i int) {
			d := g.history.get(from + int64(i))
			if d == nil || d.Src != g.m.ID() || g.outstanding[d.UID] != nil {
				return
			}
			st := g.newSend([]item{d.item}, ForcePB)
			g.stats.Retransmits++
			g.transmit(st)
			g.later(effect{kind: fxArmSender, on: st})
		})
	})
}

// ---------------------------------------------------------------------
// Acceptor: proposals, commits, nacks.

// onPropose accepts a proposal frame at a member.
func (g *Member) onPropose(from int, m *propMsg) {
	if m.Ballot < g.promised {
		g.pnack(from)
		return
	}
	g.seqNode = from
	g.leaderSeen = g.now()
	g.adoptBallot(m.Ballot)
	g.later(effect{kind: fxAcceptProp, on: m})
}

// acceptProp accepts a proposal's slots once its ballot is adopted.
func (g *Member) acceptProp(m *propMsg) {
	for _, d := range m.Ds {
		if d.Seq < g.nextSeq {
			continue // already delivered: chosen values never regress
		}
		g.accepted.set(d.Seq, accSlot{bal: m.Ballot, d: d})
	}
	g.advanceAccPrefix()
	g.applyCommit(m.Ballot, m.Commit)
	g.later(effect{kind: fxAck})
}

// pnack tells a stale proposer or candidate the ballot this member has
// promised.
func (g *Member) pnack(to int) {
	g.send(to, "grp-pnack", pnackMsg{Promised: g.promised, Node: g.m.ID()}, hdrSmall)
}

// coalesceDelay is the refractory window of the ack and
// commit-announce throttles.
func (g *Member) coalesceDelay() sim.Time {
	if d := g.cfg.ProposeTimeout / 8; d > 0 {
		return d
	}
	return sim.Millisecond
}

// scheduleAck acknowledges the accepted prefix to the leader with a
// leading-edge throttle: an idle member acks immediately (no latency
// tax on a lone op), a member inside the refractory window coalesces
// every further proposal into one trailing ack. Without this, P-1
// ack unicasts per op saturate the wire at large P.
func (g *Member) scheduleAck() {
	if g.ackOn {
		g.ackPending = true
		return
	}
	g.sendAck()
	g.later(effect{kind: fxArmAck}) // a refractory window opens
}

// ackRound closes the ack throttle's refractory window (see fxArmAck):
// the proposals inside it are acknowledged once, now, and the next
// window opens.
func (g *Member) ackRound() {
	g.ackOn = false
	if g.ackPending && !g.isSeq {
		g.ackPending = false
		g.sendAck()
		g.later(effect{kind: fxArmAck})
	}
}

// sendAck reports the cumulative accepted prefix under the currently
// promised ballot.
func (g *Member) sendAck() {
	g.send(g.seqNode, "grp-pacc", g.carve().acks.Add(paccMsg{Ballot: g.promised, Node: g.m.ID(), AccUpTo: g.accPrefix}), hdrSmall)
}

// onPAcc records a member's accepted prefix at the leader.
func (g *Member) onPAcc(m *paccMsg) {
	if !g.isSeq || m.Ballot != g.ballot {
		return
	}
	idx := g.srcIdx(m.Node)
	if idx < 0 || m.AccUpTo <= g.acked[idx] {
		return
	}
	g.acked[idx] = m.AccUpTo
	g.tryCommit()
}

// onPcmt applies a commit watermark at a member.
func (g *Member) onPcmt(from int, m *pcmtMsg) {
	if m.Ballot >= g.promised {
		g.seqNode = from
		g.leaderSeen = g.now()
	}
	// Even a deposed leader's commit is truthful — it counted a real
	// quorum for its ballot — so the watermark applies regardless, after
	// the ballot is adopted if it is new (adoptBallot ignores any other).
	g.adoptBallot(m.Ballot)
	g.later(effect{kind: fxCommit, on: m})
}

// applyCommit learns that slots up to upTo are chosen and delivers
// the accepted entries that match the committing ballot; mismatched
// or missing slots become gaps the retransmission machinery fills
// with the chosen values out of the leader's history.
func (g *Member) applyCommit(ballot, upTo int64) {
	g.committed = max(g.committed, upTo)
	if g.takeover != nil && g.committed >= g.takeover.from {
		// The stalled slot that justified this takeover has been chosen
		// by someone else's quorum: the premise is gone, stand down.
		g.abortTakeover()
	}
	if !g.isSeq && upTo > g.maxSeen {
		g.maxSeen = upTo
	}
	for s := g.nextSeq; s <= upTo; s++ {
		if a := g.accepted.get(s); a.d != nil && a.bal == ballot {
			g.later(effect{kind: fxProcess, on: a.d})
		}
	}
	g.later(effect{kind: fxGapCheck})
}

// onPNack reacts to a "promised higher" rejection: a stale leader
// steps down, a stale takeover aborts. The next suspicion re-enters
// the ladder with a fresher ballot.
func (g *Member) onPNack(m pnackMsg) {
	if g.takeover != nil && m.Promised > g.takeover.ballot {
		g.abortTakeover()
	}
	g.adoptBallot(m.Promised)
}

// ---------------------------------------------------------------------
// Failure handling: suspicion ladder and takeover.

// suspectLeader is the consensus counterpart of startElection. The
// first live member after the suspected leader in membership order
// takes over immediately; everyone else arms a rank-proportional
// backoff and stands down if progress resumes first.
func (g *Member) suspectLeader() {
	if g.cfg.Protocol != Consensus || g.isSeq || g.takeover != nil || g.suspOn {
		return
	}
	if g.leaderSeen > 0 && g.now()-g.leaderSeen < g.stickWindow() {
		// The leader showed life inside the stickiness window: an
		// undelivered op means backlog, not death. The sender and gap
		// timers re-raise the suspicion if the silence grows.
		return
	}
	if g.recoveryStart == 0 {
		g.recoveryStart = g.now()
	}
	// Escalate when suspicion rounds come and go without a single
	// delivery: each fruitless round pushes the next takeover attempt
	// further out, so competing candidates cannot keep deposing each
	// other faster than a winner can commit (a war of instant rank-0
	// takeovers is self-sustaining once the wire is congested).
	if g.nextSeq != g.suspMark {
		g.suspRounds = 0
	}
	g.suspMark = g.nextSeq
	round := min(g.suspRounds, 4)
	g.suspRounds++
	rank := g.successorRank()
	if rank == 0 && round == 0 {
		g.startTakeover()
		return
	}
	escalate := sim.Time((int64(1)<<round)-1) * 2 // 0, 2, 6, 14, 30
	jitter := sim.Time(mix64(uint64(g.m.ID())<<32^uint64(g.promised+1)) % uint64(g.cfg.ProposeTimeout))
	delay := (2*sim.Time(rank)+escalate)*g.cfg.ProposeTimeout + jitter
	g.suspOn, g.suspNode, g.suspNext = true, g.seqNode, g.nextSeq
	g.arm(&g.suspTimer, delay, (*Member).suspicionRound)
}

// suspicionRound is the takeover backoff's round.
func (g *Member) suspicionRound() {
	g.suspOn = false
	if g.isSeq || g.takeover != nil {
		return
	}
	if g.seqNode != g.suspNode || g.nextSeq != g.suspNext {
		return // progress or a new leader appeared: stand down
	}
	g.startTakeover()
}

// successorRank returns this member's position in the takeover
// ladder: 0 for the first live member after the suspected leader in
// cyclic membership order.
func (g *Member) successorRank() int {
	n := len(g.cfg.Members)
	start := 0
	if idx := g.srcIdx(g.seqNode); idx >= 0 {
		start = idx
	}
	rank := 0
	for off := 1; off <= n; off++ {
		id := g.cfg.Members[(start+off)%n]
		if id == g.seqNode || g.m.Net().Down(id) {
			continue
		}
		if id == g.m.ID() {
			return rank
		}
		rank++
	}
	return rank
}

// startTakeover opens a prepare round under a fresh ballot this
// member owns.
func (g *Member) startTakeover() {
	if g.takeover != nil || g.isSeq {
		return
	}
	if g.recoveryStart == 0 {
		g.recoveryStart = g.now()
	}
	b := g.nextOwnBallot(g.promised)
	g.promised = b
	t := &takeoverState{
		ballot:  b,
		from:    g.nextSeq,
		maxSlot: g.nextSeq - 1,
		acks:    map[int]bool{g.m.ID(): true},
		slots:   make(map[int64]promSlot),
	}
	t.timer.g, t.timer.round = g, func(g *Member) { g.retryTakeover(t) }
	t.timer.Init(g.m, &t.timer)
	g.takeover = t
	g.mergePromise(t, promMsg{Ballot: b, Node: g.m.ID(), Slots: g.promiseSlots(t.from)})
	g.m.Env().Tracef("node%d: consensus takeover, ballot %d from slot %d", g.m.ID(), b, t.from)
	g.broadcastPrep()
	g.call(func() {
		g.armTakeoverTimer()
		g.checkTakeover() // a single-member group is its own quorum
	})
}

// knownRanges compresses the takeover's per-slot knowledge into
// equal-ballot runs for the prepare's Known summary. Accepted tails
// are long runs under one leader's ballot, so this is almost always
// one or two ranges; re-prepares rebuild it from the freshly merged
// state, soliciting strictly less each round.
func (g *Member) knownRanges(t *takeoverState) []balRange {
	var out []balRange
	for s := t.from; s <= t.maxSlot; s++ {
		ps, ok := t.slots[s]
		if !ok {
			continue
		}
		if n := len(out); n > 0 && out[n-1].To == s-1 && out[n-1].Bal == ps.Bal {
			out[n-1].To = s
			continue
		}
		out = append(out, balRange{From: s, To: s, Bal: ps.Bal})
	}
	return out
}

// broadcastPrep (re-)announces the in-flight prepare.
func (g *Member) broadcastPrep() {
	t := g.takeover
	known := g.knownRanges(t)
	g.cast("grp-prep", prepMsg{Ballot: t.ballot, From: t.from, Node: g.m.ID(), Known: known}, hdrSmall+len(known)*3*8)
}

// armTakeoverTimer retries the prepare until a quorum promises or a
// higher ballot aborts it (promises are idempotent, so re-asking is
// safe under loss or partition). Retries back off exponentially: each
// re-prepare solicits a full set of promise replies, which carry the
// members' accepted tails and are the heaviest frames the protocol
// sends.
func (g *Member) armTakeoverTimer() {
	g.takeover.timer.Arm(2 * g.cfg.ProposeTimeout << uint(min(g.takeover.tries, 4)))
}

// retryTakeover is the round of t's re-prepare deadline.
func (g *Member) retryTakeover(t *takeoverState) {
	if g.takeover != t {
		return
	}
	t.tries++
	g.stats.Retransmits++
	g.broadcastPrep()
	g.call(g.armTakeoverTimer)
}

// abortTakeover drops the in-flight prepare round.
func (g *Member) abortTakeover() {
	t := g.takeover
	g.takeover = nil
	if t != nil {
		t.timer.Cancel()
	}
}

// promiseSlots collects this member's knowledge of slots >= from:
// delivered slots out of the cache (chosen, reported at balChosen so
// nothing outranks them) and accepted-but-undelivered entries with
// their real ballots. A slot older than the cache window cannot be
// reported — the same bounded-recovery caveat as the election path's
// history rebuild (see DESIGN.md); one below the trim point need not
// be, as from is the candidate's next delivery (see dropBelow).
func (g *Member) promiseSlots(from int64) []promSlot {
	var out []promSlot
	for s := from; s < g.nextSeq; s++ {
		d := g.cache.get(s)
		if d == nil {
			d = g.accepted.get(s).d
		}
		if d != nil {
			out = append(out, promSlot{Bal: balChosen, D: d})
		}
	}
	for s := max(g.nextSeq, g.accepted.lo); s < g.accepted.hi; s++ {
		if a := g.accepted.get(s); a.d != nil {
			out = append(out, promSlot{Bal: a.bal, D: a.d})
		}
	}
	return out
}

// stickWindow is how recently the current leader (leaderSeen, under
// consensus) or sequencer (seqAlive delivery progress, under the
// elected protocol) must have shown life for this member to refuse
// deposing it. It sits between the sign-of-life period of a healthy
// leader (commit announcements every coalesceDelay; a draining
// sequencer delivers continuously) and the silence a real crash
// produces before suspicion fires (SenderRetries+1 sender timeouts),
// so a live leader is protected and a dead one is replaced without
// extra delay.
func (g *Member) stickWindow() sim.Time { return 2 * g.cfg.SenderTimeout }

// onPrep answers a prepare: promise (and report accepted entries) or
// nack a stale ballot.
func (g *Member) onPrep(from int, m prepMsg) {
	if m.Ballot < g.promised || m.Node != g.seqNode && g.leaderSeen > 0 && g.now()-g.leaderSeen < g.stickWindow() {
		// A stale ballot, or the leader we follow is demonstrably alive:
		// refuse to help depose it. The pnack carries our (lower)
		// promised ballot, so the candidate backs off without aborting —
		// if the leader really is stuck, the window lapses and a retry
		// succeeds.
		g.pnack(from)
		return
	}
	g.seqNode = m.Node
	g.adoptBallot(m.Ballot)
	g.call(func() {
		// Report only values the candidate's Known summary does not
		// already dominate. Equal ballot means the identical value
		// (ballots have unique owners and one value per slot), and a
		// lower ballot loses the takeover merge, so omitting those
		// entries cannot change the chosen value — it only keeps n
		// promises from shipping n copies of the same accepted tail
		// through an already-congested wire.
		all := g.promiseSlots(m.From)
		slots := all[:0]
		for _, ps := range all {
			if ps.Bal > knownBal(m.Known, ps.D.Seq) {
				slots = append(slots, ps)
			}
		}
		size := hdrSmall
		for _, ps := range slots {
			size += ps.D.Size + hdrItem
		}
		g.send(from, "grp-prom", &promMsg{Ballot: m.Ballot, Node: g.m.ID(), Commit: g.committed, Slots: slots}, size)
	})
}

// mergePromise folds one promise into the takeover state, keeping the
// highest-ballot value per slot.
func (g *Member) mergePromise(t *takeoverState, m promMsg) {
	for _, ps := range m.Slots {
		s := ps.D.Seq
		if s < t.from {
			continue
		}
		t.maxSlot = max(t.maxSlot, s)
		if cur, ok := t.slots[s]; !ok || ps.Bal > cur.Bal {
			t.slots[s] = ps
		}
	}
}

// onProm records a promise at the candidate.
func (g *Member) onProm(m *promMsg) {
	t := g.takeover
	if t == nil || m.Ballot != t.ballot || t.acks[m.Node] {
		return
	}
	t.acks[m.Node] = true
	g.mergePromise(t, *m)
	g.checkTakeover()
}

// checkTakeover finalizes once a majority has promised.
func (g *Member) checkTakeover() {
	if t := g.takeover; t != nil && len(t.acks) >= g.quorum() {
		g.finalizeTakeover()
	}
}

// finalizeTakeover installs this member as leader: choose a value for
// every slot the prepare round surfaced (noop fillers for holes),
// truncate frame boundaries broken by fillers, rebuild the sequencer
// history/dedup state like becomeSequencer, and re-propose
// the whole uncommitted tail under the new ballot. No view handshake:
// members learn the leadership from the proposals themselves.
func (g *Member) finalizeTakeover() {
	t := g.takeover
	g.takeover = nil
	t.timer.Cancel()
	if g.suspOn {
		g.suspTimer.Cancel()
		g.suspOn = false
	}
	g.stats.Takeovers++
	g.ballot = t.ballot
	g.isSeq = true
	g.installed = true
	g.seqNode = g.m.ID()
	g.electing = false
	chosen := make([]*dataMsg, 0, t.maxSlot-t.from+1)
	for s := t.from; s <= t.maxSlot; s++ {
		if ps, ok := t.slots[s]; ok {
			chosen = append(chosen, ps.D)
		} else {
			chosen = append(chosen, g.carve().recs.Add(dataMsg{Seq: s, item: item{Src: -1, Msg: Msg{Kind: noopKind}}}))
		}
	}
	// A More-flagged slot whose successor was noop-filled (or fell off
	// the end) would leave consumers waiting for the rest of the frame
	// forever: rewrite it with More unset. A slot a quorum chose
	// always has a chosen successor — proposal frames are accepted
	// atomically per member — so this can only rewrite unchosen tails.
	for i, d := range chosen {
		if d.More && (i == len(chosen)-1 || chosen[i+1].Src < 0) {
			chosen[i] = g.carve().recs.Add(*d)
			chosen[i].More = false
		}
	}
	g.rebuildHistory()
	for _, d := range chosen {
		g.recordHistory(d)
	}
	g.maxSeen = max(t.maxSlot, g.nextSeq-1)
	// The tail above our deliveries is re-committed under our ballot:
	// acks only count for the current ballot, so the watermark rebases
	// to what we have delivered ourselves.
	g.committed = g.nextSeq - 1
	g.propBackoff, g.propLastCmt = 0, g.committed
	g.buffered.reset(g.nextSeq)
	for _, d := range chosen {
		g.accepted.set(d.Seq, accSlot{bal: g.ballot, d: d})
	}
	if idx := g.myIdx(); idx >= 0 {
		clear(g.acked)
		g.acked[idx] = g.maxSeen
	}
	g.m.Env().Tracef("node%d: consensus leader, ballot %d, slots %d..%d",
		g.m.ID(), g.ballot, t.from, t.maxSlot)
	if len(chosen) == 0 {
		// Nothing outstanding: announce leadership via the watermark.
		g.announceCommit()
	}
	g.stats.Reproposals += int64(len(chosen))
	g.each((len(chosen)+31)/32, func(i int) { g.broadcastProp(chosen[32*i : min(32*i+32, len(chosen))]) })
	g.later(effect{kind: fxTryCommit})
	g.call(func() {
		g.armPropTimer()
		g.kickOutstanding()
	})
}
