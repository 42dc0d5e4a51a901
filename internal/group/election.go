package group

import (
	"cmp"
	"slices"

	"repro/internal/sim"
)

// Sequencer election. The paper: "When an application starts up on
// Amoeba, one of the machines is elected as sequencer (like a
// committee electing a chairman). If the sequencer machine
// subsequently crashes, the remaining members elect a new one."
//
// The election is a vote round over the (unreliable) broadcast medium:
// each member announces the highest sequence number it has delivered;
// after a collection window the best candidate (highest sequence, ties
// broken by lowest node id) declares itself coordinator. The winner
// rebuilds the sequencer history from its delivered-message cache, so
// it can serve retransmissions to members that are behind. Members
// that find themselves *ahead* of an announced winner trigger a fresh
// election they will win, which repairs the rare case of lost votes.

// suspectSequencer routes a failure suspicion (sender retries or gap
// stalls exhausted) to the protocol's recovery path: an election
// under the elected-sequencer protocol, a leader takeover under
// consensus.
func (g *Member) suspectSequencer() {
	if g.cfg.Protocol == Consensus {
		g.suspectLeader()
		return
	}
	g.startElection()
}

// startElection begins (or joins) a new election epoch. Only the
// elected-sequencer protocol gets here: consensus suspicion goes to
// suspectLeader, and no coordinator claim or nack is ever sent under it.
func (g *Member) startElection() {
	if g.electing && g.votedEpoch == g.epoch {
		return // already voted in the current epoch
	}
	g.epoch++
	g.beginEpoch(g.epoch)
}

// beginEpoch votes in the given epoch and arms the decision timer.
func (g *Member) beginEpoch(epoch int) {
	g.stats.Elections++
	if g.recoveryStart == 0 {
		g.recoveryStart = g.now()
	}
	g.epoch = epoch
	g.electing = true
	g.votedEpoch = epoch
	g.isSeq = false
	g.haveCoord = false
	me := electMsg{Epoch: epoch, Node: g.m.ID(), HighSeq: g.nextSeq - 1}
	g.bestCand = me
	g.m.Env().Tracef("node%d: election epoch %d, my highseq %d", g.m.ID(), epoch, me.HighSeq)
	g.cast("grp-elect", me, hdrSmall)
	g.call(g.armElectionTimer)
}

// armElectionTimer schedules the end of the vote-collection window.
// The wait is staggered by node id so members do not time out in
// lockstep, and a member that is not the expected winner waits extra
// rounds for the winner's coordination message before forcing a fresh
// epoch — otherwise synchronized timeouts outrun the coord frame and
// the election livelocks.
func (g *Member) armElectionTimer() {
	g.electRounds = 0
	g.arm(&g.electTimer, g.electionWait(), (*Member).electionRound)
}

// electionWait is the vote-collection window, staggered by node id.
func (g *Member) electionWait() sim.Time {
	return g.cfg.ElectionWait + sim.Time(g.m.ID())*g.cfg.ElectionWait/16
}

// electionRound ends a vote-collection window.
func (g *Member) electionRound() {
	if !g.electing {
		return
	}
	if g.bestCand.Node == g.m.ID() {
		g.becomeSequencer()
		return
	}
	g.electRounds++
	if g.electRounds < 3 {
		// Give the expected winner more time to announce.
		g.arm(&g.electTimer, g.electionWait(), (*Member).electionRound)
		return
	}
	// The expected winner never announced: try a fresh epoch.
	g.epoch++
	g.beginEpoch(g.epoch)
}

// better reports whether candidate or claimant a should win over b:
// the longer history wins, ties broken by lowest node id.
func better(a, b electMsg) bool {
	if a.HighSeq != b.HighSeq {
		return a.HighSeq > b.HighSeq
	}
	return a.Node < b.Node
}

// claim is this member's coordinator claim for the current epoch.
func (g *Member) claim() coordMsg {
	return coordMsg{Epoch: g.epoch, Node: g.m.ID(), HighSeq: g.maxSeen}
}

// onElect processes a vote.
func (g *Member) onElect(e electMsg) {
	switch {
	case e.Epoch < g.epoch:
		return // stale epoch
	case e.Epoch > g.epoch:
		// Join the newer election. The vote below is counted while ours
		// goes out: only election rounds, which wait for this one, read
		// the best candidate.
		g.beginEpoch(e.Epoch)
	case !g.electing:
		// A vote for an epoch we think has concluded. If we are the
		// sequencer of this epoch, re-announce.
		if g.isSeq {
			g.cast("grp-coord", g.claim(), hdrSmall)
		}
		return
	}
	if better(e, g.bestCand) {
		g.bestCand = e
	}
}

// becomeSequencer starts installing this member as sequencer: rebuild
// the history from the delivered cache and announce coordination. No
// sequence number is assigned until every live member has acknowledged
// the view — otherwise two members could deliver different messages
// under the same sequence number across the view change.
func (g *Member) becomeSequencer() {
	g.electing = false
	g.isSeq = true
	g.installed = false
	g.viewAcks = make(map[int]bool)
	g.seqNode = g.m.ID()
	g.maxSeen = g.nextSeq - 1 // discard knowledge of unsequenceable holes
	g.haveCoord = true
	g.lastCoord = g.claim()
	g.rebuildHistory()
	// Buffered-but-undelivered messages beyond the holes are dropped;
	// their senders will retransmit and they will be re-sequenced
	// (the per-source delivery windows suppress double delivery).
	g.buffered.reset(g.nextSeq)
	g.acceptedBB = nil
	g.m.Env().Tracef("node%d: became sequencer, epoch %d, highseq %d", g.m.ID(), g.epoch, g.maxSeen)
	g.announceView()
}

// rebuildHistory resets a new sequencer's history ring, per-source
// dedup windows and trim state from its delivered cache. The cache
// holds a contiguous window of the most recently delivered messages,
// from the last trim point this member heard on, so the ring rebase is
// exact, and every member the old sequencer counted has delivered what
// lies below it (see dropBelow).
func (g *Member) rebuildHistory() {
	g.resetSeqTables()
	lo := g.cache.lo()
	g.history.reset(min(lo, g.nextSeq))
	for s := lo; s < g.nextSeq; s++ {
		if d := g.cache.get(s); d != nil {
			g.recordHistory(d)
		}
	}
}

// announceView broadcasts the coordinator claim and re-arms until all
// live members acknowledge (coord or ack frames can be lost).
func (g *Member) announceView() {
	if !g.isSeq || g.installed {
		return
	}
	epoch := g.epoch
	g.cast("grp-coord", g.claim(), hdrSmall)
	g.call(g.checkViewInstalled)
	g.call(func() {
		if !g.installed {
			g.viewEpoch = epoch
			g.arm(&g.viewTimer, g.cfg.ElectionWait/2, (*Member).viewRound)
		}
	})
}

// viewRound re-announces a view that is still not installed.
func (g *Member) viewRound() {
	if g.isSeq && !g.installed && g.epoch == g.viewEpoch {
		g.announceView()
	}
}

// checkViewInstalled completes installation once every live member has
// acknowledged; only then does the sequencer start assigning numbers.
func (g *Member) checkViewInstalled() {
	if !g.isSeq || g.installed {
		return
	}
	for _, id := range g.cfg.Members {
		if id != g.m.ID() && !g.m.Net().Down(id) && !g.viewAcks[id] {
			return
		}
	}
	g.installed = true
	g.m.Env().Tracef("node%d: view epoch %d installed", g.m.ID(), g.epoch)
	g.kickOutstanding()
}

// onCoordAck records a member's view acknowledgement.
func (g *Member) onCoordAck(a coordAck) {
	if !g.isSeq || a.Epoch != g.epoch {
		return
	}
	g.viewAcks[a.Node] = true
	g.checkViewInstalled()
}

// onCoordNack aborts an inconsistent view claim: some member has
// delivered beyond this sequencer's history, so it must win instead.
func (g *Member) onCoordNack(n coordNack) {
	if !g.isSeq || n.Epoch < g.epoch {
		return
	}
	g.m.Env().Tracef("node%d: view nacked by %d (high %d), re-electing", g.m.ID(), n.Node, n.HighSeq)
	g.isSeq = false
	g.installed = false
	g.startElection()
}

// onCoord installs the announced winner.
//
// Large groups can produce colliding claimants: suspicion timers fire
// far enough apart that several members each conclude the same epoch
// believing they won (the rest's votes were lost or late). Each claim
// is safe — no claimant assigns sequence numbers before every live
// member acks its view — but for liveness the claims must converge,
// so members hold the best coord seen this epoch and refuse to flip
// to a worse one, and a claimant that hears a better equal-epoch
// claim yields to it rather than both re-announcing forever.
func (g *Member) onCoord(c coordMsg) {
	if c.Epoch < g.epoch {
		return
	}
	if c.HighSeq < g.nextSeq-1 {
		// We are ahead of the claimed winner (our vote must have been
		// lost). Reject the view — the winner aborts and a fresh
		// election runs, which we will win; otherwise the new
		// sequencer would reassign sequence numbers we have already
		// delivered.
		g.m.Env().Tracef("node%d: ahead of claimed winner (mine %d > %d), nacking",
			g.m.ID(), g.nextSeq-1, c.HighSeq)
		g.send(c.Node, "grp-coord-nack", coordNack{Epoch: c.Epoch, Node: g.m.ID(), HighSeq: g.nextSeq - 1}, hdrSmall)
		g.call(func() {
			if c.Epoch == g.epoch {
				// Colliding claims: the nack alone aborts this claimant; a
				// fresh epoch here would tear down an election that is
				// already converging on a better claim.
				if g.isSeq {
					g.cast("grp-coord", g.claim(), hdrSmall)
					return
				}
				if g.haveCoord && better(electMsg(g.lastCoord), electMsg(c)) {
					return
				}
			}
			g.epoch = c.Epoch
			g.startElection()
		})
		return
	}
	if c.Epoch == g.epoch {
		if g.isSeq && c.Node != g.m.ID() {
			// A colliding claimant in my own epoch: yield only to a
			// better claim; re-assert mine against a worse one.
			if mine := g.claim(); better(electMsg(mine), electMsg(c)) {
				g.cast("grp-coord", mine, hdrSmall)
				return
			}
		}
		if g.haveCoord {
			if c.Node == g.lastCoord.Node {
				// A re-announcement of the view we already follow:
				// refresh the ack (the first may have been lost) without
				// re-kicking every outstanding op onto the wire.
				g.ackView(c)
				return
			}
			if !better(electMsg(c), electMsg(g.lastCoord)) {
				return // worse than the claimant we already follow
			}
		}
	}
	g.epoch = c.Epoch
	g.haveCoord, g.lastCoord = true, c
	g.electing = false
	if g.electTimer != nil {
		g.electTimer.Cancel()
	}
	g.seqNode = c.Node
	g.isSeq = c.Node == g.m.ID()
	// Drop buffered sequence numbers the new sequencer does not know;
	// their senders will resubmit them for re-sequencing.
	g.buffered.clearAbove(c.HighSeq)
	for s := range g.acceptedBB {
		if s > c.HighSeq {
			delete(g.acceptedBB, s)
		}
	}
	g.maxSeen = c.HighSeq
	// Acknowledge the view; the sequencer serves nothing until all
	// live members have.
	g.ackView(c)
	g.call(func() {
		if g.nextSeq <= g.maxSeen {
			g.armGapTimer()
		}
		g.kickOutstanding()
	})
}

// ackView acknowledges claimant c's view.
func (g *Member) ackView(c coordMsg) {
	g.send(c.Node, "grp-coord-ack", coordAck{Epoch: c.Epoch, Node: g.m.ID()}, hdrSmall)
}

// kickOutstanding retransmits every unacknowledged broadcast to the
// (possibly new) sequencer, in uid (submission) order, each once the
// last one's frame has gone out: outstanding is a map, and iterating it
// directly would retransmit — and therefore sequence — concurrent
// messages in a random order, breaking run determinism.
func (g *Member) kickOutstanding() {
	// Split multi-op sends into one-op sends first: framing is not
	// preserved across a view change, and per-op states keep the
	// re-submission below uniform. Replacing map values is
	// order-independent, so iterating the map here cannot perturb
	// determinism (nothing transmits during the split).
	for _, st := range g.outstanding {
		if len(st.items) == 1 {
			continue
		}
		st.timer.Cancel()
		st.timed = false
		for i := range st.items {
			if it := st.items[i]; g.outstanding[it.UID] == st {
				g.newSend(st.items[i:i+1], g.resolveMethod(frameSize(1, it.Size)))
			}
		}
	}
	sts := make([]*sendState, 0, len(g.outstanding))
	for _, st := range g.outstanding {
		sts = append(sts, st)
	}
	slices.SortFunc(sts, func(a, b *sendState) int { return cmp.Compare(a.items[0].UID, b.items[0].UID) })
	g.each(len(sts), func(i int) {
		st := sts[i]
		st.retries = 0
		if g.isSeq && g.installed {
			// The sequencer moved to us: sequence our own op directly,
			// unless a previous view already did.
			st.timer.Cancel()
			it := st.items[0]
			delete(g.outstanding, it.UID)
			if _, dup := g.seenSeq(it.Src, it.SrcSeq); !dup {
				g.emit(st.items, false)
			}
			return
		}
		g.stats.Retransmits++
		g.transmit(st)
		g.call(func() {
			if !st.timed {
				// A send split off above: it needs its own retransmission
				// timer, or a lost grp-req strands the op. Armed here, in
				// uid order, not in the map-order split loop.
				g.armSenderTimer(st)
			}
		})
	})
}
