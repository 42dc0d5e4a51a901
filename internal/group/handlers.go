package group

import (
	"repro/internal/amoeba"
	"repro/internal/sim"
)

// handle is the kernel port handler: it demultiplexes every group
// protocol packet. It runs in interrupt context, after interrupt and
// protocol CPU costs have been charged, as a step (see outbox): the
// kernel serves the next packet once its outbox has been issued.
func (g *Member) handle(p *sim.Proc, from int, pkt amoeba.Packet) {
	o := g.begin(p, nil)
	switch b := pkt.Body.(type) {
	case nil: // a status report is all header
		g.noteStatus(from, pkt.Obj)
	case *reqMsg:
		g.onRequest(b)
	case *dataFrame:
		// Every receiver (and the sequencer's own history) shares the
		// frame's records, which are never mutated after sequencing.
		g.dropBelow(pkt.Obj)
		g.processFrame(b.Recs)
	case *bbDataMsg:
		g.onBBData(b)
	case *acceptMsg:
		g.dropBelow(pkt.Obj)
		g.onAccept(b)
	case retxReq:
		g.onRetxReq(b)
	case electMsg:
		g.onElect(b)
	case coordMsg:
		g.onCoord(b)
	case coordAck:
		g.onCoordAck(b)
	case coordNack:
		g.onCoordNack(b)
	case *hbMsg:
		g.dropBelow(pkt.Obj)
		g.onHeartbeat(b)
	case *propMsg:
		g.onPropose(from, b)
	case *paccMsg:
		g.onPAcc(b)
	case *pcmtMsg:
		g.onPcmt(from, b)
	case pnackMsg:
		g.onPNack(b)
	case prepMsg:
		g.onPrep(from, b)
	case *promMsg:
		g.onProm(b)
	}
	o.issue()
}

// processFrame runs a frame's records through processData, each once
// whatever the one before it sent has gone out.
func (g *Member) processFrame(recs []dataMsg) {
	for i := range recs {
		g.later(effect{kind: fxProcess, on: &recs[i]})
	}
}

// onHeartbeat learns the sequencer's progress; if this member is
// behind, gap recovery kicks in.
func (g *Member) onHeartbeat(h *hbMsg) {
	if h.Epoch < g.epoch || g.electing {
		return
	}
	g.seqNode = h.Node
	g.maxSeen = max(g.maxSeen, h.HighSeq)
	if g.cfg.Protocol == Consensus {
		g.leaderSeen = g.now()
		// The heartbeat announces the leader's commit watermark:
		// everything up to it is chosen and safe to fetch.
		g.committed = max(g.committed, h.HighSeq)
	}
	if g.nextSeq <= g.maxSeen {
		g.armGapTimer()
	}
}

// reframe wraps a copy of one sequenced record as a one-op frame
// stamped with epoch, for retransmission.
func (g *Member) reframe(d *dataMsg, epoch int) *dataFrame {
	f := g.newFrame(1)
	f.Recs[0] = *d
	f.Recs[0].Epoch = epoch
	return f
}

// onRequest handles PB's RequestForBroadcast at the sequencer: each op
// dedups individually and joins the pack buffer.
func (g *Member) onRequest(r *reqMsg) {
	if !g.isSeq || !g.installed {
		return // stale or uninstalled view; the sender will retry
	}
	for i := range r.Items {
		g.later(effect{kind: fxRequest, on: &r.Items[i]})
	}
}

// requestItem handles one op of a request frame.
func (g *Member) requestItem(it *item) {
	seq, dup := g.seenSeq(it.Src, it.SrcSeq)
	if !dup {
		g.enqueue(&g.pack, *it)
		return
	}
	// Retransmitted request: rebroadcast the sequenced message so the
	// sender (and anyone else who missed it) sees it. Under consensus
	// only chosen slots may travel as direct data — an uncommitted slot
	// is covered by the re-propose timer.
	if d := g.history.get(seq); d != nil && (g.cfg.Protocol != Consensus || seq <= g.committed) {
		g.cast("grp-data", g.reframe(d, d.Epoch), frameSize(1, d.Size))
	}
}

// onBBData handles BB's data broadcast at every member, op by op.
func (g *Member) onBBData(b *bbDataMsg) {
	g.run(effect{kind: fxBBData, on: b, n: len(b.Items)})
}

// bbItem handles one op of a BB data frame.
func (g *Member) bbItem(it *item) {
	switch {
	case g.isSeq && g.installed:
		seq, dup := g.seenSeq(it.Src, it.SrcSeq)
		if !dup {
			g.enqueue(&g.acc, *it)
			return
		}
		// Retransmission: the accept may have been lost. Recover the
		// frame-boundary flag from the sequenced record so the
		// receiver reconstructs the boundary every replica saw.
		a := g.newAccept(seq, 1)
		if d := g.history.get(seq); d != nil {
			a.More = d.More
		}
		a.UIDs = append(a.UIDs, it.UID)
		g.castAccept(a)
	case g.isSeq:
		// Not installed yet: stash the data; the sender will retry.
		put(&g.pendingBB, it.UID, it)
	default:
		if seq, more, accepted := g.acceptedUID(it.UID); accepted {
			// Accept arrived before the data: complete it now.
			g.processData(g.carve().recs.Add(dataMsg{item: *it, Seq: seq, Epoch: g.epoch, More: more}))
			return
		}
		put(&g.pendingBB, it.UID, it)
	}
}

// acceptedUID reports whether an accept for uid is waiting for data,
// and takes it.
func (g *Member) acceptedUID(uid int64) (seq int64, more, ok bool) {
	for seq, a := range g.acceptedBB {
		if a.uid == uid {
			delete(g.acceptedBB, seq)
			return seq, a.more, true
		}
	}
	return 0, false, false
}

// onAccept handles BB's Accept at a non-sequencer member: UIDs[i] is
// sequenced at Seq+i.
func (g *Member) onAccept(a *acceptMsg) {
	if g.stale(a.Epoch) {
		return
	}
	g.run(effect{kind: fxAccept, on: a, n: len(a.UIDs)})
}

// acceptItem handles the accept of UIDs[i].
func (g *Member) acceptItem(a *acceptMsg, i int) {
	uid, seq := a.UIDs[i], a.Seq+int64(i)
	more := a.More || i < len(a.UIDs)-1
	if seq < g.nextSeq {
		delete(g.pendingBB, uid) // late duplicate; GC the stashed data
		return
	}
	if bb, ok := g.pendingBB[uid]; ok {
		delete(g.pendingBB, uid)
		g.processData(g.carve().recs.Add(dataMsg{item: *bb, Seq: seq, Epoch: g.epoch, More: more}))
		return
	}
	// Data frame lost: remember the accept and fetch the payload
	// from the sequencer's history via the gap machinery.
	put(&g.acceptedBB, seq, bbAccept{uid: uid, more: more})
	g.maxSeen = max(g.maxSeen, seq)
	g.armGapTimer()
}

// onRetxReq serves retransmissions out of the sequencer history, one
// unicast per sequenced record, restamped with the current epoch: history
// may hold messages sequenced under a previous view that are still part
// of the (unchanged) prefix this view vouches for.
func (g *Member) onRetxReq(r retxReq) {
	g.noteStatus(r.Node, r.Delivered)
	to := r.To
	if g.cfg.Protocol == Consensus {
		// Unchosen slots must never travel as direct data: a member
		// would deliver them without quorum backing.
		to = min(to, g.committed)
	}
	// A member that is not the sequencer serves only under consensus:
	// chosen slots are quorum-backed and immutable, so any member that
	// delivered them can serve them from its cache, and after a leader
	// death the committed log must not depend on one machine being up and
	// installed.
	cached := !g.isSeq
	if !cached {
		to = min(to, g.maxSeen)
	} else if g.cfg.Protocol != Consensus {
		return
	}
	g.each(int(to-r.From+1), func(i int) {
		d := g.history.get(r.From + int64(i))
		if cached {
			d = g.cache.get(r.From + int64(i))
		}
		if d != nil {
			g.send(r.Node, "grp-retx", g.reframe(d, g.epoch), frameSize(1, d.Size))
		}
	})
}

// stale reports whether a sequenced stream stamped epoch is a stale
// sequencer's, and adopts it if it is a newer view's.
func (g *Member) stale(epoch int) bool {
	if epoch > g.epoch {
		g.epoch, g.electing = epoch, false
	}
	return epoch < g.epoch
}

// alwaysBuffer sends every record through the out-of-order buffer. Tests
// turn it on to show that the in-order path past it changes nothing.
var alwaysBuffer bool

// processData runs the ordered-delivery core: acknowledge own sends,
// buffer out-of-order messages, deliver in strict sequence order, and
// arm gap recovery when holes remain. The record a member hears most —
// another member's, next in sequence, nothing waiting behind a hole —
// probes no table and touches no buffer on its way to deliver.
func (g *Member) processData(d *dataMsg) {
	if g.stale(d.Epoch) {
		return
	}
	if d.Src == g.m.ID() { // a uid is its sender's: nobody else has it outstanding
		if st, mine := g.outstanding[d.UID]; mine {
			delete(g.outstanding, d.UID)
			delete(g.pendingBB, d.UID)
			if !st.live(g) {
				g.acknowledged(st)
			}
		}
	}
	g.maxSeen = max(g.maxSeen, d.Seq)
	if d.Seq < g.nextSeq {
		return // duplicate
	}
	if d.Seq == g.nextSeq && g.buffered.span() == 0 && !alwaysBuffer {
		if g.deliver(d) {
			return
		}
		g.nextSeq++
	} else {
		g.buffered.advanceTo(g.nextSeq) // which the in-order path leaves behind
		g.buffered.set(d.Seq, d)
	}
	g.drain()
}

// drain delivers what the out-of-order buffer holds in sequence, and
// then gap recovery runs while holes remain. A delivery that reports
// status ends the run: the rest of it goes on once the report has gone
// out (fxDrain).
func (g *Member) drain() {
	for nd := g.buffered.get(g.nextSeq); nd != nil; nd = g.buffered.get(g.nextSeq) {
		g.buffered.del(g.nextSeq)
		if g.deliver(nd) {
			return
		}
		g.nextSeq++
		g.buffered.advanceTo(g.nextSeq)
	}
	if g.nextSeq <= g.maxSeen {
		g.armGapTimer()
	} else if g.gapOn {
		g.gapTimer.Cancel()
		g.gapOn = false
	}
}

// deliver hands one sequenced message to the application stream and
// maintains the delivered cache, per-source dedup windows, and status
// reporting. A member that is not the sequencer and is due to report
// its progress sends the report and returns true, and the delivery run
// goes on from fxDrain. Everything here is O(1) per delivery.
func (g *Member) deliver(d *dataMsg) (reported bool) {
	now := g.now()
	g.seqAlive = now
	if len(g.acceptedBB) > 0 {
		delete(g.acceptedBB, d.Seq)
	}
	if len(g.pendingBB) > 0 {
		delete(g.pendingBB, d.UID)
	}
	g.cache.set(d.Seq, d)
	if g.recoveryStart != 0 {
		g.stats.RecoveryTime += now - g.recoveryStart
		g.recoveryStart = 0
	}
	if d.Src < 0 {
		// Consensus noop filler: it occupies its slot so the log stays
		// dense, but carries nothing for the application.
		return false
	}
	// A re-sequenced duplicate after an election travels marked Dup: the
	// consumer still needs the frame boundary its sequence slot occupies
	// (a frame whose tail is a suppressed duplicate would otherwise never
	// close its per-frame sweep), but its message is never re-applied.
	dl := Delivery{d, g.dupDelivery(d.Src, d.SrcSeq)}
	if !dl.Dup {
		g.stats.Delivered++
	}
	if handedOut != nil {
		handedOut(dl)
	}
	g.outQ.Put(dl)
	if dl.Dup || g.isSeq || g.cfg.StatusEvery <= 0 || g.stats.Delivered%int64(g.cfg.StatusEvery) != 0 {
		return false
	}
	g.push(effect{kind: fxSend, dst: g.seqNode, pkt: amoeba.Packet{Port: g.port, Kind: "grp-status", Obj: g.nextSeq, Size: hdrSmall}})
	g.push(effect{kind: fxDrain})
	return true
}

// handedOut, when set, sees every delivery as deliver hands it out.
// Tests set it to check that no record changes after it was delivered.
var handedOut func(Delivery)

// armGapTimer starts periodic retransmission requests while sequence
// holes exist. Repeated stalls without progress make the member
// suspect the sequencer and call an election.
func (g *Member) armGapTimer() {
	if g.gapOn {
		return
	}
	if g.cfg.Protocol == Consensus && g.isSeq {
		// The leader's assigned-but-unchosen slots are not gaps: they
		// deliver when a quorum accepts them (see armPropTimer).
		return
	}
	g.gapNext, g.gapEpoch, g.gapStall = g.nextSeq, g.epoch, 0
	g.startGap()
}

// startGap starts the gap timer.
func (g *Member) startGap() {
	g.gapOn = true
	g.arm(&g.gapTimer, g.cfg.GapTimeout, (*Member).gapRound)
}

// gapRound is the gap timer's round.
func (g *Member) gapRound() {
	g.gapOn = false
	if g.nextSeq > g.maxSeen {
		return // caught up
	}
	if g.epoch != g.gapEpoch {
		// A new view installed since the last round: give its
		// sequencer a full suspicion window to start serving.
		// Stalls carried across the view change count the
		// election itself against the new sequencer and tear it
		// down before its first retransmission arrives.
		g.gapEpoch, g.gapStall = g.epoch, 0
	}
	if g.nextSeq == g.gapNext {
		g.gapStall++
	} else {
		g.gapNext, g.gapStall = g.nextSeq, 0
	}
	if g.gapStall > g.cfg.SenderRetries {
		g.suspectSequencer()
		g.call(func() {
			g.gapStall = 0
			g.requestGap()
		})
		return
	}
	g.requestGap()
}

// requestGap asks the sequencer for the missing sequence numbers and
// re-arms the gap timer.
func (g *Member) requestGap() {
	g.stats.GapRequests++
	to := min(g.nextSeq+31, g.maxSeen)
	g.send(g.seqNode, "grp-retx-req", retxReq{From: g.nextSeq, To: to, Node: g.m.ID(), Delivered: g.nextSeq - 1}, hdrSmall)
	g.push(effect{kind: fxArmGap})
}
