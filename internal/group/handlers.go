package group

import (
	"repro/internal/amoeba"
	"repro/internal/sim"
)

// handle is the kernel port handler: it demultiplexes every group
// protocol packet. It runs in interrupt context, after interrupt and
// protocol CPU costs have been charged, and never blocks: what follows a
// send runs in its continuation (see loop), and the kernel serves the
// next packet once the last of them has run.
func (g *Member) handle(p *sim.Proc, from int, pkt amoeba.Packet) {
	switch b := pkt.Body.(type) {
	case nil: // a status report is all header
		g.noteStatus(from, pkt.Obj)
	case *reqMsg:
		g.onRequest(p, b)
	case *dataFrame:
		// Every receiver (and the sequencer's own history) shares the
		// frame's records, which are never mutated after sequencing.
		g.frame(p, b.Recs, nop).next()
	case *bbDataMsg:
		g.onBBData(p, b)
	case *acceptMsg:
		g.onAccept(p, b)
	case retxReq:
		g.onRetxReq(p, b)
	case electMsg:
		g.onElect(p, b)
	case coordMsg:
		g.onCoord(p, b)
	case coordAck:
		g.onCoordAck(p, b)
	case coordNack:
		g.onCoordNack(p, b)
	case hbMsg:
		g.onHeartbeat(b)
	case *propMsg:
		g.onPropose(p, from, b)
	case paccMsg:
		g.onPAcc(p, b)
	case pcmtMsg:
		g.onPcmt(p, from, b)
	case pnackMsg:
		g.onPNack(p, b)
	case prepMsg:
		g.onPrep(p, from, b)
	case *promMsg:
		g.onProm(p, b)
	}
}

// frame returns the walk that runs a frame's records through
// processData and then k (see loop).
func (g *Member) frame(p *sim.Proc, recs []dataMsg, k func()) *loop {
	l := g.loop(p, len(recs), processRec, k)
	l.recs = recs
	return l
}

func processRec(l *loop, i int) { l.g.processData(l.p, &l.recs[i], l.next) }

// onHeartbeat learns the sequencer's progress; if this member is
// behind, gap recovery kicks in.
func (g *Member) onHeartbeat(h hbMsg) {
	if h.Epoch < g.epoch || g.electing {
		return
	}
	g.seqNode = h.Node
	if h.HighSeq > g.maxSeen {
		g.maxSeen = h.HighSeq
	}
	if g.cfg.Protocol == Consensus {
		g.leaderSeen = g.m.Env().Now()
		if h.HighSeq > g.committed {
			// The heartbeat announces the leader's commit watermark:
			// everything up to it is chosen and safe to fetch.
			g.committed = h.HighSeq
		}
	}
	if g.nextSeq <= g.maxSeen {
		g.armGapTimer()
	}
}

// reframe wraps a copy of one sequenced record as a one-op frame
// stamped with epoch, for retransmission.
func reframe(d *dataMsg, epoch int) *dataFrame {
	f := newFrame(1)
	f.Recs[0] = *d
	f.Recs[0].Epoch = epoch
	return f
}

// onRequest handles PB's RequestForBroadcast at the sequencer: each op
// dedups individually and joins the pack buffer.
func (g *Member) onRequest(p *sim.Proc, r *reqMsg) {
	if !g.isSeq || !g.installed {
		return // stale or uninstalled view; the sender will retry
	}
	l := g.loop(p, len(r.Items), requestItem, nop)
	l.items = r.Items
	l.next()
}

func requestItem(l *loop, i int) {
	g, it := l.g, l.items[i]
	seq, dup := g.seenSeq(it.Src, it.SrcSeq)
	if !dup {
		g.enqueue(l.p, &g.pack, it, l.next)
		return
	}
	// Retransmitted request: rebroadcast the sequenced message so the
	// sender (and anyone else who missed it) sees it. Under consensus
	// only chosen slots may travel as direct data — an uncommitted slot
	// is covered by the re-propose timer.
	if d := g.history.get(seq); d != nil && (g.cfg.Protocol != Consensus || seq <= g.committed) {
		g.cast(l.p, amoeba.Packet{Port: g.port, Kind: "grp-data", Body: reframe(d, d.Epoch), Size: frameSize(1, d.Size)}, l.next)
		return
	}
	l.next()
}

// onBBData handles BB's data broadcast at every member, op by op.
func (g *Member) onBBData(p *sim.Proc, b *bbDataMsg) {
	g.loop(p, len(b.Items), func(l *loop, i int) { g.bbItem(p, &b.Items[i], l.next) }, nop).next()
}

// bbItem handles one op of a BB data frame.
func (g *Member) bbItem(p *sim.Proc, it *item, k func()) {
	switch {
	case g.isSeq && g.installed:
		seq, dup := g.seenSeq(it.Src, it.SrcSeq)
		if !dup {
			g.enqueue(p, &g.acc, *it, k)
			return
		}
		// Retransmission: the accept may have been lost. Recover the
		// frame-boundary flag from the sequenced record so the receiver
		// reconstructs the boundary every replica saw.
		a := &acceptMsg{Seq: seq, Epoch: g.epoch}
		if d := g.history.get(seq); d != nil {
			a.More = d.More
		}
		a.UIDs = append(a.one[:0], it.UID)
		g.castAccept(p, a, k)
		return
	case g.isSeq:
		// Not installed yet: stash the data; the sender will retry.
		g.pendingBB[it.UID] = it
	default:
		if seq, more, accepted := g.acceptedUID(it.UID); accepted {
			// Accept arrived before the data: complete it now.
			g.processData(p, &dataMsg{item: *it, Seq: seq, Epoch: g.epoch, More: more}, k)
			return
		}
		g.pendingBB[it.UID] = it
	}
	k()
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
func (g *Member) onAccept(p *sim.Proc, a *acceptMsg) {
	if a.Epoch < g.epoch {
		return // stale sequencer's stream
	}
	if a.Epoch > g.epoch {
		g.epoch = a.Epoch // adopt the newer view's stream
		g.electing = false
	}
	g.loop(p, len(a.UIDs), func(l *loop, i int) {
		uid, seq := a.UIDs[i], a.Seq+int64(i)
		more := a.More || i < len(a.UIDs)-1
		if seq < g.nextSeq {
			delete(g.pendingBB, uid) // late duplicate; GC the stashed data
			l.next()
			return
		}
		if bb, ok := g.pendingBB[uid]; ok {
			delete(g.pendingBB, uid)
			g.processData(p, &dataMsg{item: *bb, Seq: seq, Epoch: g.epoch, More: more}, l.next)
			return
		}
		// Data frame lost: remember the accept and fetch the payload
		// from the sequencer's history via the gap machinery.
		g.acceptedBB[seq] = bbAccept{uid: uid, more: more}
		if seq > g.maxSeen {
			g.maxSeen = seq
		}
		g.armGapTimer()
		l.next()
	}, nop).next()
}

// onRetxReq serves retransmissions out of the sequencer history, one
// unicast per sequenced record, restamped with the current epoch: history
// may hold messages sequenced under a previous view that are still part
// of the (unchanged) prefix this view vouches for.
func (g *Member) onRetxReq(p *sim.Proc, r retxReq) {
	g.noteStatus(r.Node, r.Delivered)
	to := r.To
	if g.cfg.Protocol == Consensus && to > g.committed {
		// Unchosen slots must never travel as direct data: a member
		// would deliver them without quorum backing.
		to = g.committed
	}
	// A member that is not the sequencer serves only under consensus:
	// chosen slots are quorum-backed and immutable, so any member that
	// delivered them can serve them from its cache, and after a leader
	// death the committed log must not depend on one machine being up and
	// installed.
	ring := &g.history
	if !g.isSeq {
		if g.cfg.Protocol != Consensus {
			return
		}
		ring = &g.cache
	} else if to > g.maxSeen {
		to = g.maxSeen
	}
	g.loop(p, int(to-r.From+1), func(l *loop, i int) {
		if d := ring.get(r.From + int64(i)); d != nil {
			g.m.SendFn(p, r.Node, amoeba.Packet{Port: g.port, Kind: "grp-retx", Body: reframe(d, g.epoch), Size: frameSize(1, d.Size)}, l.next)
			return
		}
		l.next()
	}, nop).next()
}

// alwaysBuffer sends every record through the out-of-order buffer. Tests
// turn it on to show that the in-order path past it changes nothing.
var alwaysBuffer bool

// processData runs the ordered-delivery core: acknowledge own sends,
// buffer out-of-order messages, deliver in strict sequence order, and
// arm gap recovery when holes remain, then k. The record a member hears
// most — another member's, next in sequence, nothing waiting behind a
// hole — probes no table and touches no buffer on its way to deliver.
func (g *Member) processData(p *sim.Proc, d *dataMsg, k func()) {
	if d.Epoch < g.epoch {
		k() // stale sequencer's stream
		return
	}
	if d.Epoch > g.epoch {
		g.epoch = d.Epoch // adopt the newer view's stream
		g.electing = false
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
	if d.Seq > g.maxSeen {
		g.maxSeen = d.Seq
	}
	if d.Seq < g.nextSeq {
		k() // duplicate
		return
	}
	if d.Seq == g.nextSeq && g.buffered.span() == 0 && !alwaysBuffer {
		if g.deliver(p, d) {
			g.report(p, k)
			return
		}
		g.nextSeq++
		g.drain(p, k) // finds the buffer empty
		return
	}
	g.buffered.advanceTo(g.nextSeq) // which the in-order path leaves behind
	g.buffered.set(d.Seq, d)
	g.drain(p, k)
}

// drain delivers what the out-of-order buffer holds in sequence, and
// then gap recovery runs while holes remain.
func (g *Member) drain(p *sim.Proc, k func()) {
	for nd := g.buffered.get(g.nextSeq); nd != nil; nd = g.buffered.get(g.nextSeq) {
		g.buffered.del(g.nextSeq)
		if g.deliver(p, nd) {
			g.report(p, k)
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
	k()
}

// report sends the status report deliver called for, after which
// processData goes on draining, a loop of one step. On the in-order
// path the buffer is empty: the step catches its window up with nextSeq
// and checks for holes.
func (g *Member) report(p *sim.Proc, k func()) {
	g.m.SendFn(p, g.seqNode, amoeba.Packet{Port: g.port, Kind: "grp-status", Obj: g.nextSeq, Size: hdrSmall}, g.loop(p, 1, reported, k).next)
}

func reported(l *loop, _ int) {
	g := l.g
	g.nextSeq++
	g.buffered.advanceTo(g.nextSeq)
	g.drain(l.p, l.next)
}

// deliver hands one sequenced message to the application stream and
// maintains the delivered cache, per-source dedup windows, and status
// reporting: it tells whether a member that is not the sequencer is due
// to report its progress. Everything here is O(1) per delivery.
func (g *Member) deliver(p *sim.Proc, d *dataMsg) (report bool) {
	g.seqAlive = p.Now()
	if len(g.acceptedBB) > 0 {
		delete(g.acceptedBB, d.Seq)
	}
	if len(g.pendingBB) > 0 {
		delete(g.pendingBB, d.UID)
	}
	g.cache.set(d.Seq, d)
	if g.recoveryStart != 0 {
		g.stats.RecoveryTime += p.Now() - g.recoveryStart
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
	return !dl.Dup && !g.isSeq && g.cfg.StatusEvery > 0 && g.stats.Delivered%int64(g.cfg.StatusEvery) == 0
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
	g.gapArmFn()
}

// gapRound is the gap timer's round, in interrupt context.
func (g *Member) gapRound(p *sim.Proc) {
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
		g.suspectSequencer(p, func() {
			g.gapStall = 0
			g.requestGap(p)
		})
		return
	}
	g.requestGap(p)
}

// requestGap asks the sequencer for the missing sequence numbers and
// re-arms the gap timer.
func (g *Member) requestGap(p *sim.Proc) {
	g.stats.GapRequests++
	to := g.nextSeq + 31
	if to > g.maxSeen {
		to = g.maxSeen
	}
	g.m.SendFn(p, g.seqNode, amoeba.Packet{Port: g.port, Kind: "grp-retx-req",
		Body: retxReq{From: g.nextSeq, To: to, Node: g.m.ID(), Delivered: g.nextSeq - 1},
		Size: hdrSmall}, g.gapArmFn)
}
