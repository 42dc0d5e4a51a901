package group

// Frames: the one data path of the ordering protocol.
//
// Every op travels in a frame, and Config.Batch.MaxOps is how many ops
// a frame may carry. The paper's protocol is MaxOps 1 — one request
// frame and one sequenced data frame per broadcast, every packer
// flushing the instant an op is queued — which makes the sequencer's
// frame rate the throughput ceiling. A larger capacity amortizes the
// protocol over many ops per network frame:
//
//   - The sequencer runs a frame packer: incoming requests (and its
//     own submissions) queue in a pack buffer that flushes into ONE
//     sequenced frame — each op keeps its own sequence number, the
//     frame occupies consecutive numbers, and it is broadcast once.
//     Flush triggers: MaxOps ops queued, MaxBytes of payload queued,
//     or Linger elapsed since the first queued op.
//   - A sender packs ops submitted in the same virtual instant into
//     one request frame (the cross-instant combining lives above, in
//     the RTS write buffer, which hands whole batches down).
//   - The BB variant packs accepts: senders broadcast their data
//     frames as usual, and the sequencer assigns consecutive sequence
//     numbers to the queued ops in one short accept frame.
//
// Retransmission stays per-op: the history ring records each op of a
// frame under its own sequence number, so a member that lost a frame
// recovers exactly the ops it is missing through the ordinary gap
// machinery, and a sender re-sends only its still-unacknowledged
// items. Framing is deliberately NOT load-bearing for correctness — it
// only changes how many ops share a frame. The More flag each op
// carries (assigned at sequencing time, stable across retransmission)
// tells consumers where frames end, which the RTS uses to run one
// guard-retry sweep per frame.

import (
	"repro/internal/amoeba"
	"repro/internal/sim"
)

// BroadcastBatch submits several messages in one call, appending their
// uids to dst and returning it. The ops leave this member packed into
// as few frames as the frame capacity allows. Op order is preserved
// within the batch.
func (g *Member) BroadcastBatch(p *sim.Proc, ops []Msg, dst []int64) []int64 {
	g.BroadcastBatchOn(p, ops, &dst, p)
	p.Park()
	return dst
}

// BroadcastBatchOn is BroadcastBatch in continuation form: each op's uid
// is appended to *dst as the op is submitted, and then fires where
// BroadcastBatch returns.
func (g *Member) BroadcastBatchOn(p *sim.Proc, ops []Msg, dst *[]int64, then sim.Firer) {
	o := g.begin(p, then)
	for i := range ops {
		g.later(effect{kind: fxBroadcast, on: &ops[i], uids: dst})
	}
	o.issue()
}

// noteFrame counts a multi-op frame this member sequenced or sent.
func (g *Member) noteFrame(ops int) {
	if ops > 1 {
		g.stats.Batches++
		g.stats.BatchedOps += int64(ops)
	}
}

// ---------------------------------------------------------------------
// Sequencer-side packers.

// packer queues ops at the sequencer for the next frame it emits:
// sequenced data for ops that arrived as PB requests, or — accept set —
// a short accept for BB ops whose data the members already hold.
type packer struct {
	q      []item
	bytes  int // packed payload of q (data packer only)
	timer  *amoeba.Deadline
	fire   func(p *sim.Proc) // the Linger deadline's round, bound when first armed
	accept bool
}

// enqueue queues one op for pk's next frame, flushing on
// MaxOps/MaxBytes and arming the Linger deadline otherwise. The op is
// pre-marked in the dedup window (seq -1 = "queued, not yet
// sequenced") so a retransmitted copy arriving before the flush cannot
// be sequenced twice.
func (g *Member) enqueue(pk *packer, it item) {
	g.noteSeen(it.Src, it.SrcSeq, -1)
	pk.q = append(pk.q, it)
	if !pk.accept {
		pk.bytes += it.Size + hdrItem
	}
	b := g.cfg.Batch
	if len(pk.q) >= b.MaxOps || (b.MaxBytes > 0 && pk.bytes >= b.MaxBytes) {
		g.flush(pk)
		return
	}
	if pk.timer == nil {
		g.armLinger(pk)
	}
}

// armLinger arms pk's Linger deadline. Its round is bound when it is
// first armed: only a sequencer packs.
func (g *Member) armLinger(pk *packer) {
	if pk.fire == nil {
		pk.fire = func(p *sim.Proc) {
			g.step(p, func(g *Member) {
				pk.timer = nil
				g.flush(pk)
			})
		}
	}
	pk.timer = g.m.Deadline(g.cfg.Batch.Linger, pk.fire)
}

// flush sequences pk's queued ops and emits them as one frame. When
// this member no longer sequences (it lost an election with ops still
// queued), its own items re-enter the sender path instead — other
// members' requests are re-sent by their own retransmission timers.
func (g *Member) flush(pk *packer) {
	if pk.timer != nil {
		pk.timer.Cancel()
		pk.timer = nil
	}
	items := pk.q
	pk.bytes = 0
	if len(items) == 0 {
		return
	}
	if !g.isSeq || !g.installed {
		// The ops re-enter one by one, each once the last one's send
		// has gone out: detach the array so nothing queued meanwhile
		// can overwrite the items still to re-send.
		pk.q = nil
		g.each(len(items), func(i int) {
			if items[i].Src == g.m.ID() {
				g.enqueueSend(items[i])
			}
		})
		return
	}
	pk.q = items[:0] // emit copies the items
	g.emit(items, pk.accept)
}

// newFrame carves a frame of n records from the member's chunks: a
// one-op frame is one carving.
func (g *Member) newFrame(n int) *dataFrame {
	c := g.carve()
	f := &c.frames.Take(1)[0]
	if n == 1 {
		f.Recs = f.one[:]
	} else {
		f.Recs = c.recs.Take(n)
	}
	return f
}

// sequence assigns consecutive sequence numbers to items and records
// each op in the history ring; every op but the last carries the More
// (mid-frame) flag.
func (g *Member) sequence(items []item) *dataFrame {
	f := g.newFrame(len(items))
	for i, it := range items {
		d := &f.Recs[i]
		g.maxSeen++ // the next global sequence number
		*d = dataMsg{item: it, Seq: g.maxSeen, Epoch: g.epoch, More: i < len(items)-1}
		g.recordHistory(d)
	}
	return f
}

// emit sequences items as one frame, puts it on the wire — sequenced
// data, a short accept for BB ops (the members already hold the data),
// or a consensus proposal — and runs the new records through this
// member's own ordered-delivery core once it has gone out.
func (g *Member) emit(items []item, accept bool) {
	f := g.sequence(items)
	g.noteFrame(len(f.Recs))
	switch {
	case g.cfg.Protocol == Consensus:
		// The frame becomes one multi-slot proposal: the whole batch is
		// accepted atomically per member, which is what keeps More
		// boundaries stable across a re-proposal. A consensus leader's
		// own slot still needs quorum acceptance before anyone
		// (including itself) delivers.
		ds := g.carve().slots.Take(len(f.Recs))
		for i := range f.Recs {
			ds[i] = &f.Recs[i]
		}
		g.propose(ds)
		return
	case accept:
		a := g.newAccept(f.Recs[0].Seq, len(f.Recs))
		for i := range f.Recs {
			a.UIDs = append(a.UIDs, f.Recs[i].UID)
		}
		g.castAccept(a)
	default:
		payload := 0
		for i := range f.Recs {
			payload += f.Recs[i].Size
		}
		g.cast("grp-data", f, frameSize(len(f.Recs), payload))
	}
	g.processFrame(f.Recs)
}

// newAccept carves an accept of sequence numbers from seq on, with room
// for n uids, from the member's chunks.
func (g *Member) newAccept(seq int64, n int) *acceptMsg {
	a := g.carve().accepts.Add(acceptMsg{Seq: seq, Epoch: g.epoch})
	a.UIDs = a.one[:0]
	if n > 1 {
		a.UIDs = make([]int64, 0, n)
	}
	return a
}

// castAccept broadcasts an accept frame.
func (g *Member) castAccept(a *acceptMsg) {
	size := hdrAccept
	if n := len(a.UIDs); n > 1 {
		size += 8 * n
	}
	g.cast("grp-accept", a, size)
}

// ---------------------------------------------------------------------
// Sender-side packer.

// enqueueSend queues one op for the next request frame and arms a
// same-instant flush: every op submitted in the current virtual
// instant leaves in one frame (cross-instant combining is the RTS
// write buffer's job). MaxOps/MaxBytes flush early so one frame never
// carries more than its capacity.
func (g *Member) enqueueSend(it item) {
	g.sendQ = append(g.sendQ, it)
	g.sendBytes += it.Size + hdrItem
	b := g.cfg.Batch
	if len(g.sendQ) >= b.MaxOps || (b.MaxBytes > 0 && g.sendBytes >= b.MaxBytes) {
		g.flushSend()
		return
	}
	if !g.sendArmed {
		g.sendArmed = true
		if g.sendFire == nil {
			g.sendFire = func(p *sim.Proc) { g.step(p, (*Member).flushArmed) }
		}
		g.m.Deadline(0, g.sendFire)
	}
}

// flushArmed is the same-instant flush's round.
func (g *Member) flushArmed() {
	g.sendArmed = false
	g.flushSend()
}

// flushSend transmits the queued ops as one outstanding send.
func (g *Member) flushSend() {
	items := g.sendQ
	if len(items) == 0 {
		return
	}
	payload := g.sendBytes - len(items)*hdrItem
	g.sendBytes = 0
	if g.isSeq && g.installed {
		// Became the sequencer while ops were queued: sequence them
		// directly, each once the last one's frame has gone out, so
		// detach the array.
		g.sendQ = nil
		g.stats.PBSends += int64(len(items))
		g.each(len(items), func(i int) { g.enqueue(&g.pack, items[i]) })
		return
	}
	g.sendQ = items[:0] // newSend copies the items
	st := g.newSend(items, g.resolveMethod(frameSize(len(items), payload)))
	if st.method == ForceBB {
		g.stats.BBSends += int64(len(items))
	} else {
		g.stats.PBSends += int64(len(items))
	}
	g.noteFrame(len(items))
	g.transmit(st)
	// One frame carries these items, and they have been on no other: the
	// one case in which their record can be recycled (see sendState).
	st.fresh = st.method == ForcePB && g.cfg.Protocol == ElectedSequencer
	g.later(effect{kind: fxArmSender, on: st})
}
