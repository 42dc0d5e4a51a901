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
	g.BroadcastBatchFn(p, ops, &dst, p.Resume())
	p.Park()
	return dst
}

// BroadcastBatchFn is BroadcastBatch in continuation form: each op's uid
// is appended to *dst as the op is submitted, and then runs where
// BroadcastBatch returns.
func (g *Member) BroadcastBatchFn(p *sim.Proc, ops []Msg, dst *[]int64, then func()) {
	l := g.loop(p, len(ops), batchOp, then)
	l.ops, l.uids = ops, dst
	l.next()
}

func batchOp(l *loop, i int) {
	*l.uids = append(*l.uids, l.g.broadcast(l.p, &l.ops[i], l.next))
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
	timer  *sim.Event
	accept bool
}

// enqueue queues one op for pk's next frame, flushing on
// MaxOps/MaxBytes and arming the Linger deadline otherwise. The op is
// pre-marked in the dedup window (seq -1 = "queued, not yet
// sequenced") so a retransmitted copy arriving before the flush cannot
// be sequenced twice.
func (g *Member) enqueue(p *sim.Proc, pk *packer, it item, k func()) {
	g.noteSeen(it.Src, it.SrcSeq, -1)
	pk.q = append(pk.q, it)
	if !pk.accept {
		pk.bytes += it.Size + hdrItem
	}
	b := g.cfg.Batch
	if len(pk.q) >= b.MaxOps || (b.MaxBytes > 0 && pk.bytes >= b.MaxBytes) {
		g.flush(p, pk, k)
		return
	}
	if pk.timer == nil {
		pk.timer = g.m.After(b.Linger, func(tp *sim.Proc) {
			pk.timer = nil
			g.flush(tp, pk, nop)
		})
	}
	k()
}

// flush sequences pk's queued ops and emits them as one frame. When
// this member no longer sequences (it lost an election with ops still
// queued), its own items re-enter the sender path instead — other
// members' requests are re-sent by their own retransmission timers.
func (g *Member) flush(p *sim.Proc, pk *packer, k func()) {
	if pk.timer != nil {
		pk.timer.Cancel()
		pk.timer = nil
	}
	items := pk.q
	pk.bytes = 0
	if len(items) == 0 {
		k()
		return
	}
	if !g.isSeq || !g.installed {
		// enqueueSend yields the CPU: detach the array so nothing
		// queued meanwhile can overwrite the items still to re-send.
		pk.q = nil
		g.loop(p, len(items), func(l *loop, i int) {
			if it := items[i]; it.Src == g.m.ID() {
				g.enqueueSend(p, it, l.next)
				return
			}
			l.next()
		}, k).next()
		return
	}
	pk.q = items[:0] // emit copies the items before anything can yield
	g.emit(p, items, pk.accept, k)
}

// newFrame allocates a frame of n records; a one-op frame is a single
// allocation.
func newFrame(n int) *dataFrame {
	f := &dataFrame{}
	if n == 1 {
		f.Recs = f.one[:]
	} else {
		f.Recs = make([]dataMsg, n)
	}
	return f
}

// sequence assigns consecutive sequence numbers to items and records
// each op in the history ring; every op but the last carries the More
// (mid-frame) flag.
func (g *Member) sequence(items []item) *dataFrame {
	f := newFrame(len(items))
	for i, it := range items {
		d := &f.Recs[i]
		*d = dataMsg{item: it, Seq: g.nextSeqNum(), Epoch: g.epoch, More: i < len(items)-1}
		g.recordHistory(d)
	}
	return f
}

// emit sequences items as one frame, puts it on the wire — sequenced
// data, a short accept for BB ops (the members already hold the data),
// or a consensus proposal — and runs the new records through this
// member's own ordered-delivery core.
func (g *Member) emit(p *sim.Proc, items []item, accept bool, k func()) {
	f := g.sequence(items)
	g.noteFrame(len(f.Recs))
	switch {
	case g.cfg.Protocol == Consensus:
		// The frame becomes one multi-slot proposal: the whole batch is
		// accepted atomically per member, which is what keeps More
		// boundaries stable across a re-proposal. A consensus leader's
		// own slot still needs quorum acceptance before anyone
		// (including itself) delivers.
		ds := make([]*dataMsg, len(f.Recs))
		for i := range f.Recs {
			ds[i] = &f.Recs[i]
		}
		g.propose(p, ds, k)
	case accept:
		a := &acceptMsg{Seq: f.Recs[0].Seq, Epoch: g.epoch}
		a.UIDs = a.one[:0]
		if len(f.Recs) > 1 {
			a.UIDs = make([]int64, 0, len(f.Recs))
		}
		for i := range f.Recs {
			a.UIDs = append(a.UIDs, f.Recs[i].UID)
		}
		g.castAccept(p, a, g.frame(p, f.Recs, k).next)
	default:
		payload := 0
		for i := range f.Recs {
			payload += f.Recs[i].Size
		}
		g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-data", Body: f, Size: frameSize(len(f.Recs), payload)}, g.frame(p, f.Recs, k).next)
	}
}

// castAccept broadcasts an accept frame.
func (g *Member) castAccept(p *sim.Proc, a *acceptMsg, k func()) {
	size := hdrAccept
	if n := len(a.UIDs); n > 1 {
		size += 8 * n
	}
	g.cast(p, amoeba.Packet{Port: g.port, Kind: "grp-accept", Body: a, Size: size}, k)
}

// ---------------------------------------------------------------------
// Sender-side packer.

// enqueueSend queues one op for the next request frame and arms a
// same-instant flush: every op submitted in the current virtual
// instant leaves in one frame (cross-instant combining is the RTS
// write buffer's job). MaxOps/MaxBytes flush early so one frame never
// carries more than its capacity.
func (g *Member) enqueueSend(p *sim.Proc, it item, k func()) {
	g.sendQ = append(g.sendQ, it)
	g.sendBytes += it.Size + hdrItem
	b := g.cfg.Batch
	if len(g.sendQ) >= b.MaxOps || (b.MaxBytes > 0 && g.sendBytes >= b.MaxBytes) {
		g.flushSend(p, k)
		return
	}
	if !g.sendArmed {
		g.sendArmed = true
		g.m.After(0, func(tp *sim.Proc) {
			g.sendArmed = false
			g.flushSend(tp, nop)
		})
	}
	k()
}

// flushSend transmits the queued ops as one outstanding send.
func (g *Member) flushSend(p *sim.Proc, k func()) {
	items := g.sendQ
	if len(items) == 0 {
		k()
		return
	}
	payload := g.sendBytes - len(items)*hdrItem
	g.sendBytes = 0
	if g.isSeq && g.installed {
		// Became the sequencer while ops were queued: sequence them
		// directly. enqueue can yield the CPU, so detach the array.
		g.sendQ = nil
		g.stats.PBSends += int64(len(items))
		g.loop(p, len(items), func(l *loop, i int) { g.enqueue(p, &g.pack, items[i], l.next) }, k).next()
		return
	}
	g.sendQ = items[:0] // newSend copies the items before anything can yield
	st := g.newSend(items, g.resolveMethod(frameSize(len(items), payload)))
	if st.method == ForceBB {
		g.stats.BBSends += int64(len(items))
	} else {
		g.stats.PBSends += int64(len(items))
	}
	g.noteFrame(len(items))
	st.k = k
	g.transmit(p, st, st.sentFn)
}
