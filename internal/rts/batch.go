package rts

// Write combining for the broadcast runtime (see
// Router.EnableBatching).
//
// Each worker owns a combining buffer. An unguarded, no-result write
// (the DefUpdate* shapes: queue add, counter assign, flag set) does
// not broadcast individually: it is appended to the buffer and the
// invoker continues immediately. The buffer leaves as ONE group
// frame — a batch the group layer's packers keep together — when it
// reaches Batch.MaxOps/MaxBytes, when its Linger deadline fires, or
// when the pipeline continuation sends it (see below).
//
// One rule keeps this sequentially consistent: an unguarded no-result
// write to a fully replicated object joins the buffer, and every other
// operation — any read, of any object, a guarded or result-bearing
// write, a create, a forward, a direct write, a fork, a fence, an op
// routed to another orderer, process exit — first syncs: it flushes the
// buffer and waits until the buffered writes have been applied locally.
// A process's operations therefore take effect in program order, and a
// read never overtakes a write of its own. Sleep flushes without
// waiting.
//
// A buffer keeps at most ONE batch in flight (depth-1 pipelining):
// the next batch is not sent until the previous one has been applied
// locally, which — combined with the group layer's per-source
// FIFO — preserves the worker's program order even when a batch frame
// is lost and retransmitted. While a batch is in flight the worker
// keeps filling the buffer; when the flight completes, the manager
// sends the accumulated next batch immediately (the continuation
// flush), so a streaming writer settles into one frame per
// round-trip, MaxOps ops at a time.

import (
	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/sim"
)

// writeBuf is a worker's combining buffer.
type writeBuf struct {
	mgr   *bcastManager
	ops   []group.Msg
	bytes int
	uids  []int64 // the batch's, from BroadcastBatchOn
	timer *amoeba.Deadline

	// The batch in flight, if any (one at most): how many of its ops
	// have not yet been applied on the submitting machine, and the
	// condition a worker waiting for them waits on.
	inFlight  bool
	remaining int
	cond      sim.Cond
	// lingerFn is b.linger, bound once.
	lingerFn func(p *sim.Proc)

	// opsSpare ping-pongs with ops across flushes: a flush detaches the
	// filled buffer into the spare before broadcasting (the broadcast
	// waits for the CPU, and the worker may buffer more ops meanwhile)
	// and returns it cleared afterwards.
	opsSpare []group.Msg

	// The flush on its way out (see flushOn), whose broadcast's
	// continuation is the buffer (see Fire).
	p    *sim.Proc
	then sim.Firer
}

// idle reports whether the buffer holds no write, buffered or in
// flight: a sync would return at once. A nil buffer is idle.
func (b *writeBuf) idle() bool { return b == nil || len(b.ops) == 0 && !b.inFlight }

// bufferWrite appends one unguarded no-result write to w's combining
// buffer, flushing or arming the linger deadline per the batch
// configuration.
func (mgr *bcastManager) bufferWrite(w *Worker, id ObjID, opName string, args Args) {
	b := w.batch
	if b == nil {
		b = &writeBuf{mgr: mgr}
		b.lingerFn = b.linger
		w.batch = b
	}
	bc := mgr.sg.r.batch
	if b.inFlight && len(b.ops) >= bc.MaxOps {
		// Depth-1 pipeline backpressure: the buffer is full and the
		// previous batch is still in flight — wait for it.
		b.waitFlight(w.P)
	}
	size := opSize(opName, &args)
	b.ops = append(b.ops, group.Msg{Kind: opKind, Obj: int64(id), Op: opName, Args: args, Size: size})
	b.bytes += size
	mgr.sg.stats.BatchedOps++
	if len(b.ops) >= bc.MaxOps || (bc.MaxBytes > 0 && b.bytes >= bc.MaxBytes) {
		b.waitFlight(w.P)
		b.flush(w.P)
		return
	}
	if b.timer == nil && bc.Linger > 0 {
		b.timer = mgr.m.Deadline(bc.Linger, b.lingerFn)
	}
}

// linger is the Linger deadline's round, in interrupt context. A linger
// flush must not block, so it defers to the continuation flush when a
// batch is in flight.
func (b *writeBuf) linger(p *sim.Proc) {
	b.timer = nil
	b.flushOn(p, sim.Func(func() {}))
}

// flush sends the buffered ops as one batch, if none is in flight.
func (b *writeBuf) flush(p *sim.Proc) {
	b.flushOn(p, p)
	p.Park()
}

// flushOn is flush in continuation form, for the linger timer's round in
// interrupt context and the object manager's continuation flush: then
// fires where flush returns.
//
// The broadcast waits for the machine's CPU, and arbitrary simulation
// activity runs meanwhile: the worker may buffer more ops (when the
// flush runs in manager or timer context), another flush attempt may
// fire, and the local manager may already apply some of the batch. So
// the flight is installed FIRST (making any concurrent flush a no-op and
// keeping a concurrent sync waiting for it), the op buffer is detached
// before broadcasting, and completions that beat the uid registration
// are reconciled from the early-completion buffer afterwards (Fire).
func (b *writeBuf) flushOn(p *sim.Proc, then sim.Firer) {
	if len(b.ops) == 0 || b.inFlight {
		then.Fire()
		return
	}
	mgr := b.mgr
	if b.timer != nil {
		b.timer.Cancel()
		b.timer = nil
	}
	b.inFlight, b.remaining = true, len(b.ops) // provisional until the uids register
	b.ops, b.opsSpare = b.opsSpare[:0], b.ops
	b.bytes = 0
	mgr.sg.stats.Frames++
	b.p, b.then, b.uids = p, then, b.uids[:0]
	mgr.g.BroadcastBatchOn(p, b.opsSpare, &b.uids, b)
}

// Fire continues flushOn once the batch has been submitted.
func (b *writeBuf) Fire() {
	mgr, p, then := b.mgr, b.p, b.then
	for _, uid := range b.uids {
		if _, done := mgr.early[uid]; done {
			delete(mgr.early, uid)
			b.remaining--
			continue
		}
		put(&mgr.flights, uid, b)
	}
	clear(b.opsSpare)
	b.opsSpare = b.opsSpare[:0]
	if b.remaining == 0 {
		b.inFlight = false
		b.cond.Broadcast()
		if len(b.ops) > 0 {
			b.flushOn(p, then) // ops buffered during the broadcast
			return
		}
	}
	then.Fire()
}

// waitFlight blocks until the current in-flight batch (if any) has
// been applied locally.
func (b *writeBuf) waitFlight(p *sim.Proc) {
	for b.inFlight && b.remaining > 0 {
		b.cond.Wait(p)
	}
}

// sync flushes everything and waits until every buffered op has been
// applied on this machine: afterwards the worker's reads observe all
// its writes and the total order contains them before anything the
// worker does next.
func (b *writeBuf) sync(w *Worker) {
	for !b.idle() {
		if b.inFlight {
			b.waitFlight(w.P)
		} else {
			b.flush(w.P)
		}
	}
}

// completeFlight finishes one async op of b's batch in flight. When
// that was the batch's last op, and the worker has buffered more
// meanwhile, it returns the buffer: its next batch leaves at once, the
// pipeline's steady state (the continuation flush; see
// bcastManager.written).
func (mgr *bcastManager) completeFlight(uid int64, b *writeBuf) *writeBuf {
	delete(mgr.flights, uid)
	b.remaining--
	if b.remaining > 0 {
		return nil
	}
	b.inFlight = false
	b.cond.Broadcast()
	if len(b.ops) > 0 {
		return b
	}
	return nil
}
