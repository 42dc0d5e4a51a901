package rts

import (
	"repro/internal/amoeba"
	"repro/internal/sim"
)

// Worker is the execution context a simulated application thread uses
// to talk to a runtime system: a process bound to a machine, plus a
// pending-work accumulator.
//
// Application compute and cheap local operations (object reads) accrue
// into the accumulator instead of becoming individual simulation
// events; the total is flushed to the machine's CPU before any
// communication or blocking step, and whenever it reaches
// flushThreshold. This keeps event counts tractable for workloads that
// perform millions of local reads while bounding the timing error well
// below protocol latencies.
type Worker struct {
	P *sim.Proc
	M *amoeba.Machine

	pending sim.Time

	// batch is the write-combining buffer a batching BroadcastRTS
	// attaches lazily on the worker's first combinable write; nil
	// otherwise (including always under the point-to-point runtime).
	batch *writeBuf
}

// SyncShared flushes the worker's write-combining buffer (if any) and
// blocks until every buffered and in-flight operation has been
// applied on this worker's machine. The runtimes call it before every
// operation that is not a combined write (see batch.go); the process
// layer calls it on fork and exit.
func (w *Worker) SyncShared() {
	if w.batch != nil {
		w.batch.sync(w)
	}
}

// FlushShared sends any buffered operations without waiting for their
// application — used before a blocking step (such as Sleep) that does
// not observe shared state.
func (w *Worker) FlushShared() {
	if w.batch != nil {
		w.batch.flush(w.P)
	}
}

// flushThreshold bounds the accumulation lag.
const flushThreshold = 500 * sim.Microsecond

// NewWorker creates a worker context for process p on machine m.
func NewWorker(p *sim.Proc, m *amoeba.Machine) *Worker {
	return &Worker{P: p, M: m}
}

// Charge accrues d of CPU work, flushing if the pending total reaches
// the threshold. It flushes in place rather than through Flush so that
// it stays small enough to inline: every local read charges.
func (w *Worker) Charge(d sim.Time) {
	w.pending += d
	if w.pending >= flushThreshold {
		d, w.pending = w.pending, 0
		w.M.Compute(w.P, d)
	}
}

// Accrue adds d of CPU work without ever flushing (and therefore
// without blocking). Runtime code uses it on paths that must stay
// non-blocking between a guard evaluation and the operation's
// execution; the accrued work is charged at the next Flush.
func (w *Worker) Accrue(d sim.Time) { w.pending += d }

// Flush charges all pending work to the machine's CPU, blocking while
// the CPU is busy. Call before any externally visible action.
func (w *Worker) Flush() {
	if w.pending > 0 {
		d := w.pending
		w.pending = 0
		w.M.Compute(w.P, d)
	}
}

// Node reports the machine id the worker runs on.
func (w *Worker) Node() int { return w.M.ID() }
