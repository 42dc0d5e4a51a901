package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
)

// Event is a scheduled occurrence in virtual time. It is returned by
// At and After so callers can cancel pending events (e.g. protocol
// retransmission timers).
//
// An event runs a callback; the one that resumes a parked process is
// the process itself (see Proc.Fire). The scheduler's events — those of
// Schedule, and every wake-up — are recycled through a free list; those
// of At and After are handed to callers and never reused, so a retained
// *Event stays valid to Cancel. A future event either holds a heap slot
// or follows another event of its instant in that event's run (see
// eventQueue); prev and next link the run.
type Event struct {
	t         Time
	seq       int64
	on        Firer // what the event runs: a typed callback, or a func's (see Func)
	index     int32 // heap slot, or behind, onReady or idle; 32 bits keep the event at 64 bytes
	cancelled bool
	pooled    bool   // internal event, recycled after firing
	env       *Env   // the environment a caller's event was scheduled in
	prev      *Event // the event before this one in its run
	next      *Event // the event after this one in its run; free-list link while recycled
}

// Where an event is when it is not in a heap slot.
const (
	behind  = -1 // a follower in a run on the heap
	onReady = -2 // on the same-instant ready list
	idle    = -3 // popped to fire, taken off the heap, or never scheduled
)

// Cancel prevents the event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op. Like every
// scheduling call it must be made from simulation context.
//
// A future event leaves the queue here, so the heap holds live events
// only: a timer that is armed and cancelled a million times over — an
// RPC's retransmission timer — costs the dispatch loop nothing, and
// nothing it references stays reachable through the queue. A follower
// is unlinked from its run in O(1); a run's head hands its slot to its
// follower, also in O(1), and only a head alone leaves the heap in
// O(log n). A cancelled event was never counted in Events() and keeps
// the sequence number it took when armed, so removing it moves no other
// event in the (time, seq) order. Only an event already on the
// same-instant ready list is merely flagged and skipped when its turn
// comes.
func (ev *Event) Cancel() {
	ev.cancelled = true
	if ev.index >= behind {
		ev.env.queue.remove(ev)
	}
}

// Firer is a typed callback: what an event runs when it fires.
type Firer interface{ Fire() }

// Func is a func as a Firer: a func value is one pointer, so it goes
// into the interface as it is, with no allocation.
type Func func()

func (fn Func) Fire() { fn() }

// InitOn makes ev, embedded in the record that owns it, a timer that is
// armed again and again — a retransmission timeout — without allocating:
// it binds the event, once, to its environment and callback, and each
// firing calls f.Fire. A record that embeds its event and is itself the
// Firer (through a pointer) binds no closure to it either.
func (ev *Event) InitOn(e *Env, f Firer) { *ev = Event{on: f, env: e, index: idle} }

// Arm schedules an event made by InitOn to fire d from now, in place of
// any firing still pending. Arm and Cancel take the places in the
// (time, seq) order that After and Cancel would: Arm consumes one
// sequence number, Cancel none, and a cancelled firing was never
// counted in Events().
func (ev *Event) Arm(d Time) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e := ev.env
	switch {
	case ev.index >= behind:
		e.queue.remove(ev)
	case ev.index == onReady:
		// Due this very instant, cancelled or not: an event on the ready
		// list can only be flagged, so a flagged stand-in takes its slot.
		for j := e.readyHead; j < len(e.ready); j++ {
			if e.ready[j] == ev {
				e.ready[j] = &Event{t: ev.t, seq: ev.seq, cancelled: true, index: onReady}
			}
		}
	}
	ev.cancelled = false
	e.schedule(ev, e.now+d)
}

// before reports whether ev fires before other in the (time, seq)
// total order.
func (ev *Event) before(other *Event) bool {
	if ev.t != other.t {
		return ev.t < other.t
	}
	return ev.seq < other.seq
}

// eventQueue holds the future events: a binary min-heap on (time, seq)
// whose every slot holds a run, the events due at one instant that were
// pushed back to back, in seq order, linked by prev and next behind the
// run's head. The heap is typed on *Event so sift steps compare and swap
// directly instead of calling through heap.Interface, and each head's
// index field tracks its slot.
//
// A push due at the instant of tail — the last push, while it is still
// queued — joins tail's run in O(1); any other push starts a run with an
// ordinary heap push. seq only grows, so a run's events come after those
// of every run created before it at its instant and before those of
// every run created later: runs at one instant never interleave. That
// is why a head's follower can take the head's slot, on a pop or a
// removal, with no sift — its key is still below its children's and
// above its parent's — and why the pop order is the one a heap of
// single events yields.
type eventQueue struct {
	h      heap
	tail   *Event
	pushes int64 // every push
	joined int64 // pushes that joined tail's run
}

func (q *eventQueue) push(ev *Event) {
	q.pushes++
	if last := q.tail; last != nil && last.t == ev.t {
		q.joined++
		last.next, ev.prev, ev.index = ev, last, behind
		q.tail = ev
		return
	}
	q.tail = ev
	q.h = append(q.h, ev)
	i := q.h.up(len(q.h)-1, ev)
	q.h[i] = ev
	ev.index = int32(i)
}

// heap is the slot array of an eventQueue.
type heap []*Event

// up finds ev's place at or above the vacant slot i: while ev fires
// before the parent, the parent moves down into the vacancy.
func (h heap) up(i int, ev *Event) int {
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = int32(i)
		i = parent
	}
	return i
}

// down places ev in the vacant slot i or, while a child fires before
// it, in that child's slot further down.
func (h heap) down(i int, ev *Event) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(ev) {
			break
		}
		h[i] = h[child]
		h[i].index = int32(i)
		i = child
	}
	h[i] = ev
	ev.index = int32(i)
}

func (q *eventQueue) pop() *Event {
	top := q.h[0]
	q.remove(top)
	return top
}

// remove takes ev, queued, off the queue. A follower is unlinked from
// its run; a head with a follower gives it its slot; a head alone leaves
// the heap, the last slot's run moving into its slot and sifting up or,
// failing that, down.
func (q *eventQueue) remove(ev *Event) {
	i, prev, next := int(ev.index), ev.prev, ev.next
	ev.index, ev.prev, ev.next = idle, nil, nil
	if q.tail == ev {
		q.tail = prev
	}
	if next != nil {
		next.prev = prev
	}
	switch {
	case prev != nil:
		prev.next = next
	case next != nil:
		q.h[i], next.index = next, int32(i)
	default:
		h := q.h
		n := len(h) - 1
		last := h[n]
		h[n] = nil
		h = h[:n]
		q.h = h
		if i < n {
			h.down(h.up(i, last), last)
		}
	}
}

// Env is a discrete-event simulation environment: a virtual clock, an
// event queue, and a set of cooperatively scheduled processes. All
// methods must be called from simulation context (from inside an event
// handler or a process body), except New, Spawn before Run, Run itself,
// and Shutdown after Run returns.
//
// Same-instant events (wakeups, yields, condition broadcasts) go to a
// FIFO ready queue instead of the binary heap: their (time, seq) keys
// are necessarily larger than everything already consumed and appended
// in seq order, so a plain append preserves the total order while
// costing O(1) instead of O(log n). Future events go to the heap, where
// those due at one instant and pushed back to back — a broadcast's
// interrupts — share one slot as a run (see eventQueue), so only the
// first of them pays for a sift. The dispatch loop merges the ready
// queue and the heap by (time, seq), which keeps the schedule
// bit-identical to a heap of single events.
type Env struct {
	now       Time
	queue     eventQueue // future events, min-heap of runs on (time, seq)
	ready     []*Event   // same-instant events in seq (FIFO) order
	readyHead int        // index of the next ready event
	seqGen    int64
	free      *Event // free list of recycled internal events
	baton     *Proc  // process the current event resumes when its callback returns (see handoff)
	target    *Proc  // process a parking one yielded the baton to: the driver resumes it next
	live      map[*Proc]struct{}
	rng       *rand.Rand
	stopped   bool
	bounded   bool // RunUntil in progress
	limit     Time // RunUntil bound
	reaping   bool // Shutdown in progress
	served    []*Routes
	carves    map[reflect.Type]any // each type's *Chunk (see Carve)

	// Trace, when non-nil, receives a line per traced occurrence.
	// It exists for debugging protocol implementations and is nil in
	// normal runs.
	Trace func(t Time, format string, args ...any)

	// stats
	dispatched int64
	switches   int64
}

// New creates an environment whose random source is seeded with seed.
// The same seed always yields the same simulation.
func New(seed int64) *Env {
	return &Env{
		live: make(map[*Proc]struct{}),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Events reports the number of events dispatched so far; the engine
// benchmarks use it to compute events/sec.
func (e *Env) Events() int64 { return e.dispatched }

// Switches reports the number of times the driver has resumed a
// process: what the run paid in process switches, as against events.
// A process whose own wake-up came next kept running and is not
// counted. Like Events, it costs no event and no allocation.
func (e *Env) Switches() int64 { return e.switches }

// Pushes reports how many events have been pushed onto the future-event
// heap, and how many of those joined the run of the push before them
// instead of taking a heap slot (see eventQueue): what the run saved in
// sifts. Like Events, it costs no event and no allocation.
func (e *Env) Pushes() (pushes, joined int64) { return e.queue.pushes, e.queue.joined }

// Routes reports, for every served queue of the environment (see
// Queue.Serve), how its items have been served so far.
func (e *Env) Routes() []Routes {
	out := make([]Routes, len(e.served))
	for i, r := range e.served {
		out[i] = *r
		out[i].Consumer = r.c.Name()
	}
	return out
}

// Tracef emits a trace line if tracing is enabled.
func (e *Env) Tracef(format string, args ...any) {
	if e.Trace != nil {
		e.Trace(e.now, format, args...)
	}
}

// getEvent returns a recycled internal event or a fresh one, to run f.
func (e *Env) getEvent(f Firer) *Event {
	ev := e.free
	if ev == nil {
		return &Event{on: f, pooled: true, index: idle}
	}
	e.free = ev.next
	ev.next, ev.on = nil, f
	return ev
}

// recycle returns an internal event to the free list. Caller events
// (pooled == false) are left alone: their owner may still Cancel them.
func (e *Env) recycle(ev *Event) {
	if !ev.pooled {
		return
	}
	ev.on = nil
	ev.next = e.free
	e.free = ev
}

// schedule inserts an event into the ready queue (same instant) or the
// heap (future), assigning its place in the total order.
func (e *Env) schedule(ev *Event, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (%v < %v)", t, e.now))
	}
	e.seqGen++
	ev.t, ev.seq = t, e.seqGen
	if t == e.now {
		ev.index = onReady
		if len(e.ready) == cap(e.ready) && e.readyHead >= len(e.ready)/2 {
			// Full, and at least half consumed: slide the backlog down
			// instead of growing, so the list's capacity stays within a
			// small multiple of the largest same-instant backlog.
			n := copy(e.ready, e.ready[e.readyHead:])
			clear(e.ready[n:])
			e.ready, e.readyHead = e.ready[:n], 0
		}
		e.ready = append(e.ready, ev)
		return
	}
	e.queue.push(ev)
}

// At schedules fn to run at virtual time t. Scheduling in the past
// panics: it would violate causality.
func (e *Env) At(t Time, fn func()) *Event {
	ev := &Event{on: Func(fn), env: e}
	e.schedule(ev, t)
	return ev
}

// After schedules fn to run d from now.
func (e *Env) After(d Time, fn func()) *Event {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.At(e.now+d, fn)
}

// Schedule is At without the cancellation handle: the event comes
// from (and returns to) the scheduler's free list. It is the right
// call for fire-and-forget occurrences on hot paths — network frame
// deliveries, for instance — where nobody retains the event.
func (e *Env) Schedule(t Time, fn func()) { e.scheduleOn(t, Func(fn)) }

// scheduleOn is Schedule for a typed callback: a process's start and
// wake-ups schedule the process itself.
func (e *Env) scheduleOn(t Time, f Firer) { e.schedule(e.getEvent(f), t) }

// next pops the earliest pending event in (time, seq) order, merging
// the ready queue and the heap. It returns nil when both are empty.
func (e *Env) next() *Event {
	var rv *Event
	if e.readyHead < len(e.ready) {
		rv = e.ready[e.readyHead]
	}
	if len(e.queue.h) > 0 {
		hv := e.queue.h[0]
		if rv == nil || hv.before(rv) {
			return e.queue.pop()
		}
	}
	if rv == nil {
		return nil
	}
	e.ready[e.readyHead] = nil
	rv.index = idle
	e.readyHead++
	if e.readyHead == len(e.ready) {
		e.ready = e.ready[:0]
		e.readyHead = 0
	}
	return rv
}

// advance dispatches events until one ends by handing the baton to a
// live process (see handoff) and returns that process, or returns nil
// when the run is over: drained, stopped, or past the RunUntil bound.
// Events run on whoever calls it — the driver (self == nil), or a
// parking process (self), which keeps running, with no switch at all,
// if the process returned is itself.
func (e *Env) advance(self *Proc) *Proc {
	if self != nil && e.baton == self {
		// The process handed itself the baton just before parking (a
		// continuation that ran within the process's own step): the
		// current event simply continues.
		e.baton = nil
		if !self.killed {
			return self
		}
	}
	for !e.stopped {
		if e.bounded {
			if head := e.peekTime(); head == nil || head.t > e.limit {
				if head != nil {
					e.now = e.limit
				}
				break
			}
		}
		ev := e.next()
		if ev == nil {
			break
		}
		if ev.cancelled {
			continue // cancelled while on the ready list (see Event.Cancel)
		}
		e.now = ev.t
		e.dispatched++
		on := ev.on
		e.recycle(ev)
		if fn, ok := on.(Func); ok {
			fn() // most events: a direct call
		} else {
			on.Fire()
		}
		p := e.baton
		if p == nil {
			continue
		}
		// The callback ended its event by handing the baton to a parked
		// process (a wake-up does nothing else): resume it, unless it died
		// meanwhile.
		e.baton = nil
		if !p.terminated && !p.killed {
			return p
		}
	}
	return nil
}

// schedEvery is how many process switches the driver makes between
// two calls of runtime.Gosched. A coroutine switch never enters the Go
// scheduler, so at GOMAXPROCS=1 the GC's background mark worker would
// run only when the runtime preempts the driver: mark phases stretch,
// and write barriers and mark assists fill them. On kv_seqcrash the
// mean mark phase took 5.7–6.6 ms with no call, 5.3–5.4 at 4096, 2.5–3.1
// at 1024, 1.6–1.7 at 256 and 1.6–1.9 at 64, against 1.5–1.9 ms when
// every switch went through the scheduler: 256 is the sparsest that
// restores it (DESIGN.md, "One driver, pooled coroutines").
const schedEvery = 256

// drive is Run's and RunUntil's loop: it dispatches events and resumes
// each process an event hands the baton to, until the run is over.
func (e *Env) drive() {
	for p := e.advance(nil); p != nil; p = e.switchTo(p) {
	}
}

// switchTo resumes p — starting its body on a pooled coroutine, if this
// is its start — until it parks or ends, and returns the process the
// baton goes to next: the one p named as it parked, or whichever the
// driver dispatches to after p ended; nil when the run is over.
func (e *Env) switchTo(p *Proc) *Proc {
	if e.switches++; e.switches%schedEvery == 0 {
		runtime.Gosched()
	}
	if p.co == nil {
		p.co = getCoro(p)
	}
	if ended, _ := p.co.next(); !ended {
		next := e.target
		e.target = nil
		return next
	}
	putCoro(p.co)
	p.co = nil
	p.terminated = true
	delete(e.live, p)
	return e.advance(nil)
}

// handoff ends the current event by resuming the parked process p: the
// dispatch loop passes p the baton as soon as the running callback
// returns (or, when p itself is the caller, at its next park), without
// scheduling an event — no sequence number is consumed and Events()
// does not move. A wake-up is an event that does nothing else; the end
// of a hold of p's (see Resource.UseOn) does the resource's work first
// and gives the rest of its event to p, so the pair occupies the one
// slot in the (time, seq) order that a wake-up of p would. The caller
// must do nothing further in this event, and p must have no wake of its
// own pending.
func (e *Env) handoff(p *Proc) {
	if e.baton != nil {
		panic("sim: two baton handoffs in one event (" + e.baton.Name() + ", " + p.Name() + ")")
	}
	e.baton = p
}

// peekTime reports the earliest pending event without popping.
func (e *Env) peekTime() *Event {
	var rv *Event
	if e.readyHead < len(e.ready) {
		rv = e.ready[e.readyHead]
	}
	if len(e.queue.h) > 0 {
		hv := e.queue.h[0]
		if rv == nil || hv.before(rv) {
			return hv
		}
	}
	return rv
}

// Run processes events until the queue is empty or Stop is called.
// It returns the final virtual time. Processes that are still blocked
// when the queue drains are left parked; call Shutdown to reap them
// (Blocked lists them for deadlock diagnosis).
//
// Run drives the processes from the calling goroutine. A panic in a
// process body or an event handler ends the run and is re-raised here,
// with the same value.
func (e *Env) Run() Time {
	e.drive()
	return e.now
}

// RunUntil processes events until virtual time t is reached, the queue
// empties, or Stop is called. The clock ends at t only if an event is
// still pending beyond it; a run that drains first ends at its last
// event, as Run does. A cancelled event is not pending: a program
// whose only leftover is a cancelled timer gets the same answer as one
// that never armed it.
func (e *Env) RunUntil(t Time) Time {
	e.bounded, e.limit = true, t
	e.drive()
	e.bounded = false
	return e.now
}

// Stop makes Run return after the current event completes.
func (e *Env) Stop() { e.stopped = true }

// Blocked returns the names of processes that are alive but parked,
// sorted for stable output. After Run returns, a non-empty result
// usually means the simulated program deadlocked. Killed processes are
// not listed: they are dead, not deadlocked.
func (e *Env) Blocked() []string {
	var names []string
	for p := range e.live {
		if !p.terminated && !p.killed {
			names = append(names, p.Name())
		}
	}
	sort.Strings(names)
	return names
}

// Kill marks a process dead from the current instant: the driver never
// resumes it again, and any event that would have woken it is
// discarded when it fires. It models a thread dying with its crashed
// machine, so — unlike a cooperative exit — the process's current
// state (held resources, queued wait entries) is simply abandoned, and
// its deferred calls run only when Shutdown reaps it. Killing the
// process that is currently executing is allowed: it finishes its
// current non-blocking step, and its next park passes the baton on and
// returns only to unwind, when Shutdown reaps it.
func (e *Env) Kill(p *Proc) {
	if p.terminated || p.killed {
		return
	}
	p.killed = true
}

// LiveProcs reports the number of processes that have been spawned and
// have not yet terminated.
func (e *Env) LiveProcs() int { return len(e.live) }

// Shutdown kills every process still alive and reaps the parked ones,
// one after another on the calling goroutine: a parked body unwinds
// from its park by a panic its coroutine's top frame recovers, so its
// deferred calls run, exactly once, as they would on a return (Killed
// is true by then: they must not touch the simulation). A body that
// recovers that panic itself is unwound again at its next park. Each
// coroutine is then free for another process; one whose body panicked
// for real during a run is dropped instead. Shutdown must be called
// only after Run has returned.
func (e *Env) Shutdown() {
	e.reaping = true
	for p := range e.live {
		p.killed = true
		if p.co != nil {
			if ended, _ := p.co.next(); ended {
				putCoro(p.co)
			}
			p.co = nil
		}
	}
	e.reaping = false
	clear(e.live)
}

// wake schedules p to resume at the current virtual time.
func (e *Env) wake(p *Proc) { e.scheduleOn(e.now, p) }
