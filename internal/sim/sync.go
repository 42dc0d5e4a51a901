package sim

// fifo is a FIFO on one backing array: pop advances a head index rather
// than re-slicing (which would shed capacity and make every later push
// reallocate), the array is reused from the start once drained, and a
// push that finds it full slides the live window down before it grows.
// A queue that cycles through a bounded number of entries therefore
// stops allocating. The slack below head also takes pushFront.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(x T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, x)
}

func (f *fifo[T]) pushFront(x T) {
	if f.head == 0 {
		var zero T
		f.buf = append(f.buf, zero)
		copy(f.buf[1:], f.buf)
		f.head = 1
	}
	f.head--
	f.buf[f.head] = x
}

// pop removes and returns the oldest entry; the caller checked len.
func (f *fifo[T]) pop() T {
	x := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return x
}

// Cond is a condition variable in virtual time. Waiters are woken in
// FIFO order, which keeps simulations deterministic. The zero Cond is
// ready to use (it binds to the environment of the first waiter), so
// it can be embedded by value in per-operation records without a
// separate allocation.
type Cond struct {
	env     *Env
	waiters fifo[*Proc]
}

// NewCond creates a condition variable bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// Wait parks p until Signal or Broadcast wakes it. As with
// sync.Cond, callers re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.env = p.env
	c.waiters.push(p)
	p.park()
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if c.waiters.len() > 0 {
		c.env.wake(c.waiters.pop())
	}
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.env.wake(c.waiters.pop())
	}
}

// Resource is an exclusively held resource (a node's CPU, for example)
// with a FIFO wait queue and an optional high-priority lane used for
// interrupt handling.
//
// A holder is a process. It either runs the hold on its own goroutine
// (Acquire ... Release, Use) or stays parked elsewhere while a
// continuation holds for it on the dispatch lane (UseFn): both kinds
// share one wait queue, and a continuation occupies exactly the event
// slots the process's own wake-ups would.
type Resource struct {
	env     *Env
	holder  *Proc
	waiters fifo[resWaiter] // FIFO; the front lane pushes at the head
	// busy accumulates total held time, for utilization reports.
	busy       Time
	acquiredAt Time

	// The current holder's continuation, when it holds through UseFn.
	// There is one holder at a time, so one slot and two method values
	// bound once serve every continuation without a per-use closure.
	holdFor   Time
	holdFn    func()
	grantedFn func()
	expiredFn func()
}

// resWaiter is one queued claim: process p waits, on its own goroutine
// (fn == nil) or through a continuation that will hold for d.
type resWaiter struct {
	p  *Proc
	d  Time
	fn func()
}

// NewResource creates a free resource bound to e.
func NewResource(e *Env) *Resource {
	r := &Resource{env: e}
	r.grantedFn, r.expiredFn = r.granted, r.expired
	return r
}

// Acquire blocks p until it holds the resource.
func (r *Resource) Acquire(p *Proc) {
	if r.holder == nil {
		r.holder = p
		r.acquiredAt = r.env.now
		return
	}
	r.waiters.push(resWaiter{p: p})
	p.park()
}

// AcquireFront is Acquire, but p jumps the wait queue. Interrupt
// service threads use it so device handling preempts queued user work
// (though not the current holder: the kernel is not preemptive
// mid-instruction).
func (r *Resource) AcquireFront(p *Proc) {
	if r.holder == nil {
		r.holder = p
		r.acquiredAt = r.env.now
		return
	}
	r.waiters.pushFront(resWaiter{p: p})
	p.park()
}

// Release passes the resource to the next waiter, if any. Only the
// holder may call Release.
func (r *Resource) Release(p *Proc) {
	if r.holder != p {
		panic("sim: Release by non-holder " + p.name)
	}
	r.busy += r.env.now - r.acquiredAt
	if r.waiters.len() == 0 {
		r.holder = nil
		return
	}
	next := r.waiters.pop()
	r.holder = next.p
	r.acquiredAt = r.env.now
	if next.fn == nil {
		r.env.wake(next.p)
		return
	}
	// A continuation's grant takes the slot the waiter's wake would.
	r.holdFor, r.holdFn = next.d, next.fn
	r.env.Schedule(r.env.now, r.grantedFn)
}

// Use acquires the resource, holds it for d of virtual time, and
// releases it. It models a burst of exclusive work such as CPU time.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}

// UseFront is Use with queue-jumping acquisition.
func (r *Resource) UseFront(p *Proc, d Time) {
	r.AcquireFront(p)
	p.Sleep(d)
	r.Release(p)
}

// UseFn is Use in continuation form, for a process p that is parked
// elsewhere (see Queue.Serve) and must stay parked: the resource is
// held for d on p's behalf, and fn then runs on the dispatch lane
// right after the release. The grant and the end of the hold are
// callback events in the slots where p's wake-up and p's Sleep resume
// would sit had p called Use itself, so a program's event sequence does
// not depend on which form its claims take. fn must not block. If p is
// killed before the hold ends, its events are discarded like a killed
// process's: fn never runs and the resource stays with the dead holder.
func (r *Resource) UseFn(p *Proc, d Time, fn func()) {
	if r.holder != nil {
		r.waiters.push(resWaiter{p: p, d: d, fn: fn})
		return
	}
	r.hold(p, d, fn)
}

// UseFrontFn is UseFn with queue-jumping acquisition.
func (r *Resource) UseFrontFn(p *Proc, d Time, fn func()) {
	if r.holder != nil {
		r.waiters.pushFront(resWaiter{p: p, d: d, fn: fn})
		return
	}
	r.hold(p, d, fn)
}

// hold takes the free resource for p's continuation.
func (r *Resource) hold(p *Proc, d Time, fn func()) {
	if d < 0 {
		panic("sim: negative hold")
	}
	r.holder = p
	r.acquiredAt = r.env.now
	r.holdFor, r.holdFn = d, fn
	r.env.Schedule(r.env.now+d, r.expiredFn)
}

// granted fires where the waiting process's wake-up would: the hold
// starts now.
func (r *Resource) granted() {
	if r.holder.killed {
		return
	}
	r.env.Schedule(r.env.now+r.holdFor, r.expiredFn)
}

// expired fires where the holder's Sleep would resume: release, then
// continue.
func (r *Resource) expired() {
	if r.holder.killed {
		return
	}
	fn := r.holdFn
	r.holdFn = nil
	r.Release(r.holder)
	fn()
}

// BusyTime reports the total virtual time the resource has been held.
func (r *Resource) BusyTime() Time {
	t := r.busy
	if r.holder != nil {
		t += r.env.now - r.acquiredAt
	}
	return t
}

// Queue is an unbounded FIFO mailbox between simulated processes.
// Items are handed directly to waiting receivers, preserving FIFO
// fairness among both items and receivers.
//
// Items and parked receivers are both kept in fifos, and receivers are
// pooled records, so a steady-state producer/consumer pair allocates
// nothing.
type Queue[T any] struct {
	env     *Env
	items   fifo[T]
	waiters fifo[*queueWaiter[T]]
	wfree   []*queueWaiter[T]
	closed  bool

	// Inline service (see Serve). server is the consumer's record while
	// an offer event is pending or an item is in service on the
	// dispatch lane; the consumer itself stays parked in Get.
	serve   func(T) Verdict
	server  *queueWaiter[T]
	offerFn func()
}

type queueWaiter[T any] struct {
	p    *Proc
	item T
	ok   bool
}

// Verdict is an inline consumer's answer to an offered item.
type Verdict int

const (
	// Decline: the consumer has not touched the item; the process gets it.
	Decline Verdict = iota
	// Finished: the item was served completely within the call.
	Finished
	// Pending: the item is in service and a later callback event will
	// call Done (or Punt).
	Pending
)

// NewQueue creates an empty queue bound to e.
func NewQueue[T any](e *Env) *Queue[T] { return &Queue[T]{env: e} }

// Serve makes fn the queue's inline consumer. The queue must have one
// consuming process, looping on Get; every item is offered to fn on the
// dispatch lane first, and only an item fn declines (or punts) costs a
// switch to the process's goroutine, which then handles it as if fn did
// not exist. Service order is the queue order: while an item is
// Pending, later items wait, exactly as they would behind a busy
// process.
//
// The schedule does not depend on what fn answers. The offer of an item
// that finds the consumer idle is a callback event in the slot its
// wake-up would occupy; a decline resumes the process within that same
// event (see Env.handoff); an item that finds the consumer busy is
// offered when its predecessor completes, with no event of its own,
// just as Get would return it. So fn must take, for an item it serves,
// the steps the process would — the same claims on the same resources
// (Resource.UseFn), the same wake-ups in the same order — and must
// decline before any side effect. fn runs while the process is parked
// and must not block. A served queue is never closed.
func (q *Queue[T]) Serve(fn func(item T) Verdict) {
	q.serve = fn
	q.offerFn = q.offer
}

// Put appends an item, waking the longest-waiting receiver if one
// exists. Put never blocks. Put on a closed queue panics.
func (q *Queue[T]) Put(x T) {
	if q.closed {
		panic("sim: Put on closed queue")
	}
	if q.waiters.len() > 0 {
		w := q.waiters.pop()
		w.item, w.ok = x, true
		if q.serve != nil {
			q.server = w
			q.env.Schedule(q.env.now, q.offerFn)
			return
		}
		q.env.wake(w.p)
		return
	}
	q.items.push(x)
}

// waiter returns a pooled record for p.
func (q *Queue[T]) waiter(p *Proc) *queueWaiter[T] {
	if n := len(q.wfree); n > 0 {
		w := q.wfree[n-1]
		q.wfree[n-1] = nil
		q.wfree = q.wfree[:n-1]
		w.p = p
		return w
	}
	return &queueWaiter[T]{p: p}
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (item T, ok bool) {
	empty := q.items.len() == 0
	if !empty && q.serve == nil {
		return q.items.pop(), true
	}
	if empty && q.closed {
		return item, false
	}
	w := q.waiter(p)
	if empty {
		q.waiters.push(w)
		p.park()
	} else {
		// Items are waiting and the consumer just finished one: offer
		// them inline from here. p is as good as parked — whatever the
		// offers come to, p waits for an item to be handed to it (at once,
		// if the first offer is declined).
		p.parked = true
		q.server = w
		if !p.killed {
			q.next()
		}
		p.wait()
	}
	item, ok = w.item, w.ok
	var zero T
	w.item, w.ok, w.p = zero, false, nil
	q.wfree = append(q.wfree, w)
	return item, ok
}

// offer fires in the slot where the idle consumer's wake-up would.
func (q *Queue[T]) offer() {
	w := q.server
	if w.p.killed {
		return // the wake-up of a dead process: discarded with its item
	}
	if q.offered() {
		q.next()
	}
}

// offered puts the item in q.server, the parked consumer's record, to
// the inline consumer and reports whether it was served then and there.
func (q *Queue[T]) offered() bool {
	switch q.serve(q.server.item) {
	case Pending:
		return false
	case Decline:
		q.Punt()
		return false
	}
	return true
}

// next offers the queued items in turn until one stays in service or
// is declined; when none is left the consumer is idle again, an
// ordinary parked receiver.
func (q *Queue[T]) next() {
	w := q.server
	for q.items.len() > 0 {
		w.item = q.items.pop()
		if !q.offered() {
			return
		}
	}
	q.server = nil
	var zero T
	w.item, w.ok = zero, false
	q.waiters.push(w)
}

// Done reports that the Pending item has been served; the next queued
// item, if any, is offered at once, within the calling event. Call it
// from a callback event, as the last thing that event does.
func (q *Queue[T]) Done() {
	if !q.server.p.killed {
		q.next()
	}
}

// Punt hands the Pending item to the consuming process after all: its
// Get returns the item within the calling event. Whatever the inline
// consumer did for the item so far, the process must not repeat. Same
// calling rule as Done.
func (q *Queue[T]) Punt() {
	w := q.server
	q.server = nil
	w.ok = true
	q.env.handoff(w.p)
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (item T, ok bool) {
	if q.items.len() == 0 {
		return item, false
	}
	return q.items.pop(), true
}

// Close marks the queue closed and wakes all blocked receivers with
// ok=false. Items already queued can still be drained with Get.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	if q.serve != nil {
		panic("sim: Close on a served queue")
	}
	q.closed = true
	for q.waiters.len() > 0 {
		q.env.wake(q.waiters.pop().p)
	}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }
