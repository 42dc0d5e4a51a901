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
	waiters fifo[condWaiter]
}

// condWaiter is a parked process, or a continuation fn waiting on p's
// behalf (see WaitFn).
type condWaiter struct {
	p  *Proc
	fn func()
}

// NewCond creates a condition variable bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// Wait parks p until Signal or Broadcast wakes it. As with
// sync.Cond, callers re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.env = p.env
	c.waiters.push(condWaiter{p: p})
	p.park()
}

// WaitFn is Wait in continuation form: the wake-up runs fn on p's
// behalf, in the event that would have resumed p, unless p has been
// killed by then.
func (c *Cond) WaitFn(p *Proc, fn func()) {
	c.env = p.env
	c.waiters.push(condWaiter{p, fn})
}

// Signal wakes the longest waiter, if any.
func (c *Cond) Signal() {
	if c.waiters.len() > 0 {
		c.wake(c.waiters.pop())
	}
}

// Broadcast wakes all waiters in FIFO order.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.wake(c.waiters.pop())
	}
}

func (c *Cond) wake(w condWaiter) {
	if w.fn == nil {
		c.env.wake(w.p)
		return
	}
	c.env.Schedule(c.env.now, func() {
		if !w.p.killed {
			w.fn()
		}
	})
}

// Resource is an exclusively held resource (a node's CPU, for example)
// with a FIFO wait queue and an optional high-priority lane used for
// interrupt handling.
//
// There is one claim: hold for d on behalf of p, then run a
// continuation on the dispatch lane. A process that claims for itself
// (Use) passes the continuation that resumes it and parks; a consumer
// with no process behind it claims in its claimant's name (UseFn, see
// Queue.Serve) and passes its own. Both are the same events in the same
// slots, so the schedule cannot tell who claimed.
type Resource struct {
	// Slice, if positive, is the longest a FIFO-lane claim holds at a
	// time — a scheduling quantum: a longer claim gives way, a slice at a
	// time, to whoever queued meanwhile and queues again for the rest, as
	// if it were made slice by slice. Front-lane claims are never cut.
	Slice Time

	env     *Env
	waiters fifo[resWaiter] // FIFO; the front lane pushes at the head
	// busy accumulates total held time, for utilization reports.
	busy       Time
	acquiredAt Time

	// The current hold (hold.p is nil while the resource is free), which
	// lasts span. There is one holder at a time, so one slot and two
	// method values bound once serve every claim without a per-use
	// closure.
	hold      resWaiter
	span      Time
	grantedFn func()
	expiredFn func()
}

// resWaiter is one claim: hold for d on p's behalf, then run fn.
type resWaiter struct {
	p     *Proc
	d     Time
	fn    func()
	front bool
}

// NewResource creates a free resource bound to e.
func NewResource(e *Env) *Resource {
	r := &Resource{env: e}
	r.grantedFn, r.expiredFn = r.granted, r.expired
	return r
}

// Use acquires the resource, holds it for d of virtual time, and
// releases it. It models a burst of exclusive work such as CPU time.
func (r *Resource) Use(p *Proc, d Time) {
	r.UseFn(p, d, p.resumeFn)
	p.park()
}

// UseFn holds the resource for d on behalf of p, once it is free, and
// then runs fn on the dispatch lane right after the release. The grant
// to a claim that had to wait and the end of the hold are callback
// events; Use is this plus a park, so a program's event sequence does
// not depend on which form its claims take. fn must not block (a resume
// of p apart, see Proc.Resume). If p is killed before the hold ends,
// process or claimant, its events are discarded: fn never runs and the
// resource stays with the dead holder.
func (r *Resource) UseFn(p *Proc, d Time, fn func()) { r.claim(resWaiter{p, d, fn, false}) }

// UseFrontFn is UseFn, but the claim jumps the wait queue. Interrupt
// service uses it so device handling preempts queued user work (though
// not the current holder: the kernel is not preemptive
// mid-instruction).
func (r *Resource) UseFrontFn(p *Proc, d Time, fn func()) { r.claim(resWaiter{p, d, fn, true}) }

func (r *Resource) claim(w resWaiter) {
	if w.d < 0 {
		panic("sim: negative hold")
	}
	switch {
	case r.hold.p == nil:
		r.grant(w)
		r.env.Schedule(r.env.now+r.span, r.expiredFn)
	case w.front:
		r.waiters.pushFront(w)
	default:
		r.waiters.push(w)
	}
}

// grant makes w the current hold.
func (r *Resource) grant(w resWaiter) {
	r.acquiredAt, r.hold, r.span = r.env.now, w, w.d
	if !w.front && r.Slice > 0 && w.d > r.Slice {
		r.span = r.Slice
	}
}

// granted starts the hold of a claim that waited, unless the claimant
// was killed meanwhile.
func (r *Resource) granted() {
	if r.hold.p.killed {
		return
	}
	r.env.Schedule(r.env.now+r.span, r.expiredFn)
}

// expired ends the hold: the resource passes to the next waiter, if
// any, and the holder's continuation runs — or, if a slice has ended
// and not the claim, the rest queues like a claim of its own.
func (r *Resource) expired() {
	if r.hold.p.killed {
		return
	}
	w := r.hold
	w.d -= r.span
	r.busy += r.env.now - r.acquiredAt
	r.hold = resWaiter{}
	if r.waiters.len() > 0 {
		r.grant(r.waiters.pop())
		r.env.Schedule(r.env.now, r.grantedFn)
	}
	if w.d > 0 {
		r.claim(w)
		return
	}
	w.fn()
}

// BusyTime reports the total virtual time the resource has been held.
func (r *Resource) BusyTime() Time {
	t := r.busy
	if r.hold.p != nil {
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

	// A served queue's consumer (see Serve): fn, and the claimant c it
	// serves as. busy holds from the scheduling of an offer (or of the
	// consumer's start) to the Done of the last item served; in is set
	// while fn runs, and done records a Done made meanwhile.
	serve    func(T)
	c        *Proc
	busy     bool
	in, done bool
	offerFn  func()
	routes   Routes
}

// Routes counts how a served queue's consumer has served its items:
// Finished within the call that offered them, or Pending until a later
// event called Done. Env.Routes lists every served queue's.
type Routes struct {
	Consumer          string
	Finished, Pending int64
}

type queueWaiter[T any] struct {
	p    *Proc
	item T
	ok   bool
}

// NewQueue creates an empty queue bound to e.
func NewQueue[T any](e *Env) *Queue[T] { return &Queue[T]{env: e} }

// Serve makes fn the queue's consumer, serving every item to completion
// on the dispatch lane on behalf of c, a claimant (see Env.Claimant):
// fn claims resources and waits on conditions in c's name, through
// continuations, and calls Done when the item has been served — within
// the call, or as the last thing a later callback event does. Service
// order is the queue order: while an item is in service, later items
// wait.
//
// The consumer keeps a thread's schedule. It starts from an event
// scheduled now, where a thread spawned now would start, and takes what
// was put before then from there; an item that finds it idle is offered
// from an event of its own, where a parked thread's wake-up would be;
// an item that finds it busy is offered within the event that ends its
// predecessor, as a thread's next Get would return it. A served queue
// is never closed and has no Get.
func (q *Queue[T]) Serve(c *Proc, fn func(item T)) {
	q.serve, q.c, q.busy = fn, c, true
	q.offerFn = q.offer
	q.routes.Consumer = c.name
	q.env.served = append(q.env.served, &q.routes)
	q.env.Schedule(q.env.now, q.offerFn)
}

// Put appends an item, waking the longest-waiting receiver if one
// exists. Put never blocks. Put on a closed queue panics.
func (q *Queue[T]) Put(x T) {
	if q.closed {
		panic("sim: Put on closed queue")
	}
	if q.serve != nil {
		q.items.push(x)
		if !q.busy {
			q.busy = true
			q.env.Schedule(q.env.now, q.offerFn)
		}
		return
	}
	if q.waiters.len() > 0 {
		w := q.waiters.pop()
		w.item, w.ok = x, true
		q.env.wake(w.p)
		return
	}
	q.items.push(x)
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (item T, ok bool) {
	if q.items.len() > 0 {
		return q.items.pop(), true
	}
	if q.closed {
		return item, false
	}
	w := q.waiter(p)
	q.waiters.push(w)
	p.park()
	item, ok = w.item, w.ok
	var zero T
	w.item, w.ok, w.p = zero, false, nil
	q.wfree = append(q.wfree, w)
	return item, ok
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

// offer fires where the idle consumer's thread would have been resumed:
// at its start, or with an item put while it was idle.
func (q *Queue[T]) offer() {
	if !q.c.killed {
		q.next()
	}
}

// next offers the queued items in turn until one stays in service; when
// none is left the consumer is idle again.
func (q *Queue[T]) next() {
	for q.items.len() > 0 {
		q.in, q.done = true, false
		q.serve(q.items.pop())
		q.in = false
		if !q.done {
			q.routes.Pending++
			return
		}
		q.routes.Finished++
	}
	q.busy = false
}

// Done reports that the item in service has been served; the next
// queued item, if any, is offered at once, within the calling event.
func (q *Queue[T]) Done() {
	if q.in {
		q.done = true
		return
	}
	if !q.c.killed {
		q.next()
	}
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
