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
	waiters fifo[Firer] // a parked process itself, or an alive continuation
}

// alive is a continuation k waiting on a condition in p's name: it
// fires k unless p has been killed by then.
type alive struct {
	p *Proc
	k Firer
}

func (w *alive) Fire() {
	if !w.p.killed {
		w.k.Fire()
	}
}

// NewCond creates a condition variable bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// Wait parks p until Signal or Broadcast wakes it. As with
// sync.Cond, callers re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.WaitOn(p, p)
	p.park()
}

// WaitOn is Wait in continuation form: the wake-up fires k on p's
// behalf, in the event that would have resumed p, unless p has been
// killed by then. A process waiting for itself (k is p) costs nothing;
// the driver discards a killed one's wake-up.
func (c *Cond) WaitOn(p *Proc, k Firer) {
	c.env = p.env
	if k != Firer(p) {
		k = &alive{p, k}
	}
	c.waiters.push(k)
}

// Signal wakes the longest waiter, if any.
func (c *Cond) Signal() {
	if c.waiters.len() > 0 {
		c.env.scheduleOn(c.env.now, c.waiters.pop())
	}
}

// Broadcast wakes all waiters in FIFO order.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.env.scheduleOn(c.env.now, c.waiters.pop())
	}
}

// Resource is an exclusively held resource (a node's CPU, for example)
// with a FIFO wait queue and an optional high-priority lane used for
// interrupt handling.
//
// There is one claim: hold for d on behalf of p, then fire a
// continuation on the dispatch lane. A process that claims for itself
// (Use) passes itself as the continuation and parks; a consumer with no
// process behind it claims in its claimant's name (UseOn, see
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
	// lasts span. There is one holder at a time, so one slot serves every
	// claim, and the resource is the callback of its grant and of the
	// hold's end (resGranted, resExpired): a claim binds nothing.
	hold resWaiter
	span Time
}

// resGranted and resExpired are a resource as the callbacks of its
// grant and of the end of its hold.
type (
	resGranted Resource
	resExpired Resource
)

func (r *resGranted) Fire() { (*Resource)(r).granted() }

func (r *resExpired) Fire() { (*Resource)(r).expired() }

// resWaiter is one claim: hold for d on p's behalf, then fire k.
type resWaiter struct {
	p     *Proc
	d     Time
	k     Firer
	front bool
}

// NewResource creates a free resource bound to e.
func NewResource(e *Env) *Resource { return &Resource{env: e} }

// Use acquires the resource, holds it for d of virtual time, and
// releases it. It models a burst of exclusive work such as CPU time.
func (r *Resource) Use(p *Proc, d Time) {
	r.UseOn(p, d, p)
	p.park()
}

// UseOn holds the resource for d on behalf of p, once it is free, and
// then fires k on the dispatch lane right after the release. The grant
// to a claim that had to wait and the end of the hold are callback
// events; Use is this plus a park, so a program's event sequence does
// not depend on which form its claims take. k must not block (p
// resuming apart, see Proc.Fire); a consumer that is its own
// continuation (through a pointer) binds nothing to claim. If p is
// killed before the hold ends, process or claimant, its events are
// discarded: k never fires and the resource stays with the dead holder.
func (r *Resource) UseOn(p *Proc, d Time, k Firer) { r.claim(resWaiter{p, d, k, false}) }

// UseFrontOn is UseOn, but the claim jumps the wait queue. Interrupt
// service uses it so device handling preempts queued user work (though
// not the current holder: the kernel is not preemptive
// mid-instruction).
func (r *Resource) UseFrontOn(p *Proc, d Time, k Firer) { r.claim(resWaiter{p, d, k, true}) }

func (r *Resource) claim(w resWaiter) {
	if w.d < 0 {
		panic("sim: negative hold")
	}
	switch {
	case r.hold.p == nil:
		r.grant(w)
		r.env.scheduleOn(r.env.now+r.span, (*resExpired)(r))
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
	r.env.scheduleOn(r.env.now+r.span, (*resExpired)(r))
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
		r.env.scheduleOn(r.env.now, (*resGranted)(r))
	}
	if w.d > 0 {
		r.claim(w)
		return
	}
	w.k.Fire()
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

	// A served queue's consumer (see Serve): serve, and the claimant c
	// it serves as. busy holds from the scheduling of an offer (or of the
	// consumer's start) to the Done of the last item served, so at most
	// one offer is ever pending, and it is the queue's own event; in is
	// set while serve runs, and done records a Done made meanwhile.
	serve    Consumer[T]
	c        *Proc
	busy     bool
	in, done bool
	offerEv  Event // bound to offer (see queueOffer)
	routes   Routes
}

// queueOffer is a served queue as the callback of its offer event.
type queueOffer[T any] Queue[T]

func (o *queueOffer[T]) Fire() { (*Queue[T])(o).offer() }

// Routes counts how a served queue's consumer has served its items:
// Finished within the call that offered them, or Pending until a later
// event called Done. Env.Routes lists every served queue's.
type Routes struct {
	Consumer          string
	Finished, Pending int64
	c                 *Proc // the consumer's claimant, named when the routes are read
}

type queueWaiter[T any] struct {
	p    *Proc
	item T
	ok   bool
}

// NewQueue creates an empty queue bound to e. The zero Queue is ready
// to use too: it binds to the environment of its consumer (Serve) or of
// its first receiver (Get), so it can be part of its owner's record.
func NewQueue[T any](e *Env) *Queue[T] { return &Queue[T]{env: e} }

// Buffer hands the empty queue buf's storage for its items, so that a
// queue known to hold at most cap(buf) at a time never allocates: the
// buffers of many queues can be carved from one array.
func (q *Queue[T]) Buffer(buf []T) { q.items.buf = buf[:0] }

// Consumer serves the items of a served queue (see Queue.Serve). It is a
// typed value, as a Firer is: a record that consumes a queue is its own
// consumer and binds nothing.
type Consumer[T any] interface{ Consume(item T) }

// Serve makes k the queue's consumer, serving every item to completion
// on the dispatch lane on behalf of c, a claimant (see Env.Claimant):
// k claims resources and waits on conditions in c's name, through
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
func (q *Queue[T]) Serve(c *Proc, k Consumer[T]) {
	q.env, q.serve, q.c, q.busy = c.env, k, c, true
	q.offerEv.InitOn(q.env, (*queueOffer[T])(q))
	q.routes.c = c
	q.env.served = append(q.env.served, &q.routes)
	q.offerEv.Arm(0)
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
			q.offerEv.Arm(0)
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
	q.env = p.env
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
		q.serve.Consume(q.items.pop())
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
