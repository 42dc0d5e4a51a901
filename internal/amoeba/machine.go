package amoeba

import (
	"fmt"
	"sync"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Costs are the kernel CPU cost constants, calibrated so that a null
// RPC lands in the ~1.2 ms range Amoeba reported on this class of
// hardware.
type Costs struct {
	// Interrupt is CPU time per delivered wire fragment.
	Interrupt sim.Time
	// Protocol is CPU time to process one delivered message above the
	// interrupt itself (demux, header checks, copies).
	Protocol sim.Time
	// Send is CPU time to build and hand one message to the driver.
	Send sim.Time
	// Switch is the thread context-switch cost charged when a blocked
	// thread is handed a message.
	Switch sim.Time
}

// quantum is the scheduling timeslice: a thread's claim on the CPU
// (Compute, above all) gives it up between quanta so other threads (and
// interrupt service) can interleave with long computations, as a
// preemptive kernel would allow.
const quantum = sim.Millisecond

// DefaultCosts returns constants for a 1992-class 68030 running the
// Amoeba kernel.
func DefaultCosts() Costs {
	return Costs{
		Interrupt: 120 * sim.Microsecond,
		Protocol:  90 * sim.Microsecond,
		Send:      180 * sim.Microsecond,
		Switch:    60 * sim.Microsecond,
	}
}

// Packet is the unit the kernel exchanges: a port to demultiplex on
// plus an opaque body. Kind labels the traffic class for wire
// statistics. The fields below Size are the header of an RPC
// transaction (see rpc.go), zero on every other packet; they travel in
// the packet itself, as Amoeba's header did beside the buffer, so that
// a request or reply whose parameters fit the header has no body.
type Packet struct {
	Port string
	Kind string
	Body any
	Size int

	TxID int64  // the transaction, unique per client machine
	Rep  bool   // a reply (a request otherwise)
	Op   string // h_command: the operation asked for
	Obj  int64  // the object it is asked of, if the service has objects
	Args Args   // its parameters, or its results in a reply
}

// Handler services packets arriving at a bound port. It runs in
// interrupt context, on the simulator's dispatch lane, after the
// delivery's interrupt and protocol CPU costs have been charged, and p
// is the machine's interrupt claimant (see sim.Env.Claimant), which has
// no process behind it: p is good for identity, for p.Now() and as the
// claimant of CPU time, and reaching a blocking call with it panics in
// sim. A handler never blocks. It sends through the continuation forms
// (SendOn, MulticastOn) with p, whatever it does after a send
// going into that send's continuation, and issues a second send from
// the first one's continuation, never beside it. The
// kernel joins them: the next delivery is served once the handler has
// returned and every continuation it started has run, so interrupt
// service stalls behind its sends, as on a real kernel. A handler must
// not wait for another delivery or a timer.
//
// A handler is a typed value, as a Round is: a record that serves a port
// binds itself (BindHandler) and allocates nothing to be bound.
type Handler interface {
	Handle(p *sim.Proc, from int, pkt Packet)
}

// HandlerFunc is a func as a Handler (see Bind).
type HandlerFunc func(p *sim.Proc, from int, pkt Packet)

func (fn HandlerFunc) Handle(p *sim.Proc, from int, pkt Packet) { fn(p, from, pkt) }

// task is a unit of interrupt service: either a delivered frame of
// frags fragments, at least one, or, with no fragments, a deferred round
// (a kernel timer's, which may send), pay. A
// frame's payload (see open) stays where the sender put it until the
// frame has been charged for: a task is copied from queue to queue, a
// packet is seventeen words, and a frame waiting in a queue owns what
// it points to.
type task struct {
	from, frags int
	pay         any
}

// Round is a typed kernel timer round: what interrupt service runs, in
// the interrupt claimant's name p, when its timer fires (see Timer).
type Round interface{ Round(p *sim.Proc) }

// deferred is a function deferred into interrupt service (see Defer).
type deferred func(p *sim.Proc)

func (fn deferred) Round(p *sim.Proc) { fn(p) }

// Machine is one kernel instance: a node id, a CPU, bound ports, and
// bookkeeping for threads.
type Machine struct {
	id        int
	env       *sim.Env
	net       *netsim.Network
	costs     Costs
	cpu       *sim.Resource
	inq       *sim.Queue[task]
	isr       *sim.Proc // the interrupt claimant
	isrRec    Claimant  // isr's record
	cur       task      // the delivery whose costs are being charged inline
	pkt       Packet    // the packet being served, opened by dispatch
	ports     map[string]Handler
	lastPort  string  // memo of the last resolution (see bound);
	last      Handler // nil after a Bind or an Unbind
	casts     *cast   // released broadcast payloads, for cast to reuse
	castRecs  sim.Chunk[cast]
	sends     *sending
	deadlines *Deadline // released deadline records, for Deadline to reuse
	joins     int       // continuations the task in service has outstanding
	crashed   bool

	threads    []*sim.Proc // live threads and the claimants of this machine (compacted lazily)
	threadHi   int         // compaction watermark for threads
	appBusy    sim.Time    // CPU time charged through Compute (application work)
	svcCounter int64
}

// NewMachine boots a kernel on node id of net.
func NewMachine(env *sim.Env, net *netsim.Network, id int, costs Costs) *Machine {
	m := &Machine{
		id:    id,
		env:   env,
		net:   net,
		costs: costs,
		cpu:   sim.NewResource(env),
		inq:   sim.NewQueue[task](env),
		ports: make(map[string]Handler),
	}
	m.cpu.Slice = quantum
	net.Handle(id, m.receive)
	m.isr = m.isrRec.Init(m, "netisr", -1)
	m.inq.Serve(m.isr, (*interruptService)(m))
	return m
}

// ID reports the node id.
func (m *Machine) ID() int { return m.id }

// Env returns the simulation environment.
func (m *Machine) Env() *sim.Env { return m.env }

// Net returns the network the machine is attached to.
func (m *Machine) Net() *netsim.Network { return m.net }

// CPU exposes the machine's processor resource.
func (m *Machine) CPU() *sim.Resource { return m.cpu }

// Interrupt service runs to completion on the simulator's dispatch
// lane, as the consumer of m.inq with no process behind it (see
// sim.Queue.Serve): a task is served once the one before it has
// finished, continuations and all, so the order of service and every
// virtual instant are those of a single thread doing all of it.
//
// interrupt serves one task. A deferred function runs in place. A
// delivery's interrupt and protocol costs are charged as a front-lane
// continuation on the CPU, and dispatch then runs the port handler.
func (m *Machine) interrupt(t task) {
	if m.crashed {
		m.inq.Done()
		return
	}
	if t.frags == 0 {
		t.pay.(Round).Round(m.isr)
		if m.joins == 0 {
			m.inq.Done()
		}
		return
	}
	m.cur = t
	cost := m.costs.Interrupt*sim.Time(t.frags) + m.costs.Protocol
	m.cpu.UseFrontOn(m.isr, cost, (*interruptService)(m))
}

// interruptService is a machine as its interrupt service: the consumer
// of its interrupt queue, and the continuation that dispatches a
// delivery once its costs have been charged.
type interruptService Machine

func (s *interruptService) Consume(t task) { (*Machine)(s).interrupt(t) }

func (s *interruptService) Fire() { (*Machine)(s).dispatch() }

// dispatch runs when the current delivery's costs have been charged: it
// opens the frame into m.pkt, the one packet built for a delivery, which
// the handler receives by value.
func (m *Machine) dispatch() {
	from := m.cur.from
	m.open(m.cur.pay)
	m.cur = task{}
	if h := m.bound(m.pkt.Port); h != nil {
		h.Handle(m.isr, from, m.pkt)
	} else {
		m.env.Tracef("node%d: drop packet for unbound port %q", m.id, m.pkt.Port)
	}
	if m.joins == 0 {
		m.inq.Done()
	}
}

// bound resolves a port. Nearly every packet a machine receives is for
// the port of the one before it, so the table is probed only when the
// port changes.
func (m *Machine) bound(port string) Handler {
	if m.last == nil || port != m.lastPort {
		m.lastPort, m.last = port, m.ports[port]
	}
	return m.last
}

// boxes recycles the payloads of unicast frames (see sending.sent and
// open). It is shared by every machine of every simulation in the
// process, because who sends and who receives is rarely balanced: under
// the PB method every member sends its requests to the sequencer and
// hears only broadcasts back.
var boxes = sync.Pool{New: func() any { return new(Packet) }}

// cast is the payload of a broadcast or multicast frame: a packet less
// the transaction header, which only unicast packets use, but for Obj,
// which a protocol may use as a word of its own (the group layer's trim
// point). Every receiver shares the one record and none writes it. It
// is the sending machine's: refs counts the receivers that have queued
// the frame and not yet opened it, and the last of them to open it
// returns it to the sender's free list. All receivers of a frame queue
// it in events scheduled when it was sent, for one instant, and open it
// in events scheduled after that, so the count cannot touch zero early;
// a frame that dies in a crashed machine's queue keeps its record from
// the list, and the collector has it.
//
// A record is in use until the slowest receiver has served its frame, so
// a sender that outpaces its receivers holds one for each frame in their
// backlog: a writer on its group's sequencer machine waits only for its
// own delivery, and an open loop of them grows the other machines'
// interrupt queues by about a tenth of a frame per write. New records
// are carved in runs (castRecs), so such a backlog costs an allocation
// per run, not per frame.
type cast struct {
	port, kind string
	body       any
	size       int
	obj        int64
	refs       int
	m          *Machine
	next       *cast
}

// poison makes a released cast and a released Request (see rpc.go)
// unusable, so that a record used after its release fails loudly. Tests
// turn it on.
var poison bool

func (m *Machine) cast(pkt Packet) netsim.Frame {
	c := m.casts
	if c == nil {
		c = &m.castRecs.Take(1)[0]
		c.m = m
	} else {
		m.casts = c.next
	}
	c.port, c.kind, c.body, c.size, c.obj, c.refs = pkt.Port, pkt.Kind, pkt.Body, pkt.Size, pkt.Obj, 0
	return netsim.Frame{Src: m.id, Kind: pkt.Kind, Size: pkt.Size, Payload: c}
}

// receive is the machine's network handler: it queues the frame for
// interrupt service as it is.
func (m *Machine) receive(d netsim.Delivery) {
	if c, ok := d.Frame.Payload.(*cast); ok {
		c.refs++
	}
	m.inq.Put(task{from: d.Frame.Src, frags: d.Fragments, pay: d.Frame.Payload})
}

// open copies a frame's packet into m.pkt and lets go of the payload. A
// unicast frame's is a box (see sending.sent) that only this machine will
// ever see, so it goes back to the pool here. A frame the network drops
// never gets here, and its box goes to the collector.
func (m *Machine) open(pay any) {
	switch b := pay.(type) {
	case *cast:
		m.pkt = Packet{Port: b.port, Kind: b.kind, Body: b.body, Size: b.size, Obj: b.obj}
		if b.refs--; b.refs == 0 {
			b.body = nil
			if poison {
				b.port, b.size = "amoeba: released cast", -1
			}
			b.next, b.m.casts = b.m.casts, b
		}
	case *Packet:
		m.pkt = *b
		*b = Packet{}
		boxes.Put(b)
	default:
		panic(fmt.Sprintf("amoeba: node %d received non-Packet payload %T", m.id, pay))
	}
}

// Bind registers a func as the handler for a port (see BindHandler).
func (m *Machine) Bind(port string, fn HandlerFunc) { m.BindHandler(port, fn) }

// BindHandler registers the handler for a port. Binding an already-bound
// port panics: port names are service identities.
func (m *Machine) BindHandler(port string, h Handler) {
	if _, dup := m.ports[port]; dup {
		panic(fmt.Sprintf("amoeba: node %d: port %q already bound", m.id, port))
	}
	m.ports[port], m.last = h, nil
}

// Unbind removes a port binding.
func (m *Machine) Unbind(port string) {
	delete(m.ports, port)
	m.last = nil
}

// SpawnThread starts a kernel or user thread on this machine. The
// thread is a simulated process; its compute must be charged explicitly
// through Compute (or cpu.Use) to occupy the machine's CPU. Threads
// die with the machine: Crash kills every thread spawned here.
func (m *Machine) SpawnThread(name string, fn func(p *sim.Proc)) *sim.Proc {
	if m.crashed {
		panic(fmt.Sprintf("amoeba: spawn %q on crashed node %d", name, m.id))
	}
	if len(m.threads) >= m.threadHi {
		// Compact away terminated threads so short-lived threads (a
		// program's forks) do not accumulate for the machine's
		// lifetime. Amortized O(1) per spawn.
		live := m.threads[:0]
		for _, t := range m.threads {
			if !t.Terminated() {
				live = append(live, t)
			}
		}
		clear(m.threads[len(live):])
		m.threads = live
		m.threadHi = 2*len(live) + 16
	}
	p := m.env.Spawn(fmt.Sprintf("node%d/%s", m.id, name), fn)
	m.threads = append(m.threads, p)
	return p
}

// Claimant is the record in whose name a consumer of a machine with no
// process behind it claims the CPU and waits (see sim.Env.Claimant),
// kept as part of the consumer's own record. It dies with the machine,
// as a thread does. Its name, "node<id>/<role>", or "node<id>/<role><n>"
// for n >= 0, is rendered the first time something reads it.
type Claimant struct {
	sim.Proc
	m    *Machine
	role string
	n    int
}

// Init makes c a claimant of m, in the given role, and returns it.
func (c *Claimant) Init(m *Machine, role string, n int) *sim.Proc {
	if m.crashed {
		panic(fmt.Sprintf("amoeba: claimant %q on crashed node %d", role, m.id))
	}
	c.m, c.role, c.n = m, role, n
	c.InitClaimant(m.env, c)
	m.threads = append(m.threads, &c.Proc)
	return &c.Proc
}

// String renders the claimant's name.
func (c *Claimant) String() string {
	if c.n < 0 {
		return fmt.Sprintf("node%d/%s", c.m.id, c.role)
	}
	return fmt.Sprintf("node%d/%s%d", c.m.id, c.role, c.n)
}

// Compute charges d of application CPU time to the machine on behalf
// of thread p, blocking while the CPU is busy. Long computations are
// sliced into scheduling quanta so other threads and interrupt service
// interleave.
func (m *Machine) Compute(p *sim.Proc, d sim.Time) {
	m.ComputeOn(p, d, p)
	p.Park()
}

// ComputeOn is Compute in continuation form: d is charged on p's behalf,
// a quantum at a time (see sim.Resource.Slice), and k then fires on the
// dispatch lane (see sim.Resource.UseOn). A consumer with no process
// behind it is charged this way, in its claimant's name. A charge of
// nothing fires k at once, as Compute returns at once.
func (m *Machine) ComputeOn(p *sim.Proc, d sim.Time, k sim.Firer) {
	if d <= 0 {
		k.Fire()
		return
	}
	m.appBusy += d
	m.cpu.UseOn(p, d, k)
}

// AppBusy reports total application CPU time charged via Compute.
func (m *Machine) AppBusy() sim.Time { return m.appBusy }

// Send transmits a unicast packet to dst, charging send-side CPU to p.
func (m *Machine) Send(p *sim.Proc, dst int, pkt Packet) {
	m.SendOn(p, dst, pkt, p)
	p.Park()
}

// SendOn is Send in continuation form: the send cost is charged on p's
// behalf, and the packet is then transmitted and then fires, in the
// event where Send would have returned to p; a record that is its own
// continuation binds nothing. A crashed machine sends nothing and
// charges nothing, and then fires at once. A claim made in the interrupt
// claimant's name belongs to the task in service, which ends only once
// then has fired (see Handler).
func (m *Machine) SendOn(p *sim.Proc, dst int, pkt Packet, then sim.Firer) {
	m.sendOn(p, dst, pkt, nil, then)
}

// sending is a send on its way out; records are pooled per machine.
type sending struct {
	m       *Machine
	dst     int
	members []int // a multicast's receivers
	pkt     Packet
	then    sim.Firer
	kernel  bool // claimed by the interrupt claimant
	next    *sending
}

// Fire transmits the packet once its send cost has been charged: a send
// record is its charge's continuation.
func (s *sending) Fire() { s.sent() }

func (m *Machine) sendOn(p *sim.Proc, dst int, pkt Packet, members []int, then sim.Firer) {
	if m.crashed {
		then.Fire()
		return
	}
	s := m.sends
	if s == nil {
		s = &sending{m: m}
	} else {
		m.sends = s.next
	}
	s.dst, s.members, s.pkt, s.then, s.kernel = dst, members, pkt, then, p == m.isr
	if s.kernel {
		m.joins++
	}
	m.cpu.UseOn(p, m.costs.Send, s)
}

// sent hands a packet whose send cost has been charged to the driver
// and runs the send's continuation; the last continuation of the task in
// service ends it. A unicast frame carries a copy of the packet in a
// pooled box that the receiving machine returns (see open); the caller's
// packet is not referred to again, so a record it came from may be
// reused while the frame is in flight.
func (s *sending) sent() {
	m := s.m
	switch {
	case s.members != nil:
		m.net.MulticastFrame(m.cast(s.pkt), s.members)
	case s.dst == netsim.Broadcast: // several receivers must not share a box
		m.net.BroadcastFrame(m.cast(s.pkt))
	default:
		box := boxes.Get().(*Packet)
		*box = s.pkt
		m.net.SendFrame(netsim.Frame{Src: m.id, Dst: s.dst, Kind: s.pkt.Kind, Size: s.pkt.Size, Payload: box})
	}
	then, kernel := s.then, s.kernel
	*s = sending{m: m, next: m.sends}
	m.sends = s
	then.Fire()
	if kernel {
		if m.joins--; m.joins == 0 {
			m.inq.Done()
		}
	}
}

// Broadcast transmits a packet to all other machines, charging
// send-side CPU to p. It requires broadcast-capable hardware; its
// continuation form is SendOn to netsim.Broadcast.
func (m *Machine) Broadcast(p *sim.Proc, pkt Packet) { m.Send(p, netsim.Broadcast, pkt) }

// MulticastOn transmits a packet to the listed member nodes, charging
// send-side CPU to p, in continuation form with a typed continuation
// (see SendOn). The wire carries one frame (hardware multicast); only
// member NICs take receive interrupts. members must be sorted ascending
// for deterministic delivery order.
func (m *Machine) MulticastOn(p *sim.Proc, pkt Packet, members []int, then sim.Firer) {
	m.sendOn(p, 0, pkt, members, then)
}

// Defer enqueues fn to run in interrupt context, as a task of interrupt
// service: on the dispatch lane, with the interrupt claimant for p,
// under the contract of a Handler. Timer callbacks use this to re-enter
// kernel context (see Deadline). A crashed machine ignores it.
func (m *Machine) Defer(fn func(p *sim.Proc)) { m.deferRound(deferred(fn)) }

// deferRound queues a round for interrupt service (see Defer).
func (m *Machine) deferRound(r Round) {
	if m.crashed {
		return
	}
	m.inq.Put(task{pay: r})
}

// Timer is a kernel timer armed again and again (the group layer's
// heartbeat): each firing queues its round for interrupt service (see
// Defer), which a crashed machine does not do. It is part of the record
// that owns it, and its round is typed, so making it binds nothing.
type Timer struct {
	ev    sim.Event
	m     *Machine
	round Round
}

// Init binds the timer to m and to its round.
func (t *Timer) Init(m *Machine, round Round) {
	t.m, t.round = m, round
	t.ev.InitOn(m.env, (*timerFire)(t))
}

// Arm arms the timer to fire d from now, in place of any firing still
// pending (see sim.Event.Arm).
func (t *Timer) Arm(d sim.Time) { t.ev.Arm(d) }

// Cancel removes the pending firing, if any. A round the timer has
// already queued for interrupt service still runs.
func (t *Timer) Cancel() { t.ev.Cancel() }

// timerFire is a timer as the callback of its event.
type timerFire Timer

func (f *timerFire) Fire() { f.m.deferRound(f.round) }

// Deadline is a kernel deadline: a timer round that runs once, deferred
// into interrupt service (see Defer) when the deadline fires, unless it
// is cancelled before. Records are the machine's, recycled: a deadline
// takes one when it is armed and gives it back once its round has run,
// or when it is cancelled before it fired. A cancel after the firing
// leaves the queued round alone, so a deadline armed again while that
// round waits (a packer flushed on its op count, then handed its next
// op) runs both rounds. A crashed machine drops its rounds, and their
// records with them.
type Deadline struct {
	ev    sim.Event // bound to fire once, when the record is made
	m     *Machine
	round func(p *sim.Proc)
	armed bool // from the arm to the firing or the cancel
	next  *Deadline
}

// deadlineTask is a deadline as the callback of its event and as the
// task of interrupt service that runs its round, so a record binds
// nothing.
type deadlineTask Deadline

func (t *deadlineTask) Fire() { (*Deadline)(t).fire() }

func (t *deadlineTask) Round(p *sim.Proc) { (*Deadline)(t).run(p) }

// Deadline arms a kernel deadline: round runs in interrupt context d
// from now. The arm and a cancel take the places in the (time, seq)
// order that scheduling and cancelling an event take (see
// sim.Event.Arm). The caller may Cancel the deadline until its round
// starts and must let go of it then: from the end of the round on, the
// record may be another deadline.
func (m *Machine) Deadline(d sim.Time, round func(p *sim.Proc)) *Deadline {
	dl := m.deadlines
	if dl == nil {
		dl = &Deadline{m: m}
		dl.ev.InitOn(m.env, (*deadlineTask)(dl))
	} else {
		m.deadlines, dl.next = dl.next, nil
	}
	dl.round, dl.armed = round, true
	dl.ev.Arm(d)
	return dl
}

// Cancel removes the deadline's round if the deadline has not fired; it
// does nothing once it has.
func (dl *Deadline) Cancel() {
	if !dl.armed {
		return
	}
	dl.armed = false
	dl.ev.Cancel()
	dl.release()
}

// fire queues the round for interrupt service, which a crashed machine
// does not do.
func (dl *Deadline) fire() {
	dl.armed = false
	dl.m.deferRound((*deadlineTask)(dl))
}

// run is the task of interrupt service that runs the round.
func (dl *Deadline) run(p *sim.Proc) {
	dl.round(p)
	dl.release()
}

// release gives the record back to its machine.
func (dl *Deadline) release() {
	m := dl.m
	dl.round, dl.next, m.deadlines = nil, m.deadlines, dl
}

// Crash simulates a processor crash: the machine leaves the network,
// stops servicing its queues, and every thread spawned on it is killed
// where it stands — mid-computation, parked on a condition, or waiting
// for a reply — as is every claimant, with whatever continuation is due
// in its name. Nothing on the machine runs again. In-flight RPCs from
// other machines to this one fail with ErrCrashed once their timeout
// notices the destination is down.
func (m *Machine) Crash() {
	if m.crashed {
		return
	}
	m.crashed = true
	m.net.SetDown(m.id, true)
	for _, p := range m.threads {
		m.env.Kill(p)
	}
}

// Crashed reports whether the machine has crashed.
func (m *Machine) Crashed() bool { return m.crashed }

// ServiceID returns a machine-unique id, used by protocols to mint
// unique message identifiers.
func (m *Machine) ServiceID() int64 {
	m.svcCounter++
	return int64(m.id)<<40 | m.svcCounter
}
