package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// Broadcast is the destination address meaning "all nodes but the
// sender".
const Broadcast = -1

// Params configures the physical network, which by itself loses
// nothing: frame loss is a FaultPlan loss window.
type Params struct {
	// BandwidthBps is the raw signalling rate. The paper's Ethernet
	// runs at 10 Mb/s.
	BandwidthBps int64
	// PropDelay is the one-way propagation plus controller latency.
	PropDelay sim.Time
	// FrameOverhead is per-frame wire overhead in bytes (preamble,
	// header, CRC, interframe gap).
	FrameOverhead int
	// MTU is the maximum payload per frame; larger messages fragment.
	MTU int
	// BroadcastCapable reports whether the hardware supports
	// broadcast. The point-to-point runtime system is measured on
	// networks without it; calling BroadcastFrame then panics so an
	// experiment cannot accidentally cheat.
	BroadcastCapable bool
}

// DefaultParams returns the testbed network of the paper: 10 Mb/s
// Ethernet, 1500-byte MTU, broadcast-capable.
func DefaultParams() Params {
	return Params{
		BandwidthBps:     10_000_000,
		PropDelay:        50 * sim.Microsecond,
		FrameOverhead:    42, // preamble 8 + MAC header/CRC 22 + IFG 12
		MTU:              1500,
		BroadcastCapable: true,
	}
}

// Frame is a message handed to the network. Payload travels by
// reference (the simulation shares memory); Size is the number of
// payload bytes the frame occupies on the wire and is what the
// bandwidth model uses.
type Frame struct {
	Src     int
	Dst     int // node id, or Broadcast
	Kind    string
	Size    int
	Payload any
}

// Delivery is what a node's handler receives: the frame plus the
// number of wire fragments it arrived in, which the kernel charges one
// interrupt each.
type Delivery struct {
	Frame     Frame
	Fragments int
	At        sim.Time
}

// Handler consumes deliveries for one node. Handlers run in event
// context and must not block; kernels enqueue into their own interrupt
// queues.
type Handler func(d Delivery)

// Stats aggregates wire-level measurements. Both drop counters count
// per-receiver deliveries an installed FaultPlan suppressed.
type Stats struct {
	Frames       int64 // fragments placed on the wire
	Messages     int64 // logical sends
	WireBytes    int64 // bytes on the wire including overhead
	PayloadBytes int64
	Drops        int64 // lost to a loss window: some fragment's roll failed
	FaultDrops   int64 // cut by a partition
	Interrupts   []int64
	BytesByKind  map[string]int64
	CountsByKind map[string]int64
	BusBusy      sim.Time
}

// Network is the shared bus connecting n nodes.
type Network struct {
	env       *sim.Env
	params    Params
	n         int
	all       []int // every node id, ascending: a broadcast's receivers
	handlers  []Handler
	down      []bool
	downCount int
	busFreeAt sim.Time
	faults    *FaultPlan
	stats     Stats
	free      *flight // arrived frames' records, for launch to reuse
}

// flight is one frame on its way: to the receiver dst or, when dst is
// Broadcast, to every node of members at once. Records are pooled per
// network and carry their arrival callback as a method value bound
// once, so a frame in flight costs neither a closure nor a copy of the
// frame on the heap. A record is the network's from launch to arrive,
// which returns it before the first handler runs.
type flight struct {
	nw       *Network
	f        Frame
	dst      int
	members  []int // the caller's, never written
	at       sim.Time
	frags    int
	arriveFn func() // fl.arrive
	next     *flight
}

// poison makes arrive scribble over the record it releases, so that a
// record used after its release fails loudly. Tests turn it on.
var poison bool

// arrive fires at the frame's arrival instant. All receivers of a
// broadcast hear it in this one event, in node order.
func (fl *flight) arrive() {
	nw, dst, members := fl.nw, fl.dst, fl.members
	d := Delivery{Frame: fl.f, Fragments: fl.frags, At: fl.at}
	fl.f, fl.members = Frame{}, nil
	if poison {
		fl.dst, fl.frags = -2, -1 // no node's
	}
	fl.next, nw.free = nw.free, fl
	if dst != Broadcast {
		if h := nw.hears(dst, d.Fragments); h != nil {
			h(d)
		}
		return
	}
	for _, dst := range members {
		if dst == d.Frame.Src {
			continue
		}
		if h := nw.hears(dst, d.Fragments); h != nil {
			h(d)
		}
	}
}

// hears returns dst's handler, having counted the receive interrupts of
// a frame that has arrived in frags fragments, or nil if dst is down or
// has none.
func (nw *Network) hears(dst, frags int) Handler {
	h := nw.handlers[dst]
	if h != nil && !nw.down[dst] {
		nw.stats.Interrupts[dst] += int64(frags)
		return h
	}
	return nil
}

// launch schedules the arrival of f, at dst or at all of members.
// Nobody cancels a frame in flight, so the event too comes from a free
// list, the scheduler's.
func (nw *Network) launch(f Frame, dst int, members []int, at sim.Time, frags int) {
	fl := nw.free
	if fl == nil {
		fl = &flight{nw: nw}
		fl.arriveFn = fl.arrive
	} else {
		nw.free = fl.next
	}
	fl.f, fl.dst, fl.members, fl.at, fl.frags = f, dst, members, at, frags
	nw.env.Schedule(at, fl.arriveFn)
}

// New creates a network of n nodes with the given parameters.
func New(env *sim.Env, n int, params Params) *Network {
	if params.BandwidthBps <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	if params.MTU <= 0 {
		panic("netsim: MTU must be positive")
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return &Network{
		env:      env,
		params:   params,
		n:        n,
		all:      all,
		handlers: make([]Handler, n),
		down:     make([]bool, n),
		stats: Stats{
			Interrupts:   make([]int64, n),
			BytesByKind:  map[string]int64{},
			CountsByKind: map[string]int64{},
		},
	}
}

// Nodes reports the number of attached nodes.
func (nw *Network) Nodes() int { return nw.n }

// Params returns the network configuration.
func (nw *Network) Params() Params { return nw.params }

// Handle registers the delivery handler for node.
func (nw *Network) Handle(node int, h Handler) {
	nw.handlers[node] = h
}

// SetDown marks a node crashed (true) or recovered (false). Down nodes
// neither send nor receive.
func (nw *Network) SetDown(node int, down bool) {
	if nw.down[node] != down {
		if down {
			nw.downCount++
		} else {
			nw.downCount--
		}
	}
	nw.down[node] = down
}

// Down reports whether node is marked crashed.
func (nw *Network) Down(node int) bool { return nw.down[node] }

// Downs reports how many nodes are marked crashed.
func (nw *Network) Downs() int { return nw.downCount }

// fragments reports how many wire frames a payload of size bytes needs.
func (nw *Network) fragments(size int) int {
	if size <= 0 {
		return 1
	}
	return (size + nw.params.MTU - 1) / nw.params.MTU
}

// FragmentsFor exposes the fragmentation rule; the group layer uses it
// to pick between the PB and BB methods ("over 1 packet").
func (nw *Network) FragmentsFor(size int) int { return nw.fragments(size) }

// transmit reserves the bus and returns the delivery time and fragment
// count.
func (nw *Network) transmit(f Frame) (deliverAt sim.Time, frags int) {
	frags = nw.fragments(f.Size)
	wireBytes := int64(f.Size) + int64(frags*nw.params.FrameOverhead)
	txDur := sim.Time(wireBytes * 8 * int64(sim.Second) / nw.params.BandwidthBps)
	start := nw.env.Now()
	if nw.busFreeAt > start {
		start = nw.busFreeAt
	}
	nw.busFreeAt = start + txDur
	nw.stats.BusBusy += txDur
	nw.stats.Frames += int64(frags)
	nw.stats.Messages++
	nw.stats.WireBytes += wireBytes
	nw.stats.PayloadBytes += int64(f.Size)
	nw.stats.BytesByKind[f.Kind] += wireBytes
	nw.stats.CountsByKind[f.Kind]++
	return nw.busFreeAt + nw.params.PropDelay, frags
}

// deliver schedules the frame's arrival at dst, applying the fault
// plan's partitions and loss windows. A message is lost to a receiver
// if any fragment is: one roll per fragment, in fragment order, until
// one fails.
func (nw *Network) deliver(f Frame, dst int, at sim.Time, frags int) {
	if nw.down[dst] || nw.handlers[dst] == nil {
		return
	}
	if nw.faults != nil {
		now := nw.env.Now()
		if nw.linkCut(f.Src, dst, now) {
			nw.stats.FaultDrops++
			nw.env.Tracef("net: partition cut %s %d->%d", f.Kind, f.Src, dst)
			return
		}
		if p := nw.linkLoss(f.Src, dst, now); p > 0 {
			for i := 0; i < frags; i++ {
				if nw.env.Rand().Float64() < p {
					nw.stats.Drops++
					nw.env.Tracef("net: fault loss %s %d->%d", f.Kind, f.Src, dst)
					return
				}
			}
		}
	}
	nw.launch(f, dst, nil, at, frags)
}

// SendFrame transmits a unicast frame. The send is fire-and-forget;
// reliability belongs to the protocols above.
func (nw *Network) SendFrame(f Frame) {
	if f.Dst == Broadcast {
		nw.BroadcastFrame(f)
		return
	}
	if f.Dst < 0 || f.Dst >= nw.n {
		panic(fmt.Sprintf("netsim: bad destination %d", f.Dst))
	}
	if nw.down[f.Src] {
		return
	}
	at, frags := nw.transmit(f)
	nw.deliver(f, f.Dst, at, frags)
}

// BroadcastFrame transmits a frame to every node except the sender.
// It panics if the hardware is not broadcast-capable, so experiments
// on point-to-point networks cannot accidentally use it.
func (nw *Network) BroadcastFrame(f Frame) {
	if !nw.params.BroadcastCapable {
		panic("netsim: broadcast on non-broadcast network")
	}
	nw.fanOut(f, nw.all)
}

// MulticastFrame transmits a frame to the listed member nodes except
// the sender, modeling hardware multicast (the Amoeba testbed's
// Ethernet filtered multicast addresses in the controller): the bus is
// occupied exactly once, and only member NICs raise receive
// interrupts — every other node's hardware drops the frame for free.
// members must be sorted ascending so delivery order is deterministic,
// and must not change while the frame is in flight.
func (nw *Network) MulticastFrame(f Frame, members []int) {
	if !nw.params.BroadcastCapable {
		panic("netsim: multicast on non-broadcast network")
	}
	nw.fanOut(f, members)
}

// fanOut puts one frame for all of members but the sender on the wire.
func (nw *Network) fanOut(f Frame, members []int) {
	if nw.down[f.Src] {
		return
	}
	f.Dst = Broadcast
	at, frags := nw.transmit(f)
	if nw.downCount == 0 && !nw.faultsActive(nw.env.Now()) {
		// Healthy and fault-free: all receivers hear the frame at the same
		// instant, so one flight fans out to every handler in node order
		// — the delivery order of the per-receiver events it replaces,
		// at a third of the event traffic.
		nw.launch(f, Broadcast, members, at, frags)
		return
	}
	// Per-receiver loss rolls, and the schedule-time down-node filter (a
	// node down at transmit time must not hear the frame even if it
	// recovers before the arrival instant), take a flight per receiver.
	for _, dst := range members {
		if dst != f.Src {
			nw.deliver(f, dst, at, frags)
		}
	}
}

// Stats returns a snapshot of the wire statistics.
func (nw *Network) Stats() Stats {
	s := nw.stats
	s.Interrupts = append([]int64(nil), nw.stats.Interrupts...)
	s.BytesByKind = map[string]int64{}
	for k, v := range nw.stats.BytesByKind {
		s.BytesByKind[k] = v
	}
	s.CountsByKind = map[string]int64{}
	for k, v := range nw.stats.CountsByKind {
		s.CountsByKind[k] = v
	}
	return s
}

// ResetStats zeroes the statistics, e.g. after a warm-up phase.
func (nw *Network) ResetStats() {
	nw.stats = Stats{
		Interrupts:   make([]int64, nw.n),
		BytesByKind:  map[string]int64{},
		CountsByKind: map[string]int64{},
	}
}

// TxTime reports how long a payload of size bytes occupies the bus,
// useful for analytical checks in tests.
func (nw *Network) TxTime(size int) sim.Time {
	frags := nw.fragments(size)
	wireBytes := int64(size) + int64(frags*nw.params.FrameOverhead)
	return sim.Time(wireBytes * 8 * int64(sim.Second) / nw.params.BandwidthBps)
}
