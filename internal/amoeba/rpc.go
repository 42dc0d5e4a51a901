package amoeba

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// The RPC layer implements Amoeba's remote procedure call model
// (Birrell & Nelson style): a client thread performs a blocking Trans
// to a (node, port) pair; a server thread alternates GetRequest /
// PutReply. Requests are retransmitted on timeout and deduplicated at
// the server, giving at-most-once execution with cached replies, so
// RPC stays reliable on lossy networks.

// ErrRPCTimeout is returned by Trans when all retransmissions expire
// without a reply.
var ErrRPCTimeout = errors.New("amoeba: rpc timeout")

// ErrCrashed is returned by Trans when the destination machine is
// known to have crashed: instead of retransmitting into the void until
// the retry budget runs out, the client fails the transaction at its
// next timeout (or immediately, if the destination was already down).
// Callers — the runtime systems — turn this into recovery: re-homing
// an object, re-routing to a surviving replica.
var ErrCrashed = errors.New("amoeba: destination machine crashed")

// rpcHeaderBytes is the wire overhead of the RPC layer itself: the
// transaction header of a Packet.
const rpcHeaderBytes = 24

// RPCDefaults groups the client retransmission policy.
type RPCDefaults struct {
	Timeout sim.Time
	Retries int
}

// DefaultRPCPolicy matches Amoeba's aggressive LAN tuning.
func DefaultRPCPolicy() RPCDefaults {
	return RPCDefaults{Timeout: 100 * sim.Millisecond, Retries: 5}
}

// Request is a received RPC request awaiting a reply. The record is the
// server's: it is reused for a later request once the reply is on its
// way, so whoever serves a Request must not keep it past its PutReply;
// replying to one a second time panics.
type Request struct {
	Packet // as received: Op, Obj, Args, Body and Size are the request's
	From   int
	srv    *Server

	// released: the reply has been sent and the record is on srv.free.
	released bool

	// switched: the context switch to the serving thread has been charged
	// on the dispatch lane already (see Server.Serve).
	switched bool
}

// Server accepts RPCs on a port of a machine. Create one with
// NewServer, then run one or more threads that loop on GetRequest and
// PutReply. A server with exactly one such thread may also be served
// inline: see Serve.
type Server struct {
	m       *Machine
	port    string
	repPort string // port + "-rep", where clients listen for replies
	reqs    *sim.Queue[*Request]
	seen    map[int64]cachedReply // txid -> reply sent (at-most-once)
	inwrk   map[int64]bool        // requests currently being served
	order   []int64               // ring of the cached txids, at most max, oldest at head once full
	head    int
	max     int
	free    []*Request // replied-to records, for handle to reuse

	// Inline service (see Serve): the consuming thread, the function
	// asked about every request, the request whose context switch is
	// being charged, and s.asked bound once.
	thread  *sim.Proc
	take    func(*Request) sim.Verdict
	cur     *Request
	askedFn func()
}

// cachedReply is what a duplicate of an executed request is answered
// with: the reply's results and body, by value.
type cachedReply struct {
	args Args
	body any
}

// NewServer binds an RPC server to port on machine m.
func NewServer(m *Machine, port string) *Server {
	s := &Server{
		m:       m,
		port:    port,
		repPort: port + "-rep",
		reqs:    sim.NewQueue[*Request](m.Env()),
		seen:    make(map[int64]cachedReply),
		inwrk:   make(map[int64]bool),
		max:     1024,
	}
	m.Bind(port, s.handle)
	return s
}

// handle runs in interrupt context for every packet on the port.
func (s *Server) handle(p *sim.Proc, from int, pkt Packet) {
	if pkt.Rep || pkt.TxID == 0 {
		return
	}
	if rep, done := s.seen[pkt.TxID]; done {
		// Duplicate of an executed request: resend the cached reply.
		s.m.SendFn(p, from, s.repPacket(pkt.TxID, pkt.Op, rep, sizeOfBody(rep.body)), func() {})
		return
	}
	if s.inwrk[pkt.TxID] {
		return // still executing; client will retry later
	}
	s.inwrk[pkt.TxID] = true
	var r *Request
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
		r.released = false
	} else {
		r = &Request{srv: s}
	}
	r.Packet, r.From = pkt, from
	s.reqs.Put(r)
}

// GetRequest blocks the server thread until a request arrives.
func (s *Server) GetRequest(p *sim.Proc) (*Request, bool) {
	r, ok := s.reqs.Get(p)
	if ok && !r.switched {
		// Waking the server thread costs a context switch.
		s.m.cpu.Use(p, s.m.costs.Switch)
	}
	return r, ok
}

// Serve makes take the server's inline consumer, on behalf of p, which
// must be the one thread that loops on GetRequest (see sim.Queue.Serve:
// both are one FIFO server of the request queue, so the order of
// service and every virtual instant are those of the thread doing all
// of it). Each request's context switch is charged as a continuation on
// the CPU, and take is asked at the instant GetRequest would have
// returned the request to p. Its answer is the queue's:
//
//   - Decline: take has done nothing, and the request goes to p within
//     the same event — GetRequest returns it without charging the
//     switch again. Anything that may block is answered so.
//   - Finished: take has served the request on the dispatch lane, taking
//     the steps p would have taken, without blocking.
//   - Pending: the service continues in later callback events — a reply
//     through PutResultFn, say — the last of which calls Done.
func (s *Server) Serve(p *sim.Proc, take func(r *Request) sim.Verdict) {
	s.thread, s.take = p, take
	s.askedFn = s.asked
	s.reqs.Serve(s.offered)
}

// offered charges the context switch for a request that has reached the
// head of the queue.
func (s *Server) offered(r *Request) sim.Verdict {
	s.cur = r
	s.m.cpu.UseFn(s.thread, s.m.costs.Switch, s.askedFn)
	return sim.Pending
}

// asked runs where the thread would resume with the switch charged.
func (s *Server) asked() {
	r := s.cur
	s.cur = nil
	v := sim.Decline
	if !s.m.env.AllThreads {
		v = s.take(r)
	}
	switch v {
	case sim.Decline:
		r.switched = true
		s.reqs.Punt()
	case sim.Finished:
		s.reqs.Done()
	}
}

// Done ends the inline service of a request that take answered Pending
// (see Serve). Call it from a callback event, as the last thing that
// event does.
func (s *Server) Done() { s.reqs.Done() }

// reply records the reply to r for duplicate suppression and returns
// its packet. The cache holds the last max replies.
func (s *Server) reply(r *Request, res Args, body any, size int) Packet {
	if r.released {
		panic("amoeba: reply to a Request that has already been replied to: the record went back to the server at its first PutReply")
	}
	delete(s.inwrk, r.TxID)
	rep := cachedReply{args: res, body: body}
	s.seen[r.TxID] = rep
	if len(s.order) < s.max {
		s.order = append(s.order, r.TxID)
	} else {
		delete(s.seen, s.order[s.head])
		s.order[s.head] = r.TxID
		s.head = (s.head + 1) % s.max
	}
	return s.repPacket(r.TxID, r.Op, rep, size)
}

// repPacket is the reply to transaction txid on the wire.
func (s *Server) repPacket(txid int64, op string, rep cachedReply, size int) Packet {
	return Packet{
		Port: s.repPort, Kind: "rpc-rep", Size: size + rpcHeaderBytes,
		TxID: txid, Rep: true, Op: op, Args: rep.args, Body: rep.body,
	}
}

// release takes back the record of a request that has been replied to.
func (s *Server) release(r *Request) {
	*r = Request{srv: s, released: true}
	if poison { // a server that kept r replies to nobody, about nothing
		r.Packet, r.From = Packet{Port: "amoeba: released Request", TxID: -1}, -2
	}
	s.free = append(s.free, r)
}

// PutReply sends a reply for r that is all body and records it for
// duplicate suppression. r is the server's again once PutReply is
// called.
func (s *Server) PutReply(p *sim.Proc, r *Request, body any, size int) {
	s.putFn(p, r, Args{}, body, size, p.Resume())
	p.Park()
}

// PutResult is PutReply for a reply that fits the header: res.
func (s *Server) PutResult(p *sim.Proc, r *Request, res Args, size int) {
	s.putFn(p, r, res, nil, size, p.Resume())
	p.Park()
}

// PutResultFn is PutResult in continuation form, for code that serves r
// on the dispatch lane on behalf of a parked thread p (see Serve, and
// sim.Resource.UseFn): the reply is recorded now and sent with SendFn,
// so then runs in the event where PutResult would have returned to p.
func (s *Server) PutResultFn(p *sim.Proc, r *Request, res Args, size int, then func()) {
	s.putFn(p, r, res, nil, size, then)
}

// putFn is every reply.
func (s *Server) putFn(p *sim.Proc, r *Request, res Args, body any, size int, then func()) {
	rep, to := s.reply(r, res, body, size), r.From
	s.release(r)
	s.m.SendFn(p, to, rep, then)
}

// Client issues RPCs from a machine to servers elsewhere. A single
// Client may be shared by all threads of a machine; each Trans tracks
// its own transaction.
type Client struct {
	m      *Machine
	policy RPCDefaults
	waits  map[int64]*rpcWait
	bound  map[string]bool // service ports whose reply port is bound
	free   []*rpcWait      // records of completed transactions
}

// rpcWait is one transaction in progress: what its caller sleeps on,
// and what the reply handler and the retransmission timer leave for it.
// Records are pooled and the retransmission timer is part of the record,
// so a transaction arms it without allocating.
type rpcWait struct {
	cond     sim.Cond
	reply    Packet
	replied  bool
	timedOut bool
	timer    sim.Event // calls w.timeout
}

func (w *rpcWait) timeout() {
	w.timedOut = true
	w.cond.Broadcast()
}

// NewClient creates an RPC client on machine m.
func NewClient(m *Machine, policy RPCDefaults) *Client {
	return &Client{m: m, policy: policy, waits: make(map[int64]*rpcWait), bound: make(map[string]bool)}
}

// ensureReplyPort lazily binds the client side of an RPC port so reply
// packets find their waiting transaction. Replies arrive on port+"-rep"
// so a machine can be client and server of the same service.
func (c *Client) ensureReplyPort(port string) {
	if c.bound[port] {
		return
	}
	c.bound[port] = true
	c.m.Bind(port+"-rep", c.onReply)
}

// onReply hands a reply to the transaction waiting for it. Transactions
// are found by id, never by record, so a duplicate that arrives after
// its transaction ended is dropped even if the record now serves
// another one.
func (c *Client) onReply(p *sim.Proc, from int, pkt Packet) {
	if !pkt.Rep {
		return
	}
	wait := c.waits[pkt.TxID]
	if wait == nil {
		return // late duplicate reply
	}
	wait.reply, wait.replied = pkt, true
	wait.cond.Broadcast()
}

// begin registers a transaction under txid.
func (c *Client) begin(txid int64) *rpcWait {
	var w *rpcWait
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		w = &rpcWait{}
		w.timer.Init(c.m.env, w.timeout)
	}
	c.waits[txid] = w
	return w
}

// end forgets a transaction when Trans returns. The calling thread can
// also be killed mid-transaction (its machine crashed while it was
// parked in Trans); it unwinds only when Shutdown reaps it, and what a
// crash abandons stays abandoned, so it touches neither the shared map
// nor the pool. Its record is simply dropped, so a timer still armed
// for it fires on a record nobody else has.
func (c *Client) end(p *sim.Proc, txid int64, w *rpcWait) {
	if p.Killed() {
		return
	}
	delete(c.waits, txid)
	w.reply, w.replied, w.timedOut = Packet{}, false, false
	c.free = append(c.free, w)
}

// Trans performs a blocking RPC whose request and reply are all body:
// send the request to (dst, port), retransmit on timeout, and return
// the reply body.
func (c *Client) Trans(p *sim.Proc, dst int, port, op string, body any, size int) (any, error) {
	rep, err := c.Call(p, dst, Packet{Port: port, Op: op, Body: body, Size: size})
	return rep.Body, err
}

// Call performs a blocking RPC: send req — its Port, Op, Obj, Args and
// Body, and the Size of those — to dst, retransmit on timeout, and
// return the reply packet. It is the transparent communication
// primitive the runtime systems build on. Self-sends do traverse the
// simulated wire; the runtime systems avoid them by checking locality
// first. Every transmission copies req, so a retransmission carries
// what the first one did whatever has become of the frames before it.
func (c *Client) Call(p *sim.Proc, dst int, req Packet) (Packet, error) {
	c.ensureReplyPort(req.Port)
	if c.m.net.Down(dst) {
		return Packet{}, fmt.Errorf("%w: %s/%s to node %d", ErrCrashed, req.Port, req.Op, dst)
	}
	txid := c.m.ServiceID()
	wait := c.begin(txid)
	defer c.end(p, txid, wait)

	req.Kind, req.TxID, req.Size = "rpc-req", txid, req.Size+rpcHeaderBytes
	c.m.Send(p, dst, req)
	for attempt := 0; attempt <= c.policy.Retries; attempt++ {
		wait.timedOut = false
		wait.timer.Arm(c.policy.Timeout)
		for !wait.replied && !wait.timedOut {
			wait.cond.Wait(p)
		}
		wait.timer.Cancel()
		if wait.replied {
			return wait.reply, nil
		}
		if c.m.net.Down(dst) {
			// The server died while the transaction was in flight: fail
			// now instead of burning the whole retry budget.
			return Packet{}, fmt.Errorf("%w: %s/%s to node %d", ErrCrashed, req.Port, req.Op, dst)
		}
		if attempt < c.policy.Retries {
			c.m.Env().Tracef("node%d: rpc retry %s/%s to %d", c.m.id, req.Port, req.Op, dst)
			c.m.Send(p, dst, req)
		}
	}
	return Packet{}, fmt.Errorf("%w: %s/%s to node %d", ErrRPCTimeout, req.Port, req.Op, dst)
}

// sizeOfBody gives a coarse wire size for cached replies whose
// original size was not recorded. Callers that care pass sizes
// explicitly; this is only used on the duplicate-reply path.
func sizeOfBody(v any) int {
	if s, ok := v.(interface{ WireSize() int }); ok {
		return s.WireSize()
	}
	return 64
}
