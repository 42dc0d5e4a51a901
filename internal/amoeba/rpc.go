package amoeba

import (
	"errors"
	"fmt"
	"math/bits"

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
}

// Server accepts RPCs on a port of a machine. Create one with
// NewServer, then either run threads that loop on GetRequest and
// PutReply, or make it a consumer with no process behind it: see Serve.
// A duplicate of any of its last replyWindow requests is answered from
// its reply cache and never served again.
type Server struct {
	m       *Machine
	port    string
	repPort string // port + "-rep", where clients listen for replies
	reqs    *sim.Queue[*Request]
	seen    replyCache     // the last replyWindow replies sent (at-most-once)
	inwrk   map[int64]bool // requests currently being served; nil until the first
	free    []*Request     // replied-to records, for handle to reuse

	// Service by a consumer (see Serve): its claimant, the function
	// every request is handed to, and the request whose context switch
	// is being charged.
	c     *sim.Proc
	claim Claimant // c's record
	take  func(*Request)
	cur   *Request
}

// replyWindow is how many of its last replies a server keeps for
// duplicates of their requests.
const replyWindow = 1024

// replyCache holds a server's last replyWindow replies by value, in a
// ring in reply order, and finds them by transaction id through an
// index of buckets (a power of two, as many as ring slots) whose chains
// are threaded through the ring's entries, newest first, so an eviction
// unlinks one entry and leaves no tombstone. It starts as the zero value
// and grows eightfold from the first reply (16, 128, 1024); once full, a
// reply overwrites the oldest entry and allocates nothing.
type replyCache struct {
	ring   []cachedReply
	bucket []int32 // id hash -> 1 + ring slot of the bucket's newest entry; 0: empty
	n      int     // entries held
	head   int     // the slot the next reply takes: the oldest entry's, once full
}

// cachedReply is what a duplicate of an executed request is answered
// with: the reply's results and body, by value, and the wire size they
// went out with, under its transaction id, and the next older entry of
// its bucket (1 + ring slot; 0: none).
type cachedReply struct {
	txid int64
	args Args
	body any
	size int32
	next int32
}

// slot is the bucket of transaction id txid. A machine's ids differ in
// their low bits, so the id is mixed by a Fibonacci multiply and the
// bucket taken from the top bits.
func (c *replyCache) slot(txid int64) int {
	return int(uint64(txid) * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(len(c.bucket)))))
}

// get is the cached reply to txid, or nil.
func (c *replyCache) get(txid int64) *cachedReply {
	if c.n == 0 {
		return nil
	}
	for i := c.bucket[c.slot(txid)]; i != 0; i = c.ring[i-1].next {
		if c.ring[i-1].txid == txid {
			return &c.ring[i-1]
		}
	}
	return nil
}

// add caches rep, which no cached reply shares an id with, in place of
// the oldest once replyWindow are held.
func (c *replyCache) add(rep cachedReply) {
	if c.n == len(c.ring) && c.n < replyWindow {
		c.grow(min(replyWindow, max(16, 8*c.n)))
	}
	if c.n == len(c.ring) {
		i := &c.bucket[c.slot(c.ring[c.head].txid)]
		for int(*i) != c.head+1 { // the oldest entry is the tail of its chain
			i = &c.ring[*i-1].next
		}
		*i = 0
	} else {
		c.n++
	}
	b := &c.bucket[c.slot(rep.txid)]
	rep.next, *b = *b, int32(c.head+1)
	c.ring[c.head] = rep
	c.head = (c.head + 1) % len(c.ring)
}

// grow moves the ring, which is full and has never wrapped, into n
// slots and rebuilds the index over n buckets.
func (c *replyCache) grow(n int) {
	c.ring = append(make([]cachedReply, 0, n), c.ring...)[:n]
	c.bucket, c.head = make([]int32, n), c.n
	for i := range c.n {
		b := &c.bucket[c.slot(c.ring[i].txid)]
		c.ring[i].next, *b = *b, int32(i+1)
	}
}

// NewServer binds an RPC server to port on machine m.
func NewServer(m *Machine, port string) *Server {
	s := &Server{
		m:       m,
		port:    port,
		repPort: port + "-rep",
		reqs:    sim.NewQueue[*Request](m.Env()),
	}
	m.BindHandler(port, (*serverPort)(s))
	return s
}

// serverPort is a server as the handler of its port.
type serverPort Server

func (h *serverPort) Handle(p *sim.Proc, from int, pkt Packet) { (*Server)(h).handle(p, from, pkt) }

// handle runs in interrupt context for every packet on the port.
func (s *Server) handle(p *sim.Proc, from int, pkt Packet) {
	if pkt.Rep || pkt.TxID == 0 {
		return
	}
	if rep := s.seen.get(pkt.TxID); rep != nil {
		// Duplicate of an executed request: resend the cached reply.
		s.m.SendOn(p, from, s.repPacket(pkt.Op, *rep), sim.Func(func() {}))
		return
	}
	if s.inwrk[pkt.TxID] {
		return // still executing; client will retry later
	}
	if s.inwrk == nil {
		s.inwrk = make(map[int64]bool)
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
	if ok {
		// Waking the server thread costs a context switch.
		s.m.cpu.Use(p, s.m.costs.Switch)
	}
	return r, ok
}

// Serve makes take the server's consumer, with no process behind it
// (see sim.Queue.Serve), and returns the claimant it serves as, named
// after the port: the requests are served one after another on the
// dispatch lane, in the order, and at every virtual instant, of one
// thread looping on GetRequest. Each request's context switch is charged
// in the claimant's name, and take is handed the request where
// GetRequest would have returned it. take serves it without blocking —
// replying through PutReplyOn, say — and calls Done once it is served,
// within the call or from a later callback event.
func (s *Server) Serve(take func(r *Request)) *sim.Proc {
	s.c, s.take = s.claim.Init(s.m, s.port, -1), take
	s.reqs.Serve(s.c, (*serverQueue)(s))
	return s.c
}

// serverQueue is a server as the consumer of its request queue, and the
// continuation of a request's context switch.
type serverQueue Server

func (q *serverQueue) Consume(r *Request) { (*Server)(q).offered(r) }

func (q *serverQueue) Fire() { (*Server)(q).asked() }

// offered charges the context switch for a request that has reached the
// head of the queue.
func (s *Server) offered(r *Request) {
	s.cur = r
	s.m.cpu.UseOn(s.c, s.m.costs.Switch, (*serverQueue)(s))
}

// asked runs where the thread would resume with the switch charged.
func (s *Server) asked() {
	r := s.cur
	s.cur = nil
	s.take(r)
}

// Done ends the service of a request (see Serve). Called from a
// callback event, it must be the last thing that event does.
func (s *Server) Done() { s.reqs.Done() }

// reply records the reply to r for duplicate suppression and returns
// its packet.
func (s *Server) reply(r *Request, res Args, body any, size int) Packet {
	if r.released {
		panic("amoeba: reply to a Request that has already been replied to: the record went back to the server at its first PutReply")
	}
	delete(s.inwrk, r.TxID)
	rep := cachedReply{txid: r.TxID, args: res, body: body, size: int32(size)}
	s.seen.add(rep)
	return s.repPacket(r.Op, rep)
}

// repPacket is the reply rep, to an op request, on the wire.
func (s *Server) repPacket(op string, rep cachedReply) Packet {
	return Packet{
		Port: s.repPort, Kind: "rpc-rep", Size: int(rep.size) + rpcHeaderBytes,
		TxID: rep.txid, Rep: true, Op: op, Args: rep.args, Body: rep.body,
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
	s.PutReplyOn(p, r, Args{}, body, size, p)
	p.Park()
}

// PutResult is PutReply for a reply that fits the header: res.
func (s *Server) PutResult(p *sim.Proc, r *Request, res Args, size int) {
	s.PutReplyOn(p, r, res, nil, size, p)
	p.Park()
}

// PutReplyOn is every reply, in continuation form, for a consumer that
// serves r on the dispatch lane in the name of its claimant p (see
// Serve): the reply, results res and body, is recorded now and sent
// with SendOn, so then fires in the event where PutReply would have
// returned.
func (s *Server) PutReplyOn(p *sim.Proc, r *Request, res Args, body any, size int, then sim.Firer) {
	rep, to := s.reply(r, res, body, size), r.From
	s.release(r)
	s.m.SendOn(p, to, rep, then)
}

// Client issues RPCs from a machine to servers elsewhere. A single
// Client may be shared by all threads and consumers of a machine; each
// transaction has a record of its own.
type Client struct {
	m      *Machine
	policy RPCDefaults
	waits  map[int64]*rpcWait
	bound  map[string]bool // service ports whose reply port is bound
	free   []*rpcWait      // records of completed transactions

	// rep and err are what the last transaction ended with: set as it
	// ends and read (see Result) by its continuation as it fires, or by
	// the thread parked in Call as it resumes, at the end of the same
	// event, before anything else runs.
	rep Packet
	err error
}

// rpcWait is one transaction in progress, in the name of its caller p:
// the request, what the reply handler and the retransmission timer
// leave for it, and what fires when it ends. Records are pooled, and the
// timer and the continuations are part of the record (a record is its
// request's send's), so a transaction allocates nothing.
type rpcWait struct {
	c                          *Client
	p                          *sim.Proc
	dst, attempt               int
	req, reply                 Packet
	k                          sim.Firer // the caller: p itself, in Call
	replied, timedOut, waiting bool
	timer                      sim.Event
	wokeFn                     func()
}

// wake runs the transaction's next step, if it is waiting for one, from
// an event of its own: the slot a wake-up of a thread parked on it
// would take.
func (w *rpcWait) wake() {
	if w.waiting {
		w.waiting = false
		w.c.m.env.Schedule(w.c.m.env.Now(), w.wokeFn)
	}
}

// NewClient creates an RPC client on machine m.
func NewClient(m *Machine, policy RPCDefaults) *Client {
	return &Client{m: m, policy: policy, waits: make(map[int64]*rpcWait), bound: make(map[string]bool)}
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
	wait.wake()
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
// Call is CallOn and a park.
func (c *Client) Call(p *sim.Proc, dst int, req Packet) (Packet, error) {
	c.CallOn(p, dst, req, p)
	p.Park()
	return c.Result()
}

// CallOn is Call in continuation form, for a consumer that calls in the
// name of its claimant p: the transaction starts within the calling
// event and takes Call's steps in the same events, and k fires, with
// the reply or the error in Result, in the event where Call would have
// returned. If p is killed first, k never fires.
func (c *Client) CallOn(p *sim.Proc, dst int, req Packet, k sim.Firer) {
	if !c.bound[req.Port] {
		// Replies arrive on port+"-rep", so that a machine can be client
		// and server of one service.
		c.bound[req.Port] = true
		c.m.Bind(req.Port+"-rep", c.onReply)
	}
	var w *rpcWait
	if n := len(c.free); n > 0 {
		w, c.free = c.free[n-1], c.free[:n-1]
	} else {
		w = &rpcWait{c: c}
		w.timer.InitOn(c.m.env, sim.Func(func() { w.timedOut = true; w.wake() }))
		w.wokeFn = w.woke
	}
	w.p, w.dst, w.k, w.req = p, dst, k, req
	if c.m.net.Down(dst) {
		w.finish(ErrCrashed)
		return
	}
	w.req.Kind, w.req.TxID, w.req.Size = "rpc-req", c.m.ServiceID(), req.Size+rpcHeaderBytes
	c.waits[w.req.TxID] = w
	c.m.SendOn(p, dst, w.req, w)
}

// Fire arms the timeout once the request has been sent, and goes on.
func (w *rpcWait) Fire() {
	w.timedOut = false
	w.timer.Arm(w.c.policy.Timeout)
	w.woke()
}

// woke goes on once the request has been sent, or once a reply or a
// timeout has come after: it waits, the transaction ends, or the
// request goes out again.
func (w *rpcWait) woke() {
	switch m := w.c.m; {
	case w.p.Killed():
	case !w.replied && !w.timedOut:
		w.waiting = true
	case w.replied:
		w.timer.Cancel()
		w.finish(nil)
	case m.net.Down(w.dst):
		// The server died while the transaction was in flight: fail
		// now instead of burning the whole retry budget.
		w.finish(ErrCrashed)
	case w.attempt < w.c.policy.Retries:
		w.attempt++
		m.Env().Tracef("node%d: rpc retry %s/%s to %d", m.id, w.req.Port, w.req.Op, w.dst)
		m.SendOn(w.p, w.dst, w.req, w)
	default:
		w.finish(ErrRPCTimeout)
	}
}

// finish ends the transaction with err (nil: the reply came), pools its
// record and fires its continuation with the outcome in Result. A
// caller killed mid-transaction (its machine crashed) never gets here:
// what a crash abandons stays abandoned, so its record keeps its entry
// in the shared map and stays out of the pool, and a timer still armed
// for it fires on a record nobody else has.
func (w *rpcWait) finish(err error) {
	c, k := w.c, w.k
	if err != nil {
		err = fmt.Errorf("%w: %s/%s to node %d", err, w.req.Port, w.req.Op, w.dst)
	}
	c.rep, c.err = w.reply, err
	delete(c.waits, w.req.TxID)
	*w = rpcWait{c: c, timer: w.timer, wokeFn: w.wokeFn}
	c.free = append(c.free, w)
	k.Fire()
}

// Result is the outcome of the transaction that ended last: its reply,
// or the error it failed with. A continuation of CallOn reads it as it
// fires.
func (c *Client) Result() (Packet, error) { return c.rep, c.err }
