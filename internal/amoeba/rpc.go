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

// rpcWire distinguishes request and reply packets on an RPC port.
type rpcWire struct {
	TxID   int64
	IsRep  bool
	Op     string
	Body   any
	Client int
}

// rpcHeaderBytes is the wire overhead of the RPC layer itself.
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

// Request is a received RPC request awaiting a reply.
type Request struct {
	Op   string
	Body any
	Size int
	From int
	txid int64
	srv  *Server
}

// Server accepts RPCs on a port of a machine. Create one with
// NewServer, then run one or more threads that loop on GetRequest and
// PutReply.
type Server struct {
	m     *Machine
	port  string
	reqs  *sim.Queue[*Request]
	seen  map[int64]rpcWire // txid -> cached reply (at-most-once)
	inwrk map[int64]bool    // requests currently being served
	order []int64           // FIFO of cached txids for bounded memory
	max   int
}

// NewServer binds an RPC server to port on machine m.
func NewServer(m *Machine, port string) *Server {
	s := &Server{
		m:     m,
		port:  port,
		reqs:  sim.NewQueue[*Request](m.Env()),
		seen:  make(map[int64]rpcWire),
		inwrk: make(map[int64]bool),
		max:   1024,
	}
	m.Bind(port, s.handle)
	m.BindNonblocking(port, s.queues)
	return s
}

// queues reports that handle will only queue (or drop) the packet: all
// but the duplicate of an executed request, whose cached reply it
// resends.
func (s *Server) queues(from int, pkt Packet) bool {
	w, ok := pkt.Body.(rpcWire)
	if !ok || w.IsRep {
		return true
	}
	_, done := s.seen[w.TxID]
	return !done
}

// handle runs in interrupt context for every packet on the port.
func (s *Server) handle(p *sim.Proc, from int, pkt Packet) {
	w, ok := pkt.Body.(rpcWire)
	if !ok || w.IsRep {
		return
	}
	if rep, done := s.seen[w.TxID]; done {
		// Duplicate of an executed request: resend the cached reply.
		s.m.Send(p, from, Packet{
			Port: s.port + "-rep", Kind: "rpc-rep", Body: rep,
			Size: sizeOfBody(rep.Body) + rpcHeaderBytes,
		})
		return
	}
	if s.inwrk[w.TxID] {
		return // still executing; client will retry later
	}
	s.inwrk[w.TxID] = true
	s.reqs.Put(&Request{Op: w.Op, Body: w.Body, Size: pkt.Size, From: from, txid: w.TxID, srv: s})
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

// PutReply sends the reply for r and records it for duplicate
// suppression.
func (s *Server) PutReply(p *sim.Proc, r *Request, body any, size int) {
	rep := rpcWire{TxID: r.txid, IsRep: true, Op: r.Op, Body: body}
	delete(s.inwrk, r.txid)
	s.seen[r.txid] = rep
	s.order = append(s.order, r.txid)
	if len(s.order) > s.max {
		delete(s.seen, s.order[0])
		s.order = s.order[1:]
	}
	s.m.Send(p, r.From, Packet{
		Port: s.port + "-rep", Kind: "rpc-rep", Body: rep, Size: size + rpcHeaderBytes,
	})
}

// Close unbinds the server and wakes blocked GetRequest calls.
func (s *Server) Close() {
	s.m.Unbind(s.port)
	s.reqs.Close()
}

// Client issues RPCs from a machine to servers elsewhere. A single
// Client may be shared by all threads of a machine; each Trans tracks
// its own transaction.
type Client struct {
	m      *Machine
	policy RPCDefaults
	waits  map[int64]*rpcWait
	bound  map[string]bool
}

type rpcWait struct {
	cond  *sim.Cond
	reply *rpcWire
	size  int
}

// NewClient creates an RPC client on machine m.
func NewClient(m *Machine, policy RPCDefaults) *Client {
	return &Client{m: m, policy: policy, waits: make(map[int64]*rpcWait), bound: make(map[string]bool)}
}

// ensureReplyPort lazily binds the client side of an RPC port so reply
// packets find their waiting transaction.
func (c *Client) ensureReplyPort(port string) {
	if c.bound[port] {
		return
	}
	c.bound[port] = true
	c.m.Bind(port, func(p *sim.Proc, from int, pkt Packet) {
		w, ok := pkt.Body.(rpcWire)
		if !ok || !w.IsRep {
			return
		}
		wait := c.waits[w.TxID]
		if wait == nil {
			return // late duplicate reply
		}
		wait.reply = &w
		wait.size = pkt.Size
		wait.cond.Broadcast()
	})
	// A reply only wakes its waiting transaction.
	c.m.BindNonblocking(port, func(int, Packet) bool { return true })
}

// Trans performs a blocking RPC: send the request to (dst, port),
// retransmit on timeout, and return the reply body. It is the
// transparent communication primitive the runtime systems build on.
func (c *Client) Trans(p *sim.Proc, dst int, port, op string, body any, size int) (any, error) {
	// Replies arrive on port+"-rep" so a machine can be client and
	// server of the same service. Self-sends do traverse the simulated
	// wire; the runtime systems avoid them by checking locality first.
	c.ensureReplyPort(port + "-rep")
	if c.m.net.Down(dst) {
		return nil, fmt.Errorf("%w: %s/%s to node %d", ErrCrashed, port, op, dst)
	}
	txid := c.m.ServiceID()
	wait := &rpcWait{cond: sim.NewCond(c.m.Env())}
	c.waits[txid] = wait
	// The calling thread can be killed mid-transaction (its machine
	// crashed while it was parked here); the unwinding goroutine runs
	// concurrently with other reaped threads of this machine and must
	// not touch the shared waits map.
	defer func() {
		if !p.Killed() {
			delete(c.waits, txid)
		}
	}()

	req := rpcWire{TxID: txid, Op: op, Body: body, Client: c.m.id}
	send := func(pp *sim.Proc) {
		c.m.Send(pp, dst, Packet{Port: port, Kind: "rpc-req", Body: req, Size: size + rpcHeaderBytes})
	}
	send(p)
	for attempt := 0; attempt <= c.policy.Retries; attempt++ {
		var timedOut bool
		timer := c.m.Env().After(c.policy.Timeout, func() {
			timedOut = true
			wait.cond.Broadcast()
		})
		for wait.reply == nil && !timedOut {
			wait.cond.Wait(p)
		}
		timer.Cancel()
		if wait.reply != nil {
			return wait.reply.Body, nil
		}
		if c.m.net.Down(dst) {
			// The server died while the transaction was in flight: fail
			// now instead of burning the whole retry budget.
			return nil, fmt.Errorf("%w: %s/%s to node %d", ErrCrashed, port, op, dst)
		}
		if attempt < c.policy.Retries {
			c.m.Env().Tracef("node%d: rpc retry %s/%s to %d", c.m.id, port, op, dst)
			send(p)
		}
	}
	return nil, fmt.Errorf("%w: %s/%s to node %d", ErrRPCTimeout, port, op, dst)
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
