package rts

import (
	"errors"
	"fmt"

	"repro/internal/amoeba"
	"repro/internal/sim"
)

// P2PRTS is the paper's §3.2.2 runtime system, for networks without
// hardware broadcast. Each object has a primary copy on one machine;
// other machines may hold secondary copies. Writes go to the primary,
// which keeps the secondaries consistent with one of two protocols:
//
//   - Invalidation: the primary locks the object, sends invalidation
//     messages to all secondaries, collects acknowledgements, applies
//     the write, and unlocks. Secondaries re-fetch on demand.
//   - Update: a two-phase protocol. Phase one ships the operation code
//     and parameters to every secondary, which locks its copy, applies
//     the operation, and acknowledges while staying locked. When all
//     acknowledgements arrive the primary applies the write and phase
//     two unlocks all copies. Reads attempted while a copy is locked
//     suspend until it is unlocked.
//
// Replication is decided dynamically from per-machine read/write
// statistics: a machine whose read/write ratio for an object exceeds a
// threshold fetches a copy from the primary; when the ratio falls
// below another threshold it discards its copy.
//
// A P2PRTS is the point-to-point domain of its Router, whose object
// table holds each object's p2pMeta.
type P2PRTS struct {
	router *Router
	reg    *Registry
	costs  Costs
	cfg    P2PConfig
	nodes  []*p2pNode
	stats  RTSStats
}

// P2PProtocol selects how the primary keeps secondaries consistent.
type P2PProtocol int

const (
	// Invalidation discards secondary copies on writes.
	Invalidation P2PProtocol = iota
	// Update ships operations to secondary copies with a two-phase
	// commit/unlock protocol.
	Update
)

// String names the protocol for tables and traces.
func (p P2PProtocol) String() string {
	if p == Invalidation {
		return "invalidate"
	}
	return "update"
}

// Placement controls the replication policy.
type Placement int

const (
	// DynamicPlacement is the paper's scheme: one copy initially,
	// replicas created and discarded from read/write-ratio statistics.
	DynamicPlacement Placement = iota
	// SingleCopy never replicates: all remote accesses are RPCs.
	SingleCopy
	// FullReplication installs a copy on every machine at creation
	// and never discards (an ablation baseline).
	FullReplication
)

// String names the placement policy for tables and traces.
func (pl Placement) String() string {
	switch pl {
	case DynamicPlacement:
		return "dynamic"
	case SingleCopy:
		return "single"
	default:
		return "full"
	}
}

// P2PConfig is the protocol and placement plain Create gives an object.
type P2PConfig struct {
	Protocol  P2PProtocol
	Placement Placement
}

// DefaultP2PConfig returns the paper's dynamic-update configuration.
func DefaultP2PConfig() P2PConfig {
	return P2PConfig{Protocol: Update, Placement: DynamicPlacement}
}

// The dynamic placement's thresholds, on one machine's accesses to one
// object: after windowMin accesses it fetches a copy once reads/writes
// reaches fetchRatio, and discards its copy once the ratio falls to
// discardRatio.
const (
	fetchRatio   = 4
	discardRatio = 1
	windowMin    = 8
)

// rpcPolicy is the point-to-point runtime's (and the forwarders') RPC
// policy: a guarded operation can legitimately block for a long time,
// so retries are high.
var rpcPolicy = amoeba.RPCDefaults{Timeout: 2 * sim.Second, Retries: 1 << 20}

// p2pMeta is the global registry entry for an object: its type, the
// (static) primary machine, and the consistency protocol and placement
// policy governing it. Protocol and placement are per object — plain
// Create copies them from the runtime's configuration, CreateWith
// overrides them — so one runtime can host objects under different
// policies side by side.
type p2pMeta struct {
	id        ObjID
	typ       *ObjectType
	primary   int
	protocol  P2PProtocol
	placement Placement
	// ctorArgs are the creation arguments, kept so an object whose
	// every copy died with its machines can be restarted from its
	// initial state (see rehome).
	ctorArgs []any

	// moved marks an object that migrated to the broadcast runtime
	// (see adapt.go): every point-to-point path bounces it with the
	// migration retry sentinel.
	moved bool

	ops opCache
}

// op resolves an operation name through the object's MRU cache.
func (m *p2pMeta) op(name string) *OpDef { return m.ops.lookup(m.typ, name) }

// p2pTask is a unit of work for an object's primary queue. Tasks
// from remote machines carry the RPC request to reply to; a local task's
// invoking thread waits on its opWaiter, as a sequenced write's does.
type p2pTask struct {
	kind string // "write", "read", "fetch", "moveout", "rehome"
	op   *OpDef
	args Args
	from int
	to   int // rehome target
	req  *amoeba.Request
	opWaiter
}

// p2pNode is the per-machine runtime state.
type p2pNode struct {
	rts    *P2PRTS
	m      *amoeba.Machine
	client *amoeba.Client
	srv    *amoeba.Server
	svc    *sim.Proc // the claimant route serves as
	insts  map[ObjID]*replica
	queues map[ObjID]*objQueue
	access map[ObjID]*accessStats
	tfree  []*p2pTask // see task

	// The update in service at this secondary (see applyUpdate), and
	// srv.Done and updated bound once.
	upd                 *amoeba.Request
	updInst             *replica
	servedFn, updatedFn func()
}

// accessStats tracks one machine's accesses to one object for the
// dynamic replication decision.
type accessStats struct {
	reads, writes int64
}

func (a *accessStats) ratio() float64 {
	w := a.writes
	if w == 0 {
		w = 1
	}
	return float64(a.reads) / float64(w)
}

// Wire bodies for the point-to-point protocols. A request on the RPC
// port names its object, operation and arguments in the packet header
// (amoeba.Packet's Obj, Op and Args); with no body it is client ->
// primary, execute the operation (write or read), and the body of any
// other says which protocol step it is.
type (
	p2pInvalReq  struct{}            // primary -> secondary
	p2pUpdateReq struct{}            // primary -> secondary, phase 1: apply the header's operation
	p2pUnlock    struct{ Obj ObjID } // primary -> secondary, phase 2 (one-way)
	p2pDrop      struct {            // secondary -> primary (one-way)
		Obj  ObjID
		Node int
	}
	p2pFetchReq struct{ Node int } // secondary -> primary
	p2pInstall  struct {           // primary -> node (one-way, full replication)
		Obj   ObjID
		State State
	}
	p2pMigrateReq struct { // initiator -> primary: enqueue a migration task
		Kind   string // "moveout" or "rehome"
		Target int
	}
)

const (
	p2pRPCPort = "objsvc" // RPC: op, update, inval, fetch
	p2pCtlPort = "objctl" // one-way: unlock, drop, install
)

// NewP2PRTS builds the point-to-point runtime over the machines (all
// nodes of the simulation, by node id): the one domain of a Router built
// for it.
func NewP2PRTS(reg *Registry, costs Costs, cfg P2PConfig, machines []*amoeba.Machine) *P2PRTS {
	return NewRouter(reg, costs, machines, nil, &cfg, true).p2p
}

// newP2PRTS builds the router's point-to-point domain over its machines.
func newP2PRTS(router *Router, reg *Registry, costs Costs, cfg P2PConfig) *P2PRTS {
	r := &P2PRTS{router: router, reg: reg, costs: costs, cfg: cfg}
	for _, m := range router.machines {
		n := &p2pNode{
			rts:    r,
			m:      m,
			client: amoeba.NewClient(m, rpcPolicy),
			insts:  make(map[ObjID]*replica),
			queues: make(map[ObjID]*objQueue),
			access: make(map[ObjID]*accessStats),
		}
		n.srv = amoeba.NewServer(m, p2pRPCPort)
		n.servedFn, n.updatedFn = n.srv.Done, n.updated
		m.Bind(p2pCtlPort, n.handleCtl)
		n.svc = n.srv.Serve(n.route)
		r.nodes = append(r.nodes, n)
	}
	return r
}

// Counters returns the unified counter snapshot: the runtime counts
// straight into one.
func (r *P2PRTS) Counters() RTSStats { return r.stats }

// Primary reports an object's primary machine.
func (r *P2PRTS) Primary(id ObjID) int { return r.meta(id).primary }

// CopyCount reports how many machines currently hold a copy. Copies
// that died with a crashed machine do not count.
func (r *P2PRTS) CopyCount(id ObjID) int {
	n := 0
	for _, node := range r.nodes {
		if node.m.Crashed() {
			continue
		}
		if inst, ok := node.insts[id]; ok && inst.valid {
			n++
		}
	}
	return n
}

// HasCopy reports whether a machine holds a valid copy.
func (r *P2PRTS) HasCopy(node int, id ObjID) bool {
	if r.nodes[node].m.Crashed() {
		return false
	}
	inst, ok := r.nodes[node].insts[id]
	return ok && inst.valid
}

// PeekState returns a machine's valid copy's state (nil if it holds
// none); an inspection hook, like BroadcastRTS.PeekState.
func (r *P2PRTS) PeekState(node int, id ObjID) (State, bool) {
	inst, ok := r.nodes[node].insts[id]
	if !ok || !inst.valid {
		return nil, false
	}
	return inst.state, true
}

// meta returns an object's point-to-point record.
func (r *P2PRTS) meta(id ObjID) *p2pMeta {
	if m := r.router.entry(id).meta; m != nil {
		return m
	}
	panic(fmt.Sprintf("rts: object %d has never lived in the point-to-point domain", id))
}

// Create instantiates the object with its single primary copy on the
// creating machine (the paper: "Initially, only one copy of each
// object is maintained"). Under FullReplication, copies are pushed to
// every machine over the wire. The object is governed by the runtime's
// configured protocol and placement.
func (r *P2PRTS) Create(w *Worker, typeName string, args ...any) ObjID {
	return r.CreateWith(w, typeName, r.cfg.Protocol, r.cfg.Placement, args...)
}

// CreateWith is Create with a per-object protocol and placement
// override — the runtime keeps this object's secondaries consistent
// with the given protocol and applies the given placement policy,
// independent of what the rest of the objects use.
func (r *P2PRTS) CreateWith(w *Worker, typeName string, protocol P2PProtocol, placement Placement, args ...any) ObjID {
	t := r.reg.Lookup(typeName)
	id := r.router.alloc(domP2P, nil)
	node := r.nodes[w.Node()]
	w.Flush()
	w.M.Compute(w.P, r.costs.create)
	state := t.New(args)
	inst := newReplica(t, state)
	inst.primary, inst.copyset = true, make(map[int]bool)
	node.insts[id] = inst
	r.router.objs[id].meta = &p2pMeta{id: id, typ: t, primary: w.Node(), protocol: protocol, placement: placement,
		ctorArgs: append([]any(nil), args...)}
	node.startPrimary(id)
	if placement == FullReplication {
		for _, other := range r.nodes {
			if other.m.ID() == w.Node() {
				continue
			}
			inst.copyset[other.m.ID()] = true
			w.M.Send(w.P, other.m.ID(), amoeba.Packet{
				Port: p2pCtlPort, Kind: "rts-install",
				Body: p2pInstall{Obj: id, State: t.Clone(state)},
				Size: t.stateSize(state) + 16,
			})
		}
	}
	return id
}

// Invoke is Call for a positional argument list, returning the results
// boxed. It stays for bench/rungs.go, which drives a domain built by
// NewP2PRTS directly.
func (r *P2PRTS) Invoke(w *Worker, id ObjID, op string, args ...any) []any {
	out := r.Call(w, id, op, ArgsOf(args...))
	return out.Values()
}

// Call performs an operation on a primary-copy object: in are its
// arguments, the record returned its results.
func (r *P2PRTS) Call(w *Worker, id ObjID, opName string, in Args) Args {
	meta := r.meta(id)
	op := meta.op(opName)
	node := r.nodes[w.Node()]
	if op.Kind == Read {
		return node.invokeRead(w, meta, op, in)
	}
	return node.invokeWrite(w, meta, op, in)
}

// --- invocation paths -------------------------------------------------

// invokeRead serves a read locally when a valid copy exists, otherwise
// remotely at the primary; it then updates statistics and may fetch a
// copy. A primary that dies mid-read is detected by the failing RPC
// (or by a copy left locked forever) and the object is re-homed before
// the read retries.
func (n *p2pNode) invokeRead(w *Worker, meta *p2pMeta, op *OpDef, in Args) Args {
	r := n.rts
	st := n.accessFor(meta.id)
	st.reads++
	for {
		if meta.moved {
			return retry // migrated to the broadcast runtime
		}
		inst, ok := n.insts[meta.id]
		if ok && inst.valid {
			// Local read, once the copy is unlocked and the guard holds.
			if awaitGuard(w, inst, op, in, r.costs.guardCheck, &r.stats.GuardWaits) {
				r.stats.LocalReads++
				w.Accrue(r.costs.readLocal + r.costs.defaultOp)
				return op.Apply(inst.state, in)
			}
			if inst.valid && inst.locked {
				if r.nodeDown(meta.primary) {
					// The primary died between update phases; re-home
					// the object, which also unlocks this copy.
					r.rehome(w, meta)
				} else {
					inst.cond.Wait(w.P)
				}
			}
			continue // invalidated, or unlocked: look again
		}
		// No local copy: maybe fetch one first, else read remotely.
		if n.shouldFetch(meta, st) {
			n.fetchCopy(w, meta)
			continue
		}
		r.stats.RemoteReads++
		w.Flush()
		rep, ok := n.callPrimary(w, meta, opPacket(op, in))
		if !ok || isRetry(rep.Args) && !meta.moved {
			continue // primary crashed, or re-homed while the op was in flight: retry there
		}
		return rep.Args
	}
}

// invokeWrite routes a write to the primary and afterwards applies the
// discard heuristic. If the primary crashed, the object is re-homed
// and the write re-issued: crash recovery gives writes at-least-once
// semantics (see DESIGN.md), exactly once in the common case where the
// first attempt never reached the dead primary.
func (n *p2pNode) invokeWrite(w *Worker, meta *p2pMeta, op *OpDef, in Args) Args {
	st := n.accessFor(meta.id)
	st.writes++
	n.rts.stats.P2PWrites++
	w.Flush()
	res := n.atPrimary(w, meta, p2pTask{kind: "write", op: op, args: in}, opPacket(op, in))
	if !isRetry(res) {
		n.maybeDiscard(w, meta, st)
	}
	return res
}

// atPrimary runs task t, or has its primary run req, at the object's
// primary — queued here when this machine is the primary, by RPC
// otherwise — and returns the result. A primary that crashed or
// re-homed meanwhile is resolved again and asked again; an object that
// migrated to the broadcast runtime returns the retry status.
func (n *p2pNode) atPrimary(w *Worker, meta *p2pMeta, t p2pTask, req amoeba.Packet) Args {
	for {
		if meta.moved {
			return retry
		}
		var res Args
		if meta.primary == n.m.ID() {
			t := t
			res = n.runLocal(w, meta.id, &t)
		} else if rep, ok := n.callPrimary(w, meta, req); ok {
			res = rep.Args
		} else {
			continue
		}
		if !isRetry(res) || meta.moved {
			return res
		}
	}
}

// runLocal queues a task of this machine's for the queue of an object
// whose primary it is, and waits for its result.
func (n *p2pNode) runLocal(w *Worker, id ObjID, t *p2pTask) Args {
	t.from = n.m.ID()
	n.queues[id].q.Put(t)
	for !t.done {
		t.cond.Wait(w.P)
	}
	return t.res
}

// opPacket is the request that has the primary execute op.
func opPacket(op *OpDef, in Args) amoeba.Packet {
	return amoeba.Packet{Op: op.Name, Args: in, Size: opSize(op.Name, &in)}
}

// callPrimary sends req about the object to its primary. A primary that
// has crashed is re-homed first and ok is false: the caller resolves
// the object again and retries. Any other failure is a bug and panics.
func (n *p2pNode) callPrimary(w *Worker, meta *p2pMeta, req amoeba.Packet) (rep amoeba.Packet, ok bool) {
	req.Port, req.Obj = p2pRPCPort, int64(meta.id)
	rep, err := n.client.Call(w.P, meta.primary, req)
	if err == nil {
		return rep, true
	}
	if !errors.Is(err, amoeba.ErrCrashed) {
		panic(fmt.Sprintf("rts: %s on object %d failed: %v", req.Op, meta.id, err))
	}
	n.rts.stats.OpsRetried++
	n.rts.rehome(w, meta)
	return rep, false
}

// accessFor returns this machine's statistics for an object.
func (n *p2pNode) accessFor(id ObjID) *accessStats {
	st, ok := n.access[id]
	if !ok {
		st = &accessStats{}
		n.access[id] = st
	}
	return st
}

// shouldFetch applies the fetch threshold.
func (n *p2pNode) shouldFetch(meta *p2pMeta, st *accessStats) bool {
	if meta.placement != DynamicPlacement {
		return false
	}
	return st.reads+st.writes >= windowMin && st.ratio() >= fetchRatio
}

// maybeDiscard applies the discard threshold to a local secondary.
func (n *p2pNode) maybeDiscard(w *Worker, meta *p2pMeta, st *accessStats) {
	if meta.placement != DynamicPlacement {
		return
	}
	inst, ok := n.insts[meta.id]
	if !ok || !inst.valid || inst.primary {
		return
	}
	if st.reads+st.writes < windowMin || st.ratio() > discardRatio {
		return
	}
	n.rts.stats.Discards++
	n.dropLocal(meta.id)
	n.m.Send(w.P, meta.primary, amoeba.Packet{
		Port: p2pCtlPort, Kind: "rts-drop",
		Body: p2pDrop{Obj: meta.id, Node: n.m.ID()}, Size: 16,
	})
	st.reads, st.writes = 0, 0
}

// fetchCopy installs a secondary copy from the primary, re-homing the
// object first if the primary died.
func (n *p2pNode) fetchCopy(w *Worker, meta *p2pMeta) {
	n.rts.stats.Fetches++
	st := n.accessFor(meta.id)
	st.reads, st.writes = 0, 0
	for {
		if meta.moved || meta.primary == n.m.ID() {
			return // migrated away, or re-homed onto this very machine
		}
		rep, ok := n.callPrimary(w, meta, amoeba.Packet{Op: "fetch", Body: p2pFetchReq{Node: n.m.ID()}, Size: 16})
		if ok && !isRetry(rep.Args) { // else the primary moved mid-fetch: re-resolve
			n.installCopy(meta.id, meta.typ, rep.Body.(State))
			return
		}
	}
}

// installCopy places a (cloned) state as a valid secondary.
func (n *p2pNode) installCopy(id ObjID, t *ObjectType, state State) {
	n.insts[id] = newReplica(t, state)
}

// submitMigrate routes a migration task ("moveout" to the broadcast
// runtime, or "rehome" onto a new primary) to the object's primary
// queue and waits for it to run. A primary that dies first is
// re-homed and the task re-submitted; a moveout that already cut over
// (meta.moved) is left to the broadcast record to finish.
func (n *p2pNode) submitMigrate(w *Worker, meta *p2pMeta, kind string, target int) {
	w.Flush()
	n.atPrimary(w, meta, p2pTask{kind: kind, to: target},
		amoeba.Packet{Op: "migrate", Body: p2pMigrateReq{Kind: kind, Target: target}, Size: 24})
}

// dropLocal removes the local copy and wakes any blocked readers so
// they re-route to the primary.
func (n *p2pNode) dropLocal(id ObjID) {
	inst, ok := n.insts[id]
	if !ok {
		return
	}
	inst.valid = false
	inst.cond.Broadcast()
	delete(n.insts, id)
}
