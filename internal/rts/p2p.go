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
type P2PRTS struct {
	reg   *Registry
	costs Costs
	cfg   P2PConfig
	nodes []*p2pNode
	objs  map[ObjID]*p2pMeta
	ids   *idAlloc

	// mover and moveSnap, set by a Router that also hosts sequencer groups,
	// connect a moveout to the broadcast total order (see adapt.go):
	// moveSnap publishes the state snapshot before the cut (so a crash
	// mid-moveout can be rescued), and mover broadcasts the sequenced
	// migrate record from the given machine in p's name and runs k once
	// the local delivery has applied it.
	mover    func(p *sim.Proc, node int, id ObjID, state State, k func())
	moveSnap func(node int, id ObjID, state State)

	// recoverState, also set by the Router, gives crash recovery a
	// better restart point than the creation arguments: an adaptive
	// object that migrated in from the broadcast runtime left a frozen
	// replica of its cut-point state on every machine, and restarting
	// from that snapshot loses only the writes acknowledged by the
	// dead primary after the cut. Returns nil when no snapshot exists.
	recoverState func(meta *p2pMeta) State

	stats RTSStats
}

var _ System = (*P2PRTS)(nil)

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

// p2pInstance is one machine's copy of an object.
type p2pInstance struct {
	typ     *ObjectType
	state   State
	locked  bool
	valid   bool
	primary bool
	cond    *sim.Cond    // readers wait for unlock / guard / invalidation
	copyset map[int]bool // primary only
}

// p2pTask is a unit of work for an object's primary queue. Tasks
// from remote machines carry the RPC request to reply to; local tasks
// carry a condition the invoking thread waits on.
type p2pTask struct {
	kind string // "write", "read", "fetch", "moveout", "rehome"
	op   *OpDef
	args Args
	from int
	to   int // rehome target
	done bool
	res  Args
	cond sim.Cond
	req  *amoeba.Request
}

// p2pNode is the per-machine runtime state.
type p2pNode struct {
	rts    *P2PRTS
	m      *amoeba.Machine
	client *amoeba.Client
	srv    *amoeba.Server
	svc    *sim.Proc // the claimant route serves as
	insts  map[ObjID]*p2pInstance
	queues map[ObjID]*objQueue
	access map[ObjID]*accessStats
	tfree  []*p2pTask // see task
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

// NewP2PRTS builds the point-to-point runtime over the machines.
func NewP2PRTS(reg *Registry, costs Costs, cfg P2PConfig, machines []*amoeba.Machine) *P2PRTS {
	r := &P2PRTS{reg: reg, costs: costs, cfg: cfg, objs: make(map[ObjID]*p2pMeta), ids: &idAlloc{}}
	for _, m := range machines {
		n := &p2pNode{
			rts:    r,
			m:      m,
			client: amoeba.NewClient(m, rpcPolicy),
			insts:  make(map[ObjID]*p2pInstance),
			queues: make(map[ObjID]*objQueue),
			access: make(map[ObjID]*accessStats),
		}
		n.srv = amoeba.NewServer(m, p2pRPCPort)
		m.Bind(p2pCtlPort, n.handleCtl)
		n.svc = n.srv.Serve(n.route)
		r.nodes = append(r.nodes, n)
	}
	return r
}

// Nodes implements System.
func (r *P2PRTS) Nodes() int { return len(r.nodes) }

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

// PeekState implements System.
func (r *P2PRTS) PeekState(node int, id ObjID) (State, bool) {
	inst, ok := r.nodes[node].insts[id]
	if !ok || !inst.valid {
		return nil, false
	}
	return inst.state, true
}

func (r *P2PRTS) meta(id ObjID) *p2pMeta {
	m, ok := r.objs[id]
	if !ok {
		panic(fmt.Sprintf("rts: unknown object %d", id))
	}
	return m
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
	id := r.ids.alloc()
	node := r.nodes[w.Node()]
	w.Flush()
	w.M.Compute(w.P, r.costs.create)
	state := t.New(args)
	inst := &p2pInstance{
		typ: t, state: state, valid: true, primary: true,
		cond:    sim.NewCond(w.M.Env()),
		copyset: make(map[int]bool),
	}
	node.insts[id] = inst
	r.objs[id] = &p2pMeta{id: id, typ: t, primary: w.Node(), protocol: protocol, placement: placement,
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

// Invoke implements System.
func (r *P2PRTS) Invoke(w *Worker, id ObjID, op string, args ...any) []any {
	return invoke(r, w, id, op, args)
}

// Call implements System.
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
			// Local read; suspend while the copy is locked or the
			// guard is false. Flush before inspecting the replica:
			// flushing blocks on the CPU and a wakeup firing during
			// it would otherwise be lost; the check-then-Wait path
			// itself must never block.
			w.Flush()
			if !inst.valid {
				continue // invalidated while flushing
			}
			if inst.locked {
				if r.nodeDown(meta.primary) {
					// The primary died between update phases; re-home
					// the object, which also unlocks this copy.
					r.rehome(w, meta)
					continue
				}
				inst.cond.Wait(w.P)
				continue
			}
			if op.Guard != nil {
				w.Accrue(r.costs.guardCheck)
				if !op.Guard(inst.state, in) {
					r.stats.GuardWaits++
					inst.cond.Wait(w.P)
					continue
				}
			}
			r.stats.LocalReads++
			w.Accrue(r.costs.readLocal + r.costs.defaultOp)
			return op.Apply(inst.state, in)
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
	r := n.rts
	st := n.accessFor(meta.id)
	st.writes++
	r.stats.P2PWrites++
	w.Flush()
	for {
		if meta.moved {
			return retry // migrated to the broadcast runtime
		}
		var res Args
		if meta.primary == n.m.ID() {
			res = n.runLocal(w, meta.id, &p2pTask{kind: "write", op: op, args: in})
		} else if rep, ok := n.callPrimary(w, meta, opPacket(op, in)); ok {
			res = rep.Args
		} else {
			continue
		}
		if isRetry(res) && !meta.moved {
			continue // primary re-homed mid-op: retry at the new primary
		}
		n.maybeDiscard(w, meta, st)
		return res
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
	n.insts[id] = &p2pInstance{
		typ: t, state: state, valid: true,
		cond: sim.NewCond(n.m.Env()),
	}
}

// submitMigrate routes a migration task ("moveout" to the broadcast
// runtime, or "rehome" onto a new primary) to the object's primary
// queue and waits for it to run. A primary that dies first is
// re-homed and the task re-submitted; a moveout that already cut over
// (meta.moved) is left to the broadcast record to finish.
func (n *p2pNode) submitMigrate(w *Worker, meta *p2pMeta, kind string, target int) {
	w.Flush()
	for {
		if meta.moved {
			return
		}
		if meta.primary == n.m.ID() {
			n.runLocal(w, meta.id, &p2pTask{kind: kind, to: target})
			return
		}
		rep, ok := n.callPrimary(w, meta, amoeba.Packet{Op: "migrate", Body: p2pMigrateReq{Kind: kind, Target: target}, Size: 24})
		if ok && !(isRetry(rep.Args) && !meta.moved) { // else the primary crashed or re-homed mid-request: re-submit there
			return
		}
	}
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
