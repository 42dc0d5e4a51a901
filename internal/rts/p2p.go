package rts

import (
	"errors"
	"fmt"

	"repro/internal/amoeba"
	"repro/internal/sim"
)

// Primary copies are the orderer of the paper's §3.2.2 runtime system,
// for networks without hardware broadcast. Each object has a primary
// copy on one machine; other machines may hold secondary copies. Writes
// go to the primary, whose queue orders them and keeps the secondaries
// consistent with one of two protocols:
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

// rpcPolicy is the object service clients' RPC policy: a guarded
// operation can legitimately block for a long time, so retries are
// high.
var rpcPolicy = amoeba.RPCDefaults{Timeout: 2 * sim.Second, Retries: 1 << 20}

// p2pMeta is an object's primary-copy record: the primary machine, and
// the consistency protocol and placement policy governing it. Protocol
// and placement are per object — plain Create copies them from the
// Router's configuration, CreateWith overrides them — so one runtime can
// host objects under different policies side by side.
type p2pMeta struct {
	primary   int
	protocol  P2PProtocol
	placement Placement

	// moved marks an object that migrated into its group (see
	// adapt.go): every primary-copy path bounces it with the migration
	// retry status.
	moved bool

	// access holds every machine's statistics for the object, by node
	// id, made at the first access (see accessFor). It never grows, so
	// a machine's record stays put while an access that holds it
	// blocks.
	access []accessStats
}

// p2pTask is a unit of work for an object's primary queue. Tasks
// from remote machines carry the RPC request to reply to; a local task's
// invoking thread waits on cond until the task is done with res.
type p2pTask struct {
	kind string // "write", "read", "fetch", "migrate"
	op   *OpDef
	args Args
	from int
	to   int // a migration's new primary, -1 for the home group
	req  *amoeba.Request
	done bool
	res  Args
	cond sim.Cond
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
		Target int // the new primary, or -1: out into the object's group
	}
)

// p2pCtlPort is the one-way port: unlock, drop, install. Requests (an
// operation, an update, an invalidation, a fetch) go to the object
// service (svcPort).
const p2pCtlPort = "objctl"

// meta returns an object's primary-copy record.
func (r *Router) meta(id ObjID) *p2pMeta {
	if m := r.entry(id).meta; m != nil {
		return m
	}
	panic(fmt.Sprintf("rts: object %d has never had a primary copy", id))
}

// createPrimary instantiates the object with its single primary copy on
// the creating machine (the paper: "Initially, only one copy of each
// object is maintained"), under the given protocol and placement. Under
// FullReplication, copies are pushed to every machine over the wire.
func (mg *objMgr) createPrimary(w *Worker, typeName string, protocol P2PProtocol, placement Placement, args []any) ObjID {
	r := mg.r
	t := r.reg.Lookup(typeName)
	id := r.alloc(domP2P, t, nil, append([]any(nil), args...))
	w.Flush()
	w.M.Compute(w.P, r.costs.create)
	state := t.New(args)
	inst := mg.installCopy(id, state)
	inst.primary, inst.copyset = true, make(map[int]bool)
	r.objs[id].meta = &p2pMeta{primary: w.Node(), protocol: protocol, placement: placement}
	mg.startPrimary(id)
	if placement == FullReplication {
		for _, other := range r.nodes {
			if other == mg {
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

// callPrimary performs an operation on a primary-copy object: in are
// its arguments, the record returned its results.
func (mg *objMgr) callPrimary(w *Worker, id ObjID, opName string, in Args) Args {
	meta, op := mg.r.meta(id), mg.r.op(id, opName)
	if op.Kind == Read {
		return mg.invokeRead(w, id, meta, op, in)
	}
	return mg.invokeWrite(w, id, meta, op, in)
}

// --- invocation paths -------------------------------------------------

// invokeRead serves a read locally when a valid copy exists, otherwise
// remotely at the primary; it then updates statistics and may fetch a
// copy. A primary that dies mid-read is detected by the failing RPC
// (or by a copy left locked forever) and the object is re-homed before
// the read retries.
func (mg *objMgr) invokeRead(w *Worker, id ObjID, meta *p2pMeta, op *OpDef, in Args) Args {
	r := mg.r
	st := mg.accessFor(meta)
	st.reads++
	for {
		if meta.moved {
			return retry // migrated into its group
		}
		if inst := mg.p2pCopy(id); inst != nil {
			// Local read, once the copy is unlocked and the guard holds.
			if awaitGuard(w, inst, op, in, r.costs.guardCheck, &r.stats.GuardWaits) {
				r.stats.LocalReads++
				w.Accrue(r.costs.readLocal + r.costs.defaultOp)
				return op.Apply(mg.m.Env(), inst.state, in)
			}
			if !inst.dropped && inst.locked {
				if r.nodeDown(meta.primary) {
					// The primary died between update phases; re-home
					// the object, which also unlocks this copy.
					r.rehome(id, meta)
				} else {
					inst.cond.Wait(w.P)
				}
			}
			continue // invalidated, or unlocked: look again
		}
		// No local copy: maybe fetch one first, else read remotely.
		if mg.shouldFetch(meta, st) {
			mg.fetchCopy(w, id, meta)
			continue
		}
		r.stats.RemoteReads++
		w.Flush()
		rep, ok := mg.toPrimary(w, id, meta, opPacket(op, in))
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
func (mg *objMgr) invokeWrite(w *Worker, id ObjID, meta *p2pMeta, op *OpDef, in Args) Args {
	st := mg.accessFor(meta)
	st.writes++
	mg.r.stats.P2PWrites++
	w.Flush()
	res := mg.atPrimary(w, id, meta, p2pTask{kind: "write", op: op, args: in}, opPacket(op, in))
	if !isRetry(res) {
		mg.maybeDiscard(w, id, meta, st)
	}
	return res
}

// atPrimary runs task t, or has its primary run req, at the object's
// primary — queued here when this machine is the primary, by RPC
// otherwise — and returns the result. A primary that crashed or
// re-homed meanwhile is resolved again and asked again; an object that
// migrated into its group returns the retry status.
func (mg *objMgr) atPrimary(w *Worker, id ObjID, meta *p2pMeta, t p2pTask, req amoeba.Packet) Args {
	for {
		if meta.moved {
			return retry
		}
		var res Args
		if meta.primary == mg.m.ID() {
			res = mg.runLocal(w, id, &t)
		} else if rep, ok := mg.toPrimary(w, id, meta, req); ok {
			res = rep.Args
		} else {
			continue
		}
		if !isRetry(res) || meta.moved {
			return res
		}
	}
}

// runLocal queues task t of this machine's for the queue of an object
// whose primary it is, and waits for its result. The task travels in a
// record of the manager's (see task), which the invoker gives back once
// it has read the result.
func (mg *objMgr) runLocal(w *Worker, id ObjID, t *p2pTask) Args {
	lt := mg.task()
	lt.kind, lt.op, lt.args, lt.to, lt.from = t.kind, t.op, t.args, t.to, mg.m.ID()
	mg.queues[id].q.Put(lt)
	for !lt.done {
		lt.cond.Wait(w.P)
	}
	res := lt.res
	mg.recycle(lt)
	return res
}

// opPacket is the request that has the primary execute op.
func opPacket(op *OpDef, in Args) amoeba.Packet {
	return amoeba.Packet{Op: op.Name, Args: in, Size: opSize(op.Name, &in)}
}

// toPrimary sends req about the object to its primary. A primary that
// has crashed is re-homed first and ok is false: the caller resolves
// the object again and retries. Any other failure is a bug and panics.
func (mg *objMgr) toPrimary(w *Worker, id ObjID, meta *p2pMeta, req amoeba.Packet) (rep amoeba.Packet, ok bool) {
	req.Port, req.Obj = svcPort, int64(id)
	rep, err := mg.cl.Call(w.P, meta.primary, req)
	if !failed(err, &req) {
		return rep, true
	}
	mg.r.stats.OpsRetried++
	mg.r.rehome(id, meta)
	return rep, false
}

// failed reports whether an RPC about req failed, which it may only do
// because its target crashed: any other failure is a bug and panics.
func failed(err error, req *amoeba.Packet) bool {
	if err != nil && !errors.Is(err, amoeba.ErrCrashed) {
		panic(fmt.Sprintf("rts: %s on object %d failed: %v", req.Op, req.Obj, err))
	}
	return err != nil
}

// accessFor returns this machine's statistics for an object.
func (mg *objMgr) accessFor(meta *p2pMeta) *accessStats {
	if meta.access == nil {
		meta.access = make([]accessStats, len(mg.r.nodes))
	}
	return &meta.access[mg.m.ID()]
}

// shouldFetch applies the fetch threshold.
func (mg *objMgr) shouldFetch(meta *p2pMeta, st *accessStats) bool {
	return meta.placement == DynamicPlacement && st.reads+st.writes >= windowMin && st.ratio() >= fetchRatio
}

// maybeDiscard applies the discard threshold to a local secondary.
func (mg *objMgr) maybeDiscard(w *Worker, id ObjID, meta *p2pMeta, st *accessStats) {
	if meta.placement != DynamicPlacement || st.reads+st.writes < windowMin || st.ratio() > discardRatio {
		return
	}
	if inst := mg.p2pCopy(id); inst == nil || inst.primary {
		return
	}
	mg.r.stats.Discards++
	mg.dropLocal(id)
	mg.m.Send(w.P, meta.primary, amoeba.Packet{
		Port: p2pCtlPort, Kind: "rts-drop",
		Body: p2pDrop{Obj: id, Node: mg.m.ID()}, Size: 16,
	})
	st.reads, st.writes = 0, 0
}

// fetchCopy installs a secondary copy from the primary, re-homing the
// object first if the primary died.
func (mg *objMgr) fetchCopy(w *Worker, id ObjID, meta *p2pMeta) {
	mg.r.stats.Fetches++
	st := mg.accessFor(meta)
	st.reads, st.writes = 0, 0
	for {
		if meta.moved || meta.primary == mg.m.ID() {
			return // migrated away, or re-homed onto this very machine
		}
		rep, ok := mg.toPrimary(w, id, meta, amoeba.Packet{Op: "fetch", Body: p2pFetchReq{Node: mg.m.ID()}, Size: 16})
		if ok && !isRetry(rep.Args) { // else the primary moved mid-fetch: re-resolve
			mg.installCopy(id, rep.Body.(State))
			return
		}
	}
}

// submitMigrate routes a migration task (into the home group, target
// -1, or onto a new primary, target) to the object's primary queue and waits
// for it to run. A primary that dies first is re-homed and the task
// re-submitted; a moveout that already cut over (meta.moved) is left to
// the group's record to finish.
func (mg *objMgr) submitMigrate(w *Worker, id ObjID, target int) {
	w.Flush()
	mg.atPrimary(w, id, mg.r.meta(id), p2pTask{kind: "migrate", to: target},
		amoeba.Packet{Op: "migrate", Body: p2pMigrateReq{Target: target}, Size: 24})
}
