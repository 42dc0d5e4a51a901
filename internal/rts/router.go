package rts

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/amoeba"
	"repro/internal/group"
)

// Router is the runtime: one object manager per machine (objMgr) over
// two kinds of orderer, and the one placement layer that decides, per
// object and invisibly to the program, which orderer puts the object's
// writes in order, and routes every operation there. An orderer is
// either a sequencer group — a machine span whose members apply its
// delivery stream (seqGroup, bcast.go) — or an object's primary copy,
// whose queue serializes its writes (objQueue, p2p_server.go). A Router
// hosts zero or more groups, and primary copies when it is built with a
// P2PConfig, over the same machines, sharing the wire and the CPUs, so
// every mix of strategies is measured under honest contention:
//
//   - one group is the paper's §3.2.1 runtime;
//   - primary copies alone are the §3.2.2 runtime;
//   - a group plus primary copies places TSP's write-mostly job queue as
//     a single copy while the bound stays replicated;
//   - N groups split the total order so unrelated objects sequence
//     concurrently, each group optionally spanning only a subset of the
//     machines (its replication domain), with machines outside a span
//     forwarding to a holder inside it.
//
// Everything above the orderers lives here once: the object table (ids
// are unique across orderers), creation, the Call loop, crash fan-out,
// counters, cross-group fences (fence.go), the adaptive placement
// controller (adapt.go), the write-combining configuration, the handler
// for the Orca layer's bodies and each machine's manager.
type Router struct {
	machines []*amoeba.Machine
	reg      *Registry
	costs    Costs
	cfg      P2PConfig // the primary copies' default protocol and placement
	p2p      bool      // primary copies are built
	defP2P   bool      // Default placements become primary copies
	groups   []*seqGroup
	every    []int     // every group's index, ascending: a full-span fence's shards
	nodes    []*objMgr // by node id

	// objs is the object table, indexed by the dense ObjID: alloc hands
	// out the ids, counting up from 1. The simulation is single-threaded,
	// so no locking; but alloc may grow the slice, so nothing holds a
	// pointer into it across a blocking call.
	objs []objEntry

	// batch turns on the groups' write-combining pipeline (see
	// EnableBatching and batch.go); extra takes the group bodies and
	// barrier-fence payloads the runtime does not recognize.
	batch group.BatchConfig
	extra func(node int, body any)

	// fences holds each machine's in-flight fence records, by machine
	// and fence id: one table for the run, which makes one map where
	// one per machine would make one each. fenceAborted marks fences
	// presumed aborted after their initiator crashed mid-reservation:
	// late deliveries of an aborted fence complete without pausing or
	// applying (see presumeAbort).
	fences       map[fenceKey]*fenceRec
	fenceAborted map[int64]bool
	fenceSeq     int64

	// stats counts everything but a group's own work (seqGroup.stats):
	// the primary copies', fenced ops and migrations.
	stats RTSStats

	// What primary copies and their queues are carved from (see slab):
	// one slab of each per run wastes at most the rest of its last run;
	// one per machine would waste that per machine.
	replicas  slab[replica]
	queueRecs slab[objQueue]
}

// objEntry is one object's entry in the table: the orderer that puts
// its writes in order now (a group index, or domP2P for its primary
// copy), its type and an operation cache over it, the replica set of a
// partially replicated object (nil: its group's whole span), the
// creation arguments of an object that may restart from them (a primary
// copy's, an adaptive object's), its placement controller when it is
// adaptive, and its primary-copy record once it has had one.
type objEntry struct {
	dom   int
	typ   *ObjectType
	ops   opCache
	nodes []int
	args  []any
	adapt *adaptInfo
	meta  *p2pMeta
}

const (
	domNone = -2 // no such object
	domP2P  = -1 // ordered by its primary copy's queue
)

// svcPort is the object service's RPC port.
const svcPort = "objsvc"

// GroupDef describes one sequencer group of a Router: the group
// endpoints (already joined, on a port distinct per group) and the
// global node ids they live on, ascending. Members[i] must be joined
// on node Span[i].
type GroupDef struct {
	Members []*group.Member
	Span    []int
}

// PlaceKind is a placement family.
type PlaceKind int

const (
	// PlaceDefault follows the Router's default orderer.
	PlaceDefault PlaceKind = iota
	// PlaceReplicated replicates the object behind a sequencer group.
	PlaceReplicated
	// PlacePrimary keeps a primary copy that orders the writes.
	PlacePrimary
	// PlaceAdaptive starts replicated and re-places itself (adapt.go).
	PlaceAdaptive
)

// Place is a creation-time placement: which orderer hosts the object
// and how. The zero value with Group = -1 is the Router's default.
type Place struct {
	Kind PlaceKind
	// Nodes restricts a replicated object's replicas to a subset of its
	// group's span (nil: the whole span); on a primary copy it may only
	// name the creating machine.
	Nodes []int
	// Group names the sequencer group of a replicated or adaptive
	// object; negative picks one by hash of the object id among the
	// groups spanning the creator.
	Group int
	// Protocol and Copies govern a primary copy's secondaries.
	Protocol P2PProtocol
	Copies   Placement
	// Adapt parameterizes an adaptive object's controller.
	Adapt AdaptConfig
}

// NewRouter builds the runtime over machines (all nodes of the
// simulation, by node id): every machine's object manager, one
// sequencer group per GroupDef, and primary copies when p2p is non-nil.
// defaultP2P picks where Default placements go. With groups present,
// every machine must lie in at least one span, so creations and forks
// always have a local group to travel.
func NewRouter(reg *Registry, costs Costs, machines []*amoeba.Machine, groups []GroupDef, p2p *P2PConfig, defaultP2P bool) *Router {
	if defaultP2P && p2p == nil || !defaultP2P && len(groups) == 0 {
		panic("rts: the router's default orderer is not built")
	}
	// Ids start at 1. A run creates tens of objects: the table starts
	// with room for 16 and skips its first four regrowths.
	r := &Router{machines: machines, reg: reg, costs: costs, p2p: p2p != nil, defP2P: defaultP2P, objs: append(make([]objEntry, 0, 16), objEntry{dom: domNone})}
	if p2p != nil {
		r.cfg = *p2p
	}
	r.nodes = make([]*objMgr, len(machines))
	for i, m := range machines {
		r.nodes[i] = newObjMgr(r, m)
	}
	for k, def := range groups {
		for i := 1; i < len(def.Span); i++ {
			if def.Span[i-1] >= def.Span[i] {
				panic(fmt.Sprintf("rts: group %d span %v not ascending", k, def.Span))
			}
		}
		r.groups = append(r.groups, newSeqGroup(r, k, def.Members, def.Span))
		r.every = append(r.every, k)
	}
	for id := range machines {
		if len(groups) > 0 && !slices.ContainsFunc(r.groups, func(g *seqGroup) bool { return g.mgr(id) != nil }) {
			panic(fmt.Sprintf("rts: node %d lies in no group span", id))
		}
	}
	return r
}

// NewBroadcastRTS builds the paper's §3.2.1 runtime: a Router with one
// sequencer group over one member per machine. machines[i] and
// members[i] must be node i.
func NewBroadcastRTS(reg *Registry, costs Costs, machines []*amoeba.Machine, members []*group.Member) *Router {
	span := make([]int, len(machines))
	for i, m := range machines {
		span[i] = m.ID()
	}
	return NewRouter(reg, costs, machines, []GroupDef{{Members: members, Span: span}}, nil, false)
}

// NewP2PRTS builds the paper's §3.2.2 runtime: a Router whose objects
// are primary copies, over the machines (all nodes of the simulation,
// by node id).
func NewP2PRTS(reg *Registry, costs Costs, cfg P2PConfig, machines []*amoeba.Machine) *Router {
	return NewRouter(reg, costs, machines, nil, &cfg, true)
}

// Create creates an object under the default placement, and CreateWith
// a primary copy under the given protocol and placement; Invoke is Call
// for a positional argument list, returning the results boxed. They
// stay for the benchmark, which drives the runtimes NewBroadcastRTS and
// NewP2PRTS build directly; programs create through CreateAt and reach
// Call through the typed descriptors.
func (r *Router) Create(w *Worker, typeName string, args ...any) ObjID {
	return must(r.CreateAt(w, typeName, Place{Group: -1}, args...))
}

// CreateWith: see Create.
func (r *Router) CreateWith(w *Worker, typeName string, protocol P2PProtocol, placement Placement, args ...any) ObjID {
	return must(r.CreateAt(w, typeName, Place{Kind: PlacePrimary, Group: -1, Protocol: protocol, Copies: placement}, args...))
}

// Invoke: see Create.
func (r *Router) Invoke(w *Worker, id ObjID, op string, args ...any) []any {
	out := r.Call(w, id, op, ArgsOf(args...))
	return out.Values()
}

// must panics on a placement no orderer can honour.
func must(id ObjID, err error) ObjID {
	if err != nil {
		panic("rts: " + err.Error())
	}
	return id
}

// Groups reports the sequencer-group count.
func (r *Router) Groups() int { return len(r.groups) }

// EnableBatching turns on the write-combining pipeline in every group:
// unguarded no-result writes to fully replicated, non-adaptive objects
// are submitted through per-worker combining buffers and leave as
// multi-op frames (see batch.go). Call before the simulation starts. The
// group members should run the same configuration so the sequencer
// packs frames too.
func (r *Router) EnableBatching(bc group.BatchConfig) { r.batch = bc }

// SetExtraHandler installs the callback for group bodies the runtime
// does not recognize and barrier-fence payloads. The Orca layer uses it
// to order process creation within the same total order as object
// writes, which is what makes a freshly forked process observe all
// writes its parent issued before the fork.
func (r *Router) SetExtraHandler(h func(node int, body any)) { r.extra = h }

// NodeCrashed tells the runtime that a machine died; the orca runtime
// calls it while executing a fault plan. A group needs no repair: the
// dead machine's replicas, guard waiters and manager died with it, the
// group layer routes around a dead member (a crash of one group's
// sequencer is that group's problem alone), and forwarded operations
// skip holders the network reports down. Copies a dead primary left
// locked mid-update are released, so readers suspended on them re-check
// (re-homing itself happens lazily, when the next operation against
// the dead primary fails; see p2p_recover.go). It also wakes waiters of
// any moveout whose driving machine just died, so one of them can
// rescue the migration by re-broadcasting the snapshot (see awaitFlip),
// and starts the presumed-abort watch for the machine's fences.
func (r *Router) NodeCrashed(node int) {
	for _, g := range r.groups {
		g.stats.Crashes++
	}
	r.stats.Crashes++
	// The table walks in id order, so suspended readers wake in a
	// deterministic order.
	for id, e := range r.objs {
		if e.meta == nil || e.meta.primary != node {
			continue
		}
		for _, mg := range r.nodes {
			if inst := mg.p2pCopy(ObjID(id)); inst != nil && !mg.m.Crashed() && inst.locked {
				inst.locked = false
				inst.cond.Broadcast()
			}
		}
	}
	for _, e := range r.objs {
		if info := e.adapt; info != nil && info.migrating && info.toBr && !info.decided && info.fromNode == node {
			info.cond.Broadcast()
		}
	}
	r.presumeAbort(node)
}

// entry resolves an object's entry in the table. The pointer is good
// until the next alloc, which may grow the table: read what is needed
// before any blocking call.
func (r *Router) entry(id ObjID) *objEntry {
	if id <= 0 || int(id) >= len(r.objs) || r.objs[id].dom == domNone {
		panic(fmt.Sprintf("rts: unknown object %d", id))
	}
	return &r.objs[id]
}

// op resolves an operation of an object through its entry's cache.
func (r *Router) op(id ObjID, name string) *OpDef {
	e := &r.objs[id]
	return e.ops.lookup(e.typ, name)
}

// alloc hands out the next object id and enters it in the table, under
// orderer dom, of type t, with replica set nodes and creation arguments
// args. A creation allocates before it is announced, so every machine
// that applies it finds the entry.
func (r *Router) alloc(dom int, t *ObjectType, nodes []int, args []any) ObjID {
	r.objs = append(r.objs, objEntry{dom: dom, typ: t, nodes: nodes, args: args})
	return ObjID(len(r.objs) - 1)
}

// enter drains the worker's write-combining buffer when an operation
// targets a different orderer than the buffered writes: program order
// must reach the buffer's total order before the operation leaves for
// another group or for a primary copy (dom is domP2P). The buffer then
// follows the worker to the new group's manager. A worker streaming
// into one group never pays this; ping-ponging across orderers degrades
// to one frame per switch — placement, not the runtime, is the lever
// there.
func (r *Router) enter(w *Worker, dom int) {
	b := w.batch
	if b == nil || b.mgr.sg.k == dom {
		return
	}
	b.sync(w)
	if dom >= 0 {
		if bm := r.groups[dom].mgr(w.Node()); bm != nil {
			b.mgr = bm
		}
	}
}

// hashGroup spreads object ids over n groups (Fibonacci hashing; ids
// are sequential, so the low bits alone would stripe, not spread).
func hashGroup(id ObjID, n int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int((h >> 33) % uint64(n))
}

// resolve matches a placement against the orderers that were built —
// the one place that happens. It returns the placement with Default
// resolved to a concrete kind, or an error naming the missing orderer
// (or the argument no orderer can honour).
func (r *Router) resolve(pl Place) (Place, error) {
	if pl.Kind == PlaceDefault {
		switch {
		case !r.defP2P:
			pl.Kind = PlaceReplicated
		case pl.Nodes != nil:
			return pl, errors.New("a replica set without a policy needs a broadcast default; name a replicated or primary-copy policy")
		default:
			pl.Kind, pl.Protocol, pl.Copies = PlacePrimary, r.cfg.Protocol, r.cfg.Placement
		}
	}
	adaptive := pl.Kind == PlaceAdaptive
	switch {
	case pl.Kind == PlacePrimary && !r.p2p:
		return pl, errors.New("primary-copy placement needs the point-to-point domain, which this configuration does not build")
	case pl.Kind == PlacePrimary && pl.Group >= 0:
		return pl, errors.New("a primary copy has no sequencer group")
	case pl.Kind == PlacePrimary:
		return pl, nil
	case len(r.groups) == 0:
		return pl, errors.New("replicated placement needs a sequencer group, which this configuration (no broadcast hardware) does not build")
	case adaptive && !r.p2p:
		return pl, errors.New("adaptive placement migrates between a sequencer group and the point-to-point domain, which this configuration does not build")
	case adaptive && pl.Nodes != nil:
		return pl, errors.New("an adaptive object replicates on its whole home group; it takes no replica set")
	case pl.Group >= len(r.groups):
		return pl, fmt.Errorf("sequencer group %d out of range [0,%d)", pl.Group, len(r.groups))
	}
	return pl, nil
}

// Hosts reports whether the orderers that were built can host the
// placement, with the error CreateAt would return from any machine.
func (r *Router) Hosts(pl Place) error {
	_, err := r.resolve(pl)
	return err
}

// CreateAt creates an object under the given placement. When the
// placement cannot be honoured — its orderer was not built (see
// resolve), or the creating machine or the replica set lies outside the
// sequencer group's span — it returns the error and has created
// nothing.
func (r *Router) CreateAt(w *Worker, typeName string, pl Place, args ...any) (ObjID, error) {
	pl, err := r.resolve(pl)
	if err != nil {
		return 0, err
	}
	node := w.Node()
	if pl.Kind == PlacePrimary {
		if pl.Nodes != nil && (len(pl.Nodes) != 1 || pl.Nodes[0] != node) {
			return 0, fmt.Errorf("a primary copy lives on its creating machine %d; replica set %v cannot move it", node, pl.Nodes)
		}
		r.enter(w, domP2P)
		return r.nodes[node].createPrimary(w, typeName, pl.Protocol, pl.Copies, args), nil
	}
	k := pl.Group
	if k < 0 {
		var elig []int
		for g := range r.groups {
			if r.groups[g].mgr(node) != nil {
				elig = append(elig, g)
			}
		}
		k = elig[hashGroup(ObjID(len(r.objs)), len(elig))] // the id alloc hands out next
	} else if r.groups[k].mgr(node) == nil {
		return 0, fmt.Errorf("create on sequencer group %d from node %d outside its span %v", k, node, r.groups[k].span)
	}
	g := r.groups[k]
	if pl.Nodes != nil && !slices.Contains(pl.Nodes, node) {
		return 0, fmt.Errorf("replica set %v must contain the creating machine %d", pl.Nodes, node)
	}
	for _, n := range pl.Nodes {
		if g.mgr(n) == nil {
			return 0, fmt.Errorf("replica set %v leaves sequencer group %d's span %v", pl.Nodes, k, g.span)
		}
	}
	r.enter(w, k)
	id := g.createOn(w, typeName, pl.Nodes, args)
	if pl.Kind == PlaceAdaptive {
		r.adopt(w, id, pl.Adapt, args)
	}
	return id, nil
}

// Call performs an operation on a shared object with the
// sequential-consistency and indivisibility guarantees of the shared
// data-object model: in are its arguments, the record returned its
// results. It blocks for guards, locks and write completion. It is the
// one routing loop, and the runtime's one entry for an operation by
// name (the typed descriptors of package orca call it). The worker's
// combining buffer drains when the target orderer changes; the orderer
// decides where the operation runs (a machine holding no replica
// forwards it, see seqGroup.call); and an invocation that bounces off
// an object's old placement mid-migration (the retry status, see
// adapt.go) waits for the ownership flip and re-issues under the new
// placement — at most once per migration, and the re-issued operation
// executes exactly once, after the cut.
func (r *Router) Call(w *Worker, id ObjID, op string, in Args) Args {
	for {
		e := r.entry(id)
		dom, info := e.dom, e.adapt
		r.enter(w, dom)
		var res Args
		if dom == domP2P {
			res = r.nodes[w.Node()].callPrimary(w, id, op, in)
		} else {
			res = r.groups[dom].call(w, id, op, in)
		}
		if !isRetry(res) {
			if info != nil {
				r.adaptObserve(w, id, info, op)
			}
			return res
		}
		if info == nil {
			panic(fmt.Sprintf("rts: migration bounce on non-adaptive object %d", id))
		}
		r.awaitFlip(w, id, info, dom)
	}
}

// LocalReadState is the typed local-read fast path: an unguarded read
// of a replicated object is applied by the caller to the state it
// returns, counted and charged exactly as Call's read path would.
// Everything else declines, and the caller takes Call: a guarded read,
// a primary-copy object (local copy, lock, or RPC), a machine holding
// no replica (forwarded), a replica frozen at a migration cut (bounced
// to the live placement). A replica not created yet is waited for, and
// the worker's buffered writes, to any object, are synced first.
//
// The hit path reads the entry, this machine's copy (objMgr.copies, by
// object id) and the batch-idle check, when the object is non-adaptive
// and the worker's combining buffer is idle: such an object never
// changes orderer and its replica is never replaced or frozen, because
// only a migration does that (adapt.go). Anything else — an adaptive
// object, a replica not there (yet), a write of the worker's still
// buffered or in flight — takes resolveRead.
func (r *Router) LocalReadState(w *Worker, id ObjID, op *OpDef) (State, bool) {
	if op.Guard == nil && uint(id) < uint(len(r.objs)) {
		if e := &r.objs[id]; e.dom >= 0 && e.adapt == nil {
			if inst := r.nodes[w.M.ID()].copy(id); inst != nil && w.batch.idle() {
				r.groups[e.dom].stats.LocalReads++
				w.Charge(r.costs.readLocal + r.costs.defaultOp)
				return inst.state, true
			}
		}
	}
	return r.resolveRead(w, id, op)
}

// resolveRead is LocalReadState's general path.
func (r *Router) resolveRead(w *Worker, id ObjID, op *OpDef) (State, bool) {
	e := r.entry(id)
	if e.dom == domP2P || op.Guard != nil || !r.groups[e.dom].replicatedOn(w.Node(), id) {
		return nil, false
	}
	g, info := r.groups[e.dom], e.adapt
	inst := r.nodes[w.Node()].instance(w.P, id, false)
	w.SyncShared()
	if inst.moved {
		return nil, false
	}
	g.stats.LocalReads++
	w.Charge(r.costs.readLocal + r.costs.defaultOp)
	if info != nil {
		// Counted, not decided: a full window waits for the object's
		// next access through Call (see adaptObserve).
		info.count(w.Node(), Read)
	}
	return inst.state, true
}

// held returns a machine's current copy of an object under its present
// orderer: a group's replica, or a primary or secondary copy; nil
// if it holds none.
func (r *Router) held(node int, id ObjID) *replica {
	if id <= 0 || int(id) >= len(r.objs) || r.objs[id].dom == domNone {
		return nil
	}
	if r.objs[id].dom >= 0 {
		return r.nodes[node].seqCopy(id)
	}
	return r.nodes[node].p2pCopy(id)
}

// PeekState returns a machine's current copy of an object (nil if it
// holds none): an inspection hook for tests and experiment harnesses,
// not part of the programming model.
func (r *Router) PeekState(node int, id ObjID) (State, bool) {
	if inst := r.held(node, id); inst != nil {
		return inst.state, true
	}
	return nil, false
}

// PendingWrites reports how many guarded operations are parked on a
// machine's copy of an object; exposed for tests.
func (r *Router) PendingWrites(node int, id ObjID) int {
	if inst := r.held(node, id); inst != nil {
		return len(inst.pending)
	}
	return 0
}

// HasCopy reports whether a live machine holds a valid copy of an
// object.
func (r *Router) HasCopy(node int, id ObjID) bool {
	return !r.machines[node].Crashed() && r.held(node, id) != nil
}

// CopyCount reports how many machines hold a copy of an object. Copies
// that died with a crashed machine do not count.
func (r *Router) CopyCount(id ObjID) int {
	n := 0
	for node := range r.nodes {
		if r.HasCopy(node, id) {
			n++
		}
	}
	return n
}

// Primary reports a primary-copy object's primary machine.
func (r *Router) Primary(id ObjID) int { return r.meta(id).primary }

// Counters merges every group's counters and the Router's own into one
// snapshot.
func (r *Router) Counters() RTSStats {
	snaps := append(make([]RTSStats, 0, len(r.groups)+1), r.stats)
	for _, g := range r.groups {
		snaps = append(snaps, g.counters())
	}
	return Merge(snaps...)
}

// ShardStats reports each sequencer group's own counter snapshot, in
// group order, when the total order is sharded over several groups —
// the per-shard breakdown Report.Shards surfaces. Nil otherwise.
func (r *Router) ShardStats() []RTSStats {
	if len(r.groups) < 2 {
		return nil
	}
	out := make([]RTSStats, len(r.groups))
	for k, g := range r.groups {
		out[k] = g.counters()
	}
	return out
}
