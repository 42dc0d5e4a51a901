package rts

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/sim"
)

// Router is the one placement layer of the runtime: it decides, per
// object and invisibly to the program, which domain hosts it, and
// routes every operation there. A domain is either a sequencer group —
// a BroadcastRTS over a machine span, replicating its objects behind
// its own total order — or the point-to-point domain, a P2PRTS keeping
// one primary copy per object. A Router hosts zero or more groups and
// at most one point-to-point domain over the same machines, sharing
// the wire and the CPUs, so every mix of strategies is measured under
// honest contention:
//
//   - one group is the paper's §3.2.1 runtime;
//   - the point-to-point domain alone is the §3.2.2 runtime;
//   - a group plus the point-to-point domain places TSP's write-mostly
//     job queue as a single copy while the bound stays replicated;
//   - N groups split the total order so unrelated objects sequence
//     concurrently, each group optionally spanning only a subset of the
//     machines (its replication domain), with machines outside a span
//     forwarding to a holder inside it.
//
// A domain is always a part of its Router, even when built alone
// (NewBroadcastRTS, NewP2PRTS build a one-domain Router): it reads every
// per-object fact from the Router's object table and every shared
// setting from the Router. Everything above the domains lives here once:
// the object table (ids are unique across domains), creation, the Call
// loop, crash fan-out, counters, cross-group fences (fence.go), the
// adaptive placement controller (adapt.go), the write-combining
// configuration, the handler for the Orca layer's bodies and each
// machine's object service.
type Router struct {
	machines []*amoeba.Machine
	groups   []*BroadcastRTS
	every    []int   // every group's index, ascending: a full-span fence's shards
	p2p      *P2PRTS // nil when the point-to-point domain is not built
	defP2P   bool    // Default placements go to the point-to-point domain

	// objs is the object table, indexed by the dense ObjID: alloc hands
	// out the ids, counting up from 1. The simulation is single-threaded,
	// so no locking; but alloc may grow the slice, so nothing holds a
	// pointer into it across a blocking call.
	objs []objEntry

	// batch turns on the groups' write-combining pipeline (see
	// EnableBatching and batch.go); extra takes the group bodies and
	// barrier-fence payloads the runtime does not recognize; svc is each
	// machine's object service, by node id.
	batch group.BatchConfig
	extra func(node int, body any)
	svc   []*objService

	// fences holds each machine's in-flight fence records, by machine
	// and fence id. fenceAborted marks fences presumed aborted after their
	// initiator crashed mid-reservation: late deliveries of an aborted
	// fence complete without pausing or applying (see presumeAbort).
	fences       map[fenceKey]*fenceRec
	fenceAborted map[int64]bool
	fenceSeq     int64

	// stats counts the Router's own work: fenced ops and migrations.
	stats RTSStats

	// What the point-to-point domain's copies and queues are carved from
	// (see slab): one slab of each per run wastes at most the rest of its
	// last run; one per machine would waste that per machine.
	replicas  slab[replica]
	queueRecs slab[objQueue]
}

// objEntry is one object's entry in the table: the domain hosting it
// now, the replica set of a partially replicated object (nil: its
// group's whole span), its placement controller when it is adaptive, and
// its point-to-point record once it has lived in that domain.
type objEntry struct {
	dom   int // domNone, domP2P, or a sequencer-group index
	nodes []int
	adapt *adaptInfo
	meta  *p2pMeta
}

const (
	domNone = -2 // no such object
	domP2P  = -1 // the point-to-point domain
)

// svcPort is the object service's RPC port.
const svcPort = "objsvc"

// objService is a machine's one remote-request service: an RPC server
// on svcPort, a consumer with no process behind it (see
// amoeba.Server.Serve) that serves every domain's requests (see serve),
// and the client through which the machine's runtime calls the others.
type objService struct {
	m   *amoeba.Machine
	srv *amoeba.Server
	cl  *amoeba.Client
	c   *sim.Proc // the claimant the service serves as
}

// serve routes a request to the machine's object service: a forwarded
// operation to its object's group, the group that hosts it or, while it
// lives in the point-to-point domain, its home group; anything else to
// the point-to-point domain.
func (r *Router) serve(s *objService, req *amoeba.Request) {
	if _, fwd := req.Body.(fwdReq); fwd {
		e := &r.objs[req.Obj]
		k := e.dom
		if k == domP2P {
			k = e.adapt.home
		}
		r.groups[k].serveForward(s, req)
		return
	}
	r.p2p.nodes[s.m.ID()].route(req)
}

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
	// PlaceDefault follows the Router's default domain.
	PlaceDefault PlaceKind = iota
	// PlaceReplicated replicates the object behind a sequencer group.
	PlaceReplicated
	// PlacePrimary keeps a primary copy in the point-to-point domain.
	PlacePrimary
	// PlaceAdaptive starts replicated and re-places itself (adapt.go).
	PlaceAdaptive
)

// Place is a creation-time placement: which domain hosts the object
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
// simulation, by node id): one BroadcastRTS per GroupDef, and the
// point-to-point domain when p2p is non-nil, and every machine's object
// service. defaultP2P picks where Default placements go. With groups
// present, every machine must lie in at least one span, so creations
// and forks always have a local group to travel.
func NewRouter(reg *Registry, costs Costs, machines []*amoeba.Machine, groups []GroupDef, p2p *P2PConfig, defaultP2P bool) *Router {
	if defaultP2P && p2p == nil || !defaultP2P && len(groups) == 0 {
		panic("rts: the router's default domain is not built")
	}
	r := &Router{machines: machines, defP2P: defaultP2P, objs: []objEntry{{dom: domNone}}} // ids start at 1
	for _, m := range machines {
		s := &objService{m: m, srv: amoeba.NewServer(m, svcPort), cl: amoeba.NewClient(m, rpcPolicy)}
		s.c = s.srv.Serve(func(req *amoeba.Request) { r.serve(s, req) })
		r.svc = append(r.svc, s)
	}
	covered := make([]bool, len(machines))
	for k, def := range groups {
		sub := make([]*amoeba.Machine, len(def.Span))
		for i, id := range def.Span {
			if i > 0 && def.Span[i-1] >= id {
				panic(fmt.Sprintf("rts: group %d span %v not ascending", k, def.Span))
			}
			sub[i] = machines[id]
			covered[id] = true
		}
		r.groups = append(r.groups, newBroadcastRTS(r, k, reg, costs, sub, def.Members, def.Span))
		r.every = append(r.every, k)
	}
	for id := range machines {
		if len(groups) > 0 && !covered[id] {
			panic(fmt.Sprintf("rts: node %d lies in no group span", id))
		}
	}
	if p2p != nil {
		r.p2p = newP2PRTS(r, reg, costs, *p2p)
	}
	return r
}

// Groups reports the sequencer-group count.
func (r *Router) Groups() int { return len(r.groups) }

// Group exposes one sequencer group's runtime (statistics, tests).
func (r *Router) Group(k int) *BroadcastRTS { return r.groups[k] }

// P2P exposes the point-to-point domain (statistics, tests); nil when
// not built.
func (r *Router) P2P() *P2PRTS { return r.p2p }

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

// NodeCrashed tells every domain that a machine died; the orca runtime
// calls it while executing a fault plan. A crash of one group's
// sequencer is that group's problem alone: the other groups' streams
// keep delivering while it recovers. It also wakes waiters of any
// moveout whose driving machine just died, so one of them can rescue
// the migration by re-broadcasting the snapshot (see awaitFlip), and
// starts the presumed-abort watch for the machine's fences.
func (r *Router) NodeCrashed(node int) {
	for _, g := range r.groups {
		g.NodeCrashed(node)
	}
	if r.p2p != nil {
		r.p2p.NodeCrashed(node)
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

// alloc hands out the next object id and enters it in the table, in
// domain dom with replica set nodes. A domain allocates before it
// announces the creation, so every machine that applies it finds the
// entry.
func (r *Router) alloc(dom int, nodes []int) ObjID {
	r.objs = append(r.objs, objEntry{dom: dom, nodes: nodes})
	return ObjID(len(r.objs) - 1)
}

// enter drains the worker's write-combining buffer when an operation
// targets a different domain than the buffered writes: program order
// must reach the buffer's total order before the operation leaves for
// another group or for the point-to-point domain (g == nil). The buffer
// then follows the worker to the new group's manager. A worker
// streaming into one group never pays this; ping-ponging across
// domains degrades to one frame per switch — placement, not the
// runtime, is the lever there.
func (r *Router) enter(w *Worker, g *BroadcastRTS) {
	b := w.batch
	if b == nil || b.mgr.rts == g {
		return
	}
	b.sync(w)
	if g != nil {
		if mg := g.mgr(w.Node()); mg != nil {
			b.mgr = mg
		}
	}
}

// hashGroup spreads object ids over n groups (Fibonacci hashing; ids
// are sequential, so the low bits alone would stripe, not spread).
func hashGroup(id ObjID, n int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int((h >> 33) % uint64(n))
}

// resolve matches a placement against the domains that were built —
// the one place that happens. It returns the placement with Default
// resolved to a concrete kind, or an error naming the missing domain
// (or the argument no domain can honour).
func (r *Router) resolve(pl Place) (Place, error) {
	if pl.Kind == PlaceDefault {
		switch {
		case !r.defP2P:
			pl.Kind = PlaceReplicated
		case pl.Nodes != nil:
			return pl, errors.New("a replica set without a policy needs a broadcast default; name a replicated or primary-copy policy")
		default:
			pl.Kind, pl.Protocol, pl.Copies = PlacePrimary, r.p2p.cfg.Protocol, r.p2p.cfg.Placement
		}
	}
	adaptive := pl.Kind == PlaceAdaptive
	switch {
	case pl.Kind == PlacePrimary && r.p2p == nil:
		return pl, errors.New("primary-copy placement needs the point-to-point domain, which this configuration does not build")
	case pl.Kind == PlacePrimary && pl.Group >= 0:
		return pl, errors.New("a primary copy has no sequencer group")
	case pl.Kind == PlacePrimary:
		return pl, nil
	case len(r.groups) == 0:
		return pl, errors.New("replicated placement needs a sequencer group, which this configuration (no broadcast hardware) does not build")
	case adaptive && r.p2p == nil:
		return pl, errors.New("adaptive placement migrates between a sequencer group and the point-to-point domain, which this configuration does not build")
	case adaptive && pl.Nodes != nil:
		return pl, errors.New("an adaptive object replicates on its whole home group; it takes no replica set")
	case pl.Group >= len(r.groups):
		return pl, fmt.Errorf("sequencer group %d out of range [0,%d)", pl.Group, len(r.groups))
	}
	return pl, nil
}

// Hosts reports whether the domains that were built can host the
// placement, with the error CreateAt would return from any machine.
func (r *Router) Hosts(pl Place) error {
	_, err := r.resolve(pl)
	return err
}

// CreateAt creates an object under the given placement. When the
// placement cannot be honoured — its domain was not built (see
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
		r.enter(w, nil)
		return r.p2p.CreateWith(w, typeName, pl.Protocol, pl.Copies, args...), nil
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
	r.enter(w, g)
	id := g.CreateOn(w, typeName, pl.Nodes, args...)
	if pl.Kind == PlaceAdaptive {
		r.adopt(w, id, g, typeName, pl.Adapt, args)
	}
	return id, nil
}

// Call performs an operation on a shared object with the
// sequential-consistency and indivisibility guarantees of the shared
// data-object model: in are its arguments, the record returned its
// results. It blocks for guards, locks and write completion. It is the
// one routing loop, and the runtime's one entry for an operation by
// name (the typed descriptors of package orca call it). The worker's
// combining buffer drains when the target domain changes; the owning
// domain decides where the operation runs (a machine holding no replica
// forwards it, see BroadcastRTS.Call); and an invocation that bounces
// off an object's old placement mid-migration (the retry status, see
// adapt.go) waits for the ownership flip and re-issues under the new
// placement — at most once per migration, and the re-issued operation
// executes exactly once, after the cut.
func (r *Router) Call(w *Worker, id ObjID, op string, in Args) Args {
	for {
		e := r.entry(id)
		dom, info := e.dom, e.adapt
		var res Args
		if dom == domP2P {
			r.enter(w, nil)
			res = r.p2p.Call(w, id, op, in)
		} else {
			g := r.groups[dom]
			r.enter(w, g)
			res = g.Call(w, id, op, in)
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

// PeekState returns a machine's current copy of an object (nil if it
// holds none), routing by object: an inspection hook for tests and
// experiment harnesses, not part of the programming model.
func (r *Router) PeekState(node int, id ObjID) (State, bool) {
	if id <= 0 || int(id) >= len(r.objs) {
		return nil, false
	}
	switch dom := r.objs[id].dom; dom {
	case domNone:
		return nil, false
	case domP2P:
		return r.p2p.PeekState(node, id)
	default:
		return r.groups[dom].PeekState(node, id)
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
// The hit path reads the replica straight out of the machine's replica
// table (bcastManager.insts, by object id) when the object is
// non-adaptive and the worker's combining buffer is idle: such an
// object never changes domain and its replica is never replaced or
// frozen, because only a migration does that (adapt.go). Anything else
// — an adaptive object, a replica not there (yet), a write of the
// worker's still buffered or in flight — takes resolveRead.
func (r *Router) LocalReadState(w *Worker, id ObjID, op *OpDef) (State, bool) {
	if op.Guard == nil && uint(id) < uint(len(r.objs)) {
		if e := &r.objs[id]; e.dom >= 0 && e.adapt == nil {
			g := r.groups[e.dom]
			if mgr := g.mgr(w.M.ID()); mgr != nil {
				if inst := mgr.inst(id); inst != nil && w.batch.idle() {
					g.stats.LocalReads++
					w.Charge(g.costs.readLocal + g.costs.defaultOp)
					return inst.state, true
				}
			}
		}
	}
	return r.resolveRead(w, id, op)
}

// resolveRead is LocalReadState's general path.
func (r *Router) resolveRead(w *Worker, id ObjID, op *OpDef) (State, bool) {
	e := r.entry(id)
	if e.dom == domP2P || op.Guard != nil {
		return nil, false
	}
	g, info := r.groups[e.dom], e.adapt
	if !g.replicatedOn(w.Node(), id) {
		return nil, false
	}
	inst := g.mgr(w.Node()).instance(w.P, id)
	w.SyncShared()
	if inst.moved {
		return nil, false
	}
	g.stats.LocalReads++
	w.Charge(g.costs.readLocal + g.costs.defaultOp)
	if info != nil {
		// Counted, not decided: a full window waits for the object's
		// next access through Call (see adaptObserve).
		info.count(w.Node(), Read)
	}
	return inst.state, true
}

// Counters merges every domain's counters into one snapshot, plus the
// Router's own fence and migration counters.
func (r *Router) Counters() RTSStats {
	snaps := make([]RTSStats, 0, len(r.groups)+2)
	for _, g := range r.groups {
		snaps = append(snaps, g.Counters())
	}
	if r.p2p != nil {
		snaps = append(snaps, r.p2p.Counters())
	}
	return Merge(append(snaps, r.stats)...)
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
		out[k] = g.Counters()
	}
	return out
}
