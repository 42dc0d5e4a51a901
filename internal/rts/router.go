package rts

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/amoeba"
	"repro/internal/group"
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
// Everything above the domains lives here once: the id allocator (ids
// are unique across domains), the object table, creation, the Call
// loop, crash fan-out, counters, cross-group fences (fence.go) and the
// adaptive placement controller (adapt.go). Inside a domain nothing
// changes: a replicated object's writes travel its group's total order
// exactly as under a solitary BroadcastRTS, a primary-copy object runs
// the invalidation or update protocol exactly as under a solitary
// P2PRTS, and a Router over one group puts the same bytes on the wire
// as that group alone.
type Router struct {
	machines []*amoeba.Machine
	groups   []*BroadcastRTS
	inSpan   [][]bool // [group][node]
	p2p      *P2PRTS  // nil when the point-to-point domain is not built
	defP2P   bool     // Default placements go to the point-to-point domain
	ids      *idAlloc

	// objs is the object table, indexed by the dense ObjID. The
	// simulation is single-threaded, so no locking.
	objs []objEntry

	extra func(node int, body any)

	// fences holds the per-machine in-flight fence records, keyed by
	// fence id. fenceAborted marks fences presumed aborted after their
	// initiator crashed mid-reservation: late deliveries of an aborted
	// fence complete without pausing or applying (see presumeAbort).
	fences       []map[int64]*fenceRec
	fenceAborted []map[int64]bool
	fenceSeq     int64

	// stats counts the Router's own work: fenced ops and migrations.
	stats RTSStats
}

// objEntry is one object's routing state: the domain hosting it now,
// and its placement controller when the object is adaptive.
type objEntry struct {
	dom   int // domNone, domP2P, or a sequencer-group index
	adapt *adaptInfo
}

const (
	domNone = -2 // no such object
	domP2P  = -1 // the point-to-point domain
)

// idAlloc hands out object ids. Every domain of a Router shares one, so
// ids are unique across domains and routing by ObjID is unambiguous.
type idAlloc struct{ next ObjID }

func (a *idAlloc) alloc() ObjID { a.next++; return a.next }

// peek reports the id the next alloc will return without consuming it;
// the Router uses it to pick an object's group before the group's
// creation allocates that same id.
func (a *idAlloc) peek() ObjID { return a.next + 1 }

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
// point-to-point domain when p2p is non-nil. defaultP2P picks where
// Default placements go. With groups present, every machine must lie
// in at least one span, so creations and forks always have a local
// group to travel.
func NewRouter(reg *Registry, costs Costs, machines []*amoeba.Machine, groups []GroupDef, p2p *P2PConfig, defaultP2P bool) *Router {
	if defaultP2P && p2p == nil || !defaultP2P && len(groups) == 0 {
		panic("rts: the router's default domain is not built")
	}
	r := &Router{
		machines:     machines,
		defP2P:       defaultP2P,
		ids:          &idAlloc{},
		objs:         []objEntry{{dom: domNone}}, // ids start at 1
		fences:       make([]map[int64]*fenceRec, len(machines)),
		fenceAborted: make([]map[int64]bool, len(machines)),
	}
	for i := range r.fences {
		r.fences[i] = make(map[int64]*fenceRec)
		r.fenceAborted[i] = make(map[int64]bool)
	}
	covered := make([]bool, len(machines))
	for k, def := range groups {
		sub := make([]*amoeba.Machine, len(def.Span))
		in := make([]bool, len(machines))
		for i, id := range def.Span {
			if i > 0 && def.Span[i-1] >= id {
				panic(fmt.Sprintf("rts: group %d span %v not ascending", k, def.Span))
			}
			sub[i] = machines[id]
			in[id] = true
			covered[id] = true
		}
		g := newBroadcastRTSAt(reg, costs, sub, def.Members, def.Span, fmt.Sprintf("%s%d", fwdPort, k))
		g.ids = r.ids
		g.fence = r.handleFence
		r.groups = append(r.groups, g)
		r.inSpan = append(r.inSpan, in)
	}
	for id, ok := range covered {
		if !ok && len(groups) > 0 {
			panic(fmt.Sprintf("rts: node %d lies in no group span", id))
		}
	}
	if p2p != nil {
		r.p2p = NewP2PRTS(reg, costs, *p2p, machines)
		r.p2p.ids = r.ids
		if len(groups) > 0 {
			r.attachAdapt()
		}
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

// EnableBatching turns on the write-combining pipeline in every group
// (see BroadcastRTS.EnableBatching).
func (r *Router) EnableBatching(bc group.BatchConfig) {
	for _, g := range r.groups {
		g.EnableBatching(bc)
	}
}

// SetExtraHandler installs the callback for unrecognized group bodies
// and barrier-fence payloads (the Orca layer's fork messages).
func (r *Router) SetExtraHandler(h func(node int, body any)) {
	r.extra = h
	for _, g := range r.groups {
		g.SetExtraHandler(h)
	}
}

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

// entry resolves an object's routing state.
func (r *Router) entry(id ObjID) objEntry {
	if id <= 0 || int(id) >= len(r.objs) || r.objs[id].dom == domNone {
		panic(fmt.Sprintf("rts: unknown object %d", id))
	}
	return r.objs[id]
}

// bind records a freshly created object's domain.
func (r *Router) bind(id ObjID, dom int) {
	for int(id) >= len(r.objs) {
		r.objs = append(r.objs, objEntry{dom: domNone})
	}
	r.objs[id].dom = dom
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
		id := r.p2p.CreateWith(w, typeName, pl.Protocol, pl.Copies, args...)
		r.bind(id, domP2P)
		return id, nil
	}
	k := pl.Group
	if k < 0 {
		var elig []int
		for g := range r.groups {
			if r.inSpan[g][node] {
				elig = append(elig, g)
			}
		}
		k = elig[hashGroup(r.ids.peek(), len(elig))]
	} else if !r.inSpan[k][node] {
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
	r.bind(id, k)
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
// combining buffer drains when the target domain changes; a machine
// outside the owning group's span forwards to a holder inside it; and
// an invocation that bounces off an object's old placement mid-
// migration (the retry status, see adapt.go) waits for the ownership
// flip and re-issues under the new placement — at most once per
// migration, and the re-issued operation executes exactly once, after
// the cut.
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
			if g.mgr(w.Node()) != nil {
				res = g.Call(w, id, op, in)
			} else {
				res = g.forward(w, r.fwdClient(w.Node()), id, g.holders(id), op, in)
			}
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

// fwdClient returns a forwarder RPC client on the node: any local
// group's will do (every machine lies in at least one span).
func (r *Router) fwdClient(node int) *amoeba.Client {
	for _, g := range r.groups {
		if mg := g.mgr(node); mg != nil {
			return mg.fwdClient
		}
	}
	panic(fmt.Sprintf("rts: node %d lies in no group span", node))
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
		if e := r.objs[id]; e.dom >= 0 && e.adapt == nil {
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
	g := r.groups[e.dom]
	mgr := g.mgr(w.Node())
	if mgr == nil || !g.replicatedOn(w.Node(), id) {
		return nil, false
	}
	inst := mgr.instance(w.P, id)
	w.SyncShared()
	if inst.moved {
		return nil, false
	}
	g.stats.LocalReads++
	w.Charge(g.costs.readLocal + g.costs.defaultOp)
	if e.adapt != nil {
		// Counted, not decided: a full window waits for the object's
		// next access through Call (see adaptObserve).
		e.adapt.count(w.Node(), Read)
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
