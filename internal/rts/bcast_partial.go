package rts

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/amoeba"
	"repro/internal/sim"
)

// Partial replication — the optimization the paper reports as under
// development ("In the initial implementation, every object is
// replicated on all machines that need it (an optimizing scheme using
// partial replication is under development)").
//
// CreateOn places an object's replicas on a subset of the machines.
// Machines inside the placement behave exactly as with full
// replication: local reads, broadcast writes. Machines outside the
// placement forward their operations over RPC to a replica holder,
// which executes the operation through the normal path and returns the
// results. Write-heavy objects (like TSP's job queue, which the paper
// notes would be better off unreplicated) can thus be pinned to one
// machine, trading everyone's update-application cost for the
// forwarders' round trips.

// fwdPort is the default RPC port serving forwarded operations; each
// sequencer group of a Router binds its own (see BroadcastRTS.fwdPort).
const fwdPort = "objfwd"

// placement returns the replica set for an object; nil means all
// machines.
func (r *BroadcastRTS) placement(id ObjID) []int {
	if r.placements == nil {
		return nil
	}
	return r.placements[id]
}

// holders returns the machines holding a replica of id: its placement,
// or the whole span.
func (r *BroadcastRTS) holders(id ObjID) []int {
	if pl := r.placement(id); pl != nil {
		return pl
	}
	return r.span
}

// replicatedOn reports whether node holds a replica of id.
func (r *BroadcastRTS) replicatedOn(node int, id ObjID) bool {
	pl := r.placement(id)
	return pl == nil || slices.Contains(pl, node)
}

// CreateOn creates a shared object replicated only on the given
// machines (nil or empty means the whole span, i.e. plain Create):
// creation is broadcast so every holder instantiates a replica, and
// the call waits until the local one exists. The creating machine must
// be in the placement so creation can complete locally.
func (r *BroadcastRTS) CreateOn(w *Worker, typeName string, nodes []int, args ...any) ObjID {
	mgr := r.mgr(w.Node())
	if mgr == nil || len(nodes) > 0 && !slices.Contains(nodes, w.Node()) {
		panic(fmt.Sprintf("rts: create from node %d outside placement %v of span %v", w.Node(), nodes, r.span))
	}
	t := r.reg.Lookup(typeName) // validate before broadcasting
	id := r.ids.alloc()
	if len(nodes) > 0 {
		if r.placements == nil {
			r.placements = make(map[ObjID][]int)
		}
		r.placements[id] = append([]int(nil), nodes...)
	}
	w.SyncShared() // creation is ordered after the worker's buffered writes
	w.Flush()
	body := wireCreate{Obj: id, Type: t.Name, Args: args}
	uid := mgr.g.Broadcast(w.P, "rts-create", body, SizeOfValue(args)+len(typeName)+16)
	mgr.await(w.P, uid)
	return id
}

// startForwarders binds the forwarded-operation service on every
// machine, a consumer with no process behind it (see
// amoeba.Server.Serve). Each request is handled on a fresh thread, which
// blocks the way a caller does, so a guarded operation cannot stall
// other forwarded work.
func (r *BroadcastRTS) startForwarders(machines []*amoeba.Machine) {
	for i, m := range machines {
		srv := amoeba.NewServer(m, r.fwdPort)
		r.mgrs[i].fwdClient = amoeba.NewClient(m, rpcPolicy)
		srv.Serve(func(req *amoeba.Request) {
			m.SpawnThread("objfwd-op", func(hp *sim.Proc) {
				hw := NewWorker(hp, m)
				res := r.Call(hw, ObjID(req.Obj), req.Op, req.Args)
				hw.SyncShared() // a combined write is applied before its reply
				hw.Flush()
				srv.PutResult(hp, req, res, SizeOfArgs(&res))
			})
			srv.Done()
		})
	}
}

// forward executes an operation at a replica holder on behalf of a
// machine that has none — outside the object's placement, or outside
// this group's span altogether (the Router then lends the RPC client
// of another local group). Dead holders are skipped, and a holder that
// dies mid-operation fails the RPC with ErrCrashed; the operation is
// then retried at the next surviving holder. A retried write may
// therefore execute twice if the dead holder applied it before
// crashing and the write had already been broadcast — the
// at-least-once caveat every crash-recovery path of the runtime
// shares (see DESIGN.md).
func (r *BroadcastRTS) forward(w *Worker, cl *amoeba.Client, id ObjID, holders []int, opName string, in Args) Args {
	w.Flush()
	r.stats.Forwarded++
	first := true
	for _, holder := range holders {
		if w.M.Net().Down(holder) {
			continue
		}
		if !first {
			r.stats.OpsRetried++
		}
		first = false
		rep, err := cl.Call(w.P, holder, amoeba.Packet{Port: r.fwdPort, Op: opName, Obj: int64(id), Args: in,
			Size: opSize(opName, &in)})
		if err == nil {
			return rep.Args
		}
		if !errors.Is(err, amoeba.ErrCrashed) {
			panic(fmt.Sprintf("rts: forwarded op %s on object %d failed: %v", opName, id, err))
		}
	}
	panic(fmt.Sprintf("rts: no live replica holder for object %d (holders %v)", id, holders))
}

// directWrite applies a write to a single-copy object at its only
// holder, bypassing the broadcast entirely: with exactly one replica
// there is nothing to keep consistent, and the holder's execution
// order is the object's total order. Guarded writes wait on the
// replica's condition like guarded reads do.
func (mgr *bcastManager) directWrite(w *Worker, inst *replica, op *OpDef, in Args) Args {
	r := mgr.rts
	// Nothing moves, locks or invalidates a single-copy object's
	// replica, so the wait ends only with the guard holding.
	awaitGuard(w, inst, op, in, r.costs.guardCheck, &r.stats.GuardWaits)
	w.Accrue(r.costs.writeApply + r.costs.defaultOp)
	res := op.Apply(inst.state, in)
	inst.cond.Broadcast()
	return res
}
