package rts

import (
	"repro/internal/amoeba"
	"repro/internal/sim"
)

// objMgr is a machine's object manager: its copies of every object,
// under either orderer, in one table; its one object service; the
// queues of the objects whose primary it is or has been; and the
// update in service at a secondary. Each group's delivery consumer on
// the machine (bcastManager) applies its writes to these copies.
type objMgr struct {
	r *Router
	m *amoeba.Machine

	// The object service: an RPC server on svcPort, a consumer with no
	// process behind it (see amoeba.Server.Serve) that serves every
	// request for the machine's copies (see route), c the claimant it
	// serves as; and the client through which the machine calls the
	// others.
	srv *amoeba.Server
	cl  *amoeba.Client
	c   *sim.Proc

	// copies holds the machine's copy of each object, by ObjID (see
	// copy), and cond is signalled when a group installs a replica. A
	// primary-copy copy installed where a group's replica still sits —
	// an adaptive object's new primary, at the migration's target — keeps
	// it underneath (replica.under): the group's late deliveries apply to,
	// bounce off and recover from that one (see seqCopy).
	copies []*replica
	cond   sim.Cond

	// queues holds the queues of the objects whose primary the machine
	// is or has been, by ObjID (nil: none yet), carved from the run's
	// slab (see Router.queueRecs); tfree the task records (see task).
	queues []*objQueue
	tfree  []*p2pTask

	// The update in service at this secondary (see applyUpdate), and
	// the service's continuation (see steps).
	upd     *amoeba.Request
	updInst *replica
	steps[objMgr]
}

// newObjMgr builds a machine's manager and starts its object service.
func newObjMgr(r *Router, m *amoeba.Machine) *objMgr {
	mg := &objMgr{r: r, m: m, srv: amoeba.NewServer(m, svcPort), cl: amoeba.NewClient(m, rpcPolicy)}
	mg.self = mg
	mg.c = mg.srv.Serve(mg.route)
	if r.p2p {
		m.Bind(p2pCtlPort, mg.handleCtl)
	}
	return mg
}

// served ends the request in service.
func (mg *objMgr) served() { mg.srv.Done() }

// copy returns the machine's copy of id, nil if there is none (yet).
// Ids come from one allocator, counting up from 1, and a copy is
// replaced or dropped but its slot never reused.
func (mg *objMgr) copy(id ObjID) *replica {
	if id < 0 || int(id) >= len(mg.copies) {
		return nil
	}
	return mg.copies[id]
}

// seqCopy returns the machine's group replica of id, nil if there is
// none (yet): a primary-copy copy installed over one keeps it.
func (mg *objMgr) seqCopy(id ObjID) *replica {
	inst := mg.copy(id)
	if inst != nil && !inst.seq {
		inst = inst.under
	}
	return inst
}

// p2pCopy returns the machine's primary or secondary copy of id, nil if
// there is none.
func (mg *objMgr) p2pCopy(id ObjID) *replica {
	if inst := mg.copy(id); inst != nil && !inst.seq {
		return inst
	}
	return nil
}

// instance returns the machine's group replica of id, waiting for the
// creation broadcast if it has not arrived yet (a freshly forked worker
// can race the create message) and, if live, for a replica that is not
// frozen at a migration cut.
func (mg *objMgr) instance(p *sim.Proc, id ObjID, live bool) *replica {
	for {
		if inst := mg.seqCopy(id); inst != nil && !(live && inst.moved) {
			return inst
		}
		mg.cond.Wait(p)
	}
}

// setSeq installs a group's replica of id, replacing any it has, and
// wakes the waiters for it.
func (mg *objMgr) setSeq(id ObjID, inst *replica) {
	inst.seq = true
	*slot(&mg.copies, id) = inst
	mg.cond.Broadcast()
}

// installCopy places a (cloned) state as a primary-copy copy,
// over the group's replica if the machine holds one.
func (mg *objMgr) installCopy(id ObjID, state State) *replica {
	inst := newReplica(&mg.r.replicas, state)
	inst.under = mg.seqCopy(id)
	*slot(&mg.copies, id) = inst
	return inst
}

// dropLocal removes the machine's primary-copy copy, leaving the
// group's replica it was installed over, and wakes any blocked readers
// so they re-route to the primary.
func (mg *objMgr) dropLocal(id ObjID) {
	inst := mg.p2pCopy(id)
	if inst == nil {
		return
	}
	inst.dropped = true
	inst.cond.Broadcast()
	mg.copies[id] = inst.under
}
