// Per-object placement policies.
//
// The paper treats replication strategy as a per-object decision: the
// dynamic placement of §3.2.2 chooses each object's copy set from its
// own read/write ratio, and the authors note TSP's write-mostly job
// queue would be better kept in one copy while the bound stays fully
// replicated. This file makes that decision part of object creation:
// a Policy names a strategy (fully replicated, replicated on a subset,
// primary copy under a point-to-point protocol), creation options
// attach one to TypeBuilder.NewWith, and a program configured with
// Config.Mixed can host objects under different strategies side by
// side. Objects created without a policy follow Config.RTS exactly as
// before.
package orca

import (
	"fmt"

	"repro/internal/rts"
)

// Re-exported protocol and placement names, so policy literals do not
// need a second import.
const (
	// Invalidation discards secondary copies on writes.
	Invalidation = rts.Invalidation
	// Update ships write operations to secondary copies.
	Update = rts.Update

	// DynamicPlacement replicates from read/write-ratio statistics.
	DynamicPlacement = rts.DynamicPlacement
	// SingleCopy keeps exactly the primary copy.
	SingleCopy = rts.SingleCopy
	// FullReplication installs a copy on every machine at creation.
	FullReplication = rts.FullReplication
)

// Policy declares where a shared object's replicas live and how they
// are kept consistent. The concrete policies are Replicated,
// PrimaryCopy, and Adaptive; an object created without one follows
// Config.RTS.
type Policy interface {
	applyPolicy(*createSpec)
}

// createSpec is the accumulated result of a creation-option list: the
// placement handed to the runtime's router.
type createSpec struct {
	rts.Place
	// keyed marks Group as a Sharded key, reduced modulo the sequencer
	// group count at creation.
	keyed bool
}

type replicatedPolicy struct{}

func (replicatedPolicy) applyPolicy(cs *createSpec) {
	cs.Kind = rts.PlaceReplicated
	cs.Nodes = nil
}

// Replicated places the object behind a sequencer group, fully
// replicated on the group's machines: local reads there, writes through
// the total order — the paper's §3.2.1 strategy, chosen per object.
// Followed by At, it is the partial-replication optimization: machines
// outside the set forward their operations to a replica holder.
// Requires broadcast hardware (RTS: Broadcast, or Config.Mixed).
var Replicated Policy = replicatedPolicy{}

// PrimaryCopy places the object in the point-to-point domain: the
// primary copy lives on the creating machine, secondaries follow the
// Placement policy and are kept consistent by the Protocol — the
// paper's §3.2.2 strategy, chosen per object. The zero value means the
// invalidation protocol with dynamic placement. Requires a
// point-to-point RTS or Config.Mixed.
type PrimaryCopy struct {
	Protocol  rts.P2PProtocol
	Placement rts.Placement
}

func (p PrimaryCopy) applyPolicy(cs *createSpec) {
	cs.Kind = rts.PlacePrimary
	cs.Protocol = p.Protocol
	cs.Copies = p.Placement
	cs.Nodes = nil
}

type adaptivePolicy struct{ cfg rts.AdaptConfig }

func (p adaptivePolicy) applyPolicy(cs *createSpec) {
	cs.Kind = rts.PlaceAdaptive
	cs.Adapt = p.cfg
	cs.Nodes = nil
}

// Adaptive places the object under the online placement controller:
// it starts replicated behind a sequencer group and re-places itself
// mid-run — replicated to primary copy, primary copy to replicated,
// primary re-homing toward the hottest writer — as the observed access
// pattern warrants (see rts/adapt.go). The zero AdaptConfig selects the
// default thresholds. Requires Config.Mixed: the controller migrates
// objects between a sequencer group and the point-to-point domain.
func Adaptive(cfg rts.AdaptConfig) Policy { return adaptivePolicy{cfg: cfg} }

// Option configures one object creation. Build options with With and
// At, and pass them to TypeBuilder.NewWith (or a std constructor).
type Option func(*createSpec)

// With selects the object's placement policy. Options apply in order
// and a policy is a whole placement decision: it replaces any replica
// restriction an earlier option set, so an At meant to combine with a
// policy must come after its With.
func With(pol Policy) Option {
	return func(cs *createSpec) { pol.applyPolicy(cs) }
}

// At restricts the object's replicas to the given machines. Combined
// with (or defaulting to) a replicated policy it is partial
// replication: the set must contain the creating machine and lie within
// the object's sequencer group's span. With PrimaryCopy it pins the
// primary, which must be the creating machine.
func At(nodes ...int) Option {
	cp := append([]int(nil), nodes...)
	return func(cs *createSpec) { cs.Nodes = cp }
}

// OnShard pins a replicated or adaptive object to sequencer group k
// (Config.Shards groups exist, one by default). k must name an existing
// group whose span contains the creating machine.
func OnShard(k int) Option {
	return func(cs *createSpec) { cs.Group, cs.keyed = k, false }
}

// Sharded selects the object's sequencer group as key modulo the group
// count — the caller-controlled analogue of the default id hash, for
// programs that want related objects spread deterministically (a KV
// store striping its buckets).
func Sharded(key int) Option {
	return func(cs *createSpec) { cs.Group, cs.keyed = key, true }
}

// Opts bundles options into the slice NewWith takes, purely for
// call-site readability: b.NewWith(p, orca.Opts(orca.With(pol)), args).
func Opts(opts ...Option) []Option { return opts }

// CheckPlacement reports whether this runtime can host an object
// created under the given options, with the error NewWith would panic
// with — so a program can reject a configuration before forking its
// first process.
func (rt *Runtime) CheckPlacement(opts ...Option) error {
	return rt.sys.Hosts(rt.placement(opts))
}

// placement folds a creation-option list into the router's placement.
func (rt *Runtime) placement(opts []Option) rts.Place {
	cs := createSpec{Place: rts.Place{Group: -1}}
	for _, o := range opts {
		o(&cs)
	}
	if n := rt.sys.Groups(); cs.keyed && n > 0 {
		cs.Group = ((cs.Group % n) + n) % n
	}
	return cs.Place
}

// create hands one creation to the router.
func (rt *Runtime) create(w *rts.Worker, typeName string, opts []Option, args []any) rts.ObjID {
	id, err := rt.sys.CreateAt(w, typeName, rt.placement(opts), args...)
	if err != nil {
		panic(fmt.Sprintf("orca: creating %s: %v", typeName, err))
	}
	return id
}
