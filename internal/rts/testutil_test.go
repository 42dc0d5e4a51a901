package rts

import (
	"testing"

	"repro/internal/amoeba"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Test object types: a settable integer cell, a FIFO queue with a
// guarded Get, and a boolean flag with a guarded read.

type intCellState struct{ v int }

func intCellType() *ObjectType {
	return &ObjectType{
		Name: "intcell",
		New: func(args []any) State {
			s := &intCellState{}
			if len(args) > 0 {
				s.v = args[0].(int)
			}
			return s
		},
		Clone:  func(s State) State { c := *s.(*intCellState); return &c },
		SizeOf: func(State) int { return 8 },
		Ops: map[string]*OpDef{
			"get": {Name: "get", Kind: Read,
				Apply: func(_ *sim.Env, s State, _ Args) Args { return ArgsOf(s.(*intCellState).v) }},
			"set": {Name: "set", Kind: Write, NoResult: true,
				Apply: func(_ *sim.Env, s State, a Args) Args { s.(*intCellState).v = Get[int](&a, 0); return Args{} }},
			"inc": {Name: "inc", Kind: Write,
				Apply: func(_ *sim.Env, s State, _ Args) Args {
					st := s.(*intCellState)
					old := st.v
					st.v++
					return ArgsOf(old)
				}},
			"min": {Name: "min", Kind: Write, // conditional lower, like the TSP bound
				Apply: func(_ *sim.Env, s State, a Args) Args {
					st := s.(*intCellState)
					if v := Get[int](&a, 0); v < st.v {
						st.v = v
						return ArgsOf(true)
					}
					return ArgsOf(false)
				}},
		},
	}
}

type queueState struct{ items []any }

func queueType() *ObjectType {
	return &ObjectType{
		Name: "queue",
		New:  func([]any) State { return &queueState{} },
		Clone: func(s State) State {
			c := &queueState{}
			c.items = append([]any(nil), s.(*queueState).items...)
			return c
		},
		SizeOf: func(s State) int { return 8 + 16*len(s.(*queueState).items) },
		Ops: map[string]*OpDef{
			"put": {Name: "put", Kind: Write, NoResult: true,
				Apply: func(_ *sim.Env, s State, a Args) Args {
					q := s.(*queueState)
					q.items = append(q.items, a.Value(0))
					return Args{}
				}},
			"get": {Name: "get", Kind: Write,
				Guard: func(s State, _ Args) bool { return len(s.(*queueState).items) > 0 },
				Apply: func(_ *sim.Env, s State, _ Args) Args {
					q := s.(*queueState)
					v := q.items[0]
					q.items = q.items[1:]
					return ArgsOf(v)
				}},
			"len": {Name: "len", Kind: Read,
				Apply: func(_ *sim.Env, s State, _ Args) Args { return ArgsOf(len(s.(*queueState).items)) }},
		},
	}
}

type flagState struct{ b bool }

func flagType() *ObjectType {
	return &ObjectType{
		Name:   "flag",
		New:    func([]any) State { return &flagState{} },
		Clone:  func(s State) State { c := *s.(*flagState); return &c },
		SizeOf: func(State) int { return 1 },
		Ops: map[string]*OpDef{
			"set": {Name: "set", Kind: Write, NoResult: true,
				Apply: func(_ *sim.Env, s State, a Args) Args { s.(*flagState).b = Get[bool](&a, 0); return Args{} }},
			"get": {Name: "get", Kind: Read,
				Apply: func(_ *sim.Env, s State, _ Args) Args { return ArgsOf(s.(*flagState).b) }},
			"await": {Name: "await", Kind: Read,
				Guard: func(s State, _ Args) bool { return s.(*flagState).b },
				Apply: func(_ *sim.Env, s State, _ Args) Args { return ArgsOf(true) }},
		},
	}
}

func testRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(intCellType())
	reg.Register(queueType())
	reg.Register(flagType())
	return reg
}

// tb is a test cluster running one of the runtime systems.
type tb struct {
	env *sim.Env
	net *netsim.Network
	ms  []*amoeba.Machine
}

// invoke performs an operation through the Router's one entry, Call,
// with the arguments and results as value lists.
func invoke(r *Router, w *Worker, id ObjID, op string, args ...any) []any {
	out := r.Call(w, id, op, ArgsOf(args...))
	return out.Values()
}

// spawn runs fn as an application thread on the given node.
func (b *tb) spawn(node int, name string, fn func(w *Worker)) {
	b.ms[node].SpawnThread(name, func(p *sim.Proc) {
		fn(NewWorker(p, b.ms[node]))
	})
}

// run drives the simulation for the given virtual horizon and shuts
// down.
func (b *tb) run(horizon sim.Time) {
	b.env.RunUntil(horizon)
	b.env.Stop()
}

func (b *tb) done() { b.env.Shutdown() }

// newBcastTB builds a broadcast-RTS cluster.
func newBcastTB(t *testing.T, seed int64, n int, netMut func(*netsim.Params)) (*tb, *BroadcastRTS) {
	t.Helper()
	env := sim.New(seed)
	np := netsim.DefaultParams()
	if netMut != nil {
		netMut(&np)
	}
	nw := netsim.New(env, n, np)
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	gcfg := group.DefaultConfig(members)
	ms := make([]*amoeba.Machine, n)
	gs := make([]*group.Member, n)
	for i := 0; i < n; i++ {
		ms[i] = amoeba.NewMachine(env, nw, i, amoeba.DefaultCosts())
		gs[i] = group.Join(ms[i], gcfg)
	}
	r := NewBroadcastRTS(testRegistry(), DefaultCosts(), ms, gs)
	return &tb{env: env, net: nw, ms: ms}, r
}

// newP2PTB builds a point-to-point-RTS cluster.
func newP2PTB(t *testing.T, seed int64, n int, cfg P2PConfig) (*tb, *P2PRTS) {
	t.Helper()
	env := sim.New(seed)
	np := netsim.DefaultParams()
	np.BroadcastCapable = false // the paper's point-to-point scenario
	nw := netsim.New(env, n, np)
	ms := make([]*amoeba.Machine, n)
	for i := 0; i < n; i++ {
		ms[i] = amoeba.NewMachine(env, nw, i, amoeba.DefaultCosts())
	}
	r := NewP2PRTS(testRegistry(), DefaultCosts(), cfg, ms)
	return &tb{env: env, net: nw, ms: ms}, r
}
