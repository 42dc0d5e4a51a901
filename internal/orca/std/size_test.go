package std_test

// Sizing-path regression tests: every registered std and app object
// state must size through a direct WireSize/SizeOf computation, never
// through the gob estimator. The gob fallback was ~100× slower and sat
// on the p2p state-transfer path (fetch/install message sizes), so a
// state type silently losing its direct size would tax every transfer
// in every experiment.

import (
	"testing"

	"repro/internal/apps/acp"
	"repro/internal/orca/std"
	"repro/internal/rts"
)

// sampleArgs supplies valid constructor arguments per registered type.
var sampleArgs = map[string][]any{
	std.IntObj:       {7},
	std.JobQueueObj:  nil,
	std.BarrierObj:   {4},
	std.FlagObj:      {true},
	std.BoolArrayObj: {32, true},
	std.TableObj:     {64},
	std.KillerObj:    {16},
	std.BitSetObj:    {256},
	std.AccumObj:     nil,
	acp.DomainObj:    {8, uint64(0xFF)},
	acp.WorkObj:      {8, 4},
}

// TestStateSizingNeverHitsGob constructs one instance of every
// registered std and ACP object state and checks that both the
// type-level stateSize path (SizeOf) and the generic SizeOfValue path
// (which the RPC layer uses for payloads) resolve without reaching
// the gob estimator.
func TestStateSizingNeverHitsGob(t *testing.T) {
	reg := rts.NewRegistry()
	std.Register(reg)
	acp.RegisterTypes(reg)

	reg.Each(func(typ *rts.ObjectType) {
		args, ok := sampleArgs[typ.Name]
		if !ok {
			t.Fatalf("no sample constructor args for registered type %q; add it to sampleArgs", typ.Name)
		}
		state := typ.New(args)

		if typ.SizeOf == nil {
			t.Errorf("type %q has no SizeOf: every registered state must size directly", typ.Name)
			return
		}

		before := rts.GobSizings()
		direct := typ.SizeOf(state)
		generic := rts.SizeOfValue(state)
		if got := rts.GobSizings() - before; got != 0 {
			t.Errorf("type %q: sizing reached the gob fallback %d times", typ.Name, got)
		}
		if direct <= 0 {
			t.Errorf("type %q: SizeOf = %d, want > 0", typ.Name, direct)
		}
		if generic != direct {
			t.Errorf("type %q: SizeOfValue(state) = %d, SizeOf = %d; WireSize and SizedBy disagree",
				typ.Name, generic, direct)
		}
	})
}

// TestQueueIncrementalSizing checks the job queue's O(1) cached size
// stays in lockstep with a from-scratch recount across adds and gets.
func TestQueueIncrementalSizing(t *testing.T) {
	reg := rts.NewRegistry()
	std.Register(reg)
	typ := reg.Lookup(std.JobQueueObj)
	state := typ.New(nil)

	recount := func() int {
		// A fresh clone sizes from the same cached counter; compare
		// against summing the queued jobs directly through get.
		n := 16
		c := typ.Clone(state)
		for {
			res := typ.Op("get").Apply(nil, c, rts.Args{})
			if res.Value(1) == false {
				break
			}
			n += rts.SizeOfValue(res.Value(0))
		}
		return n
	}

	add, get := typ.Op("add"), typ.Op("get")
	jobs := []any{"alpha", []int{1, 2, 3}, 42, "a-longer-string-payload"}
	for i, j := range jobs {
		add.Apply(nil, state, rts.ArgsOf(j))
		if got, want := typ.SizeOf(state), recount(); got != want {
			t.Fatalf("after add %d: cached size %d, recount %d", i, got, want)
		}
	}
	for i := range jobs {
		get.Apply(nil, state, rts.Args{})
		if got, want := typ.SizeOf(state), recount(); got != want {
			t.Fatalf("after get %d: cached size %d, recount %d", i, got, want)
		}
	}
	if got := typ.SizeOf(state); got != 16 {
		t.Fatalf("drained queue size = %d, want 16", got)
	}
}
