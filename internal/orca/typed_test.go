package orca

// Tests of the typed API v2 layer itself: the TypeBuilder, the op
// descriptors, guard attachment, and the interop guarantee that typed
// descriptors and the untyped Invoke dispatch to the same registered
// definitions. (The std wrappers get their own tests in orca/std;
// this file uses a purpose-built type so package orca's internal test
// needs no imports back into std.)

import (
	"testing"

	"repro/internal/rts"
	"repro/internal/sim"
)

// cellsState is a tiny array-of-ints object used only by these tests.
type cellsState struct{ vals []int }

var (
	cellsB = NewType("test.cells", func(args []any) *cellsState {
		return &cellsState{vals: make([]int, args[0].(int))}
	}).
		CloneWith(func(s *cellsState) *cellsState {
			return &cellsState{vals: append([]int(nil), s.vals...)}
		}).
		SizedBy(func(s *cellsState) int { return 8 + 8*len(s.vals) })

	cellsSet = DefUpdate2(cellsB, "set", func(s *cellsState, i, v int) { s.vals[i] = v })
	cellsGet = DefRead(cellsB, "get", func(s *cellsState, i int) int { return s.vals[i] })
	cellsSum = DefRead0(cellsB, "sum", func(s *cellsState) int {
		n := 0
		for _, v := range s.vals {
			n += v
		}
		return n
	}).Cost(20 * sim.Microsecond)
	// awaitSum blocks until the sum reaches the argument.
	cellsAwaitSum = DefRead(cellsB, "awaitSum", func(s *cellsState, _ int) int {
		n := 0
		for _, v := range s.vals {
			n += v
		}
		return n
	}).Guard(func(s *cellsState, want int) bool {
		n := 0
		for _, v := range s.vals {
			n += v
		}
		return n >= want
	})
	// popMax removes and returns the largest value (guarded on any
	// value being present), exercising the two-result write shape.
	cellsPopMax = DefWrite0x2(cellsB, "popMax", func(s *cellsState) (int, bool) {
		best, at := 0, -1
		for i, v := range s.vals {
			if v > best {
				best, at = v, i
			}
		}
		if at < 0 {
			return 0, false
		}
		s.vals[at] = 0
		return best, true
	}).Guard(func(s *cellsState) bool {
		for _, v := range s.vals {
			if v > 0 {
				return true
			}
		}
		return false
	})
)

func cellsSetup(reg *rts.Registry) { cellsB.Register(reg) }

func TestTypedOpsRoundTrip(t *testing.T) {
	rt := New(Config{Processors: 2, RTS: Broadcast, Seed: 31}, cellsSetup)
	rt.Run(func(p *Proc) {
		h := cellsB.New(p, 4)
		cellsSet.Call(p, h, 0, 7)
		cellsSet.Call(p, h, 3, 5)
		if got := cellsGet.Call(p, h, 3); got != 5 {
			t.Errorf("get(3) = %d, want 5", got)
		}
		if got := cellsSum.Call(p, h); got != 12 {
			t.Errorf("sum = %d, want 12", got)
		}
		v, ok := cellsPopMax.Call(p, h)
		if !ok || v != 7 {
			t.Errorf("popMax = (%d, %v), want (7, true)", v, ok)
		}
		if got := cellsSum.Call(p, h); got != 5 {
			t.Errorf("sum after pop = %d, want 5", got)
		}
	})
}

// TestTypedUntypedInterop checks the facade property: a typed
// descriptor and an untyped Invoke under the registered name hit the
// same operation on the same object.
func TestTypedUntypedInterop(t *testing.T) {
	rt := New(Config{Processors: 2, RTS: Broadcast, Seed: 32}, cellsSetup)
	rt.Run(func(p *Proc) {
		h := cellsB.New(p, 2)
		p.Invoke(h.Untyped(), "set", 1, 9) // untyped write...
		if got := cellsGet.Call(p, h, 1); got != 9 {
			t.Errorf("typed read after untyped write = %d, want 9", got)
		}
		cellsSet.Call(p, h, 0, 4) // ...and typed write, untyped read
		if got := p.InvokeI(h.Untyped(), "sum"); got != 13 {
			t.Errorf("untyped sum = %d, want 13", got)
		}
		if h.ID() != h.Untyped().ID() {
			t.Error("handle ids disagree")
		}
	})
}

// TestArgDecodingStrict checks the argument decoder keeps the
// untyped layer's checking: wrong types and illegal nils panic (as
// the hand-written []any assertions of the v1 types did), while nil
// stays legal for interface-typed parameters and results map nil to
// zero values.
func TestArgDecodingStrict(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	if got := argAs[int](7); got != 7 {
		t.Errorf("argAs[int](7) = %d", got)
	}
	if got := argAs[any](nil); got != nil {
		t.Errorf("argAs[any](nil) = %v, want nil", got)
	}
	mustPanic("argAs[int] of string", func() { argAs[int]("zero") })
	mustPanic("argAs[int] of nil", func() { argAs[int](nil) })
	mustPanic("argAs[[]int] of nil", func() { argAs[[]int](nil) })
	// Results, by contrast, map nil to the zero value (absent slots).
	if got := as[int](nil); got != 0 {
		t.Errorf("as[int](nil) = %d, want 0", got)
	}
}

// TestTypedGuardBlocksUntilWrite checks that a guarded typed read
// suspends and wakes only after the enabling write, on a remote
// processor (i.e. through the real runtime, not a local shortcut).
func TestTypedGuardBlocksUntilWrite(t *testing.T) {
	rt := New(Config{Processors: 2, RTS: Broadcast, Seed: 33}, cellsSetup)
	var woke, wrote sim.Time
	var got int
	rt.Run(func(p *Proc) {
		h := cellsB.New(p, 3)
		p.Fork(1, "waiter", func(wp *Proc) {
			got = cellsAwaitSum.Call(wp, h, 10)
			woke = wp.Now()
		})
		p.Sleep(200 * sim.Millisecond)
		cellsSet.Call(p, h, 0, 6)
		p.Sleep(100 * sim.Millisecond)
		wrote = p.Now()
		cellsSet.Call(p, h, 1, 6)
	})
	if got < 10 {
		t.Errorf("awaitSum returned %d, want >= 10", got)
	}
	if woke < wrote {
		t.Errorf("guard woke at %v, before the enabling write at %v", woke, wrote)
	}
}

// TestGuardedWriteAcrossKinds runs the guarded two-result write on
// every runtime kind, checking identical results.
func TestGuardedWriteAcrossKinds(t *testing.T) {
	for _, kind := range []RTSKind{Broadcast, P2PUpdate, P2PInvalidate} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rt := New(Config{Processors: 2, RTS: kind, Seed: 34}, cellsSetup)
			var sum int
			rt.Run(func(p *Proc) {
				h := cellsB.New(p, 4)
				p.Fork(1, "popper", func(wp *Proc) {
					for i := 0; i < 3; i++ {
						v, ok := cellsPopMax.Call(wp, h)
						if !ok {
							t.Errorf("popMax reported empty")
							return
						}
						sum += v
					}
				})
				p.Sleep(50 * sim.Millisecond)
				cellsSet.Call(p, h, 0, 1)
				p.Sleep(50 * sim.Millisecond)
				cellsSet.Call(p, h, 1, 2)
				p.Sleep(50 * sim.Millisecond)
				cellsSet.Call(p, h, 2, 3)
			})
			if sum != 6 {
				t.Errorf("popped sum = %d, want 6", sum)
			}
		})
	}
}

// TestDuplicateOpPanics checks the builder refuses two operations
// with one name, as the registry would be silently ambiguous.
func TestDuplicateOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate op name")
		}
	}()
	b := NewType("test.dup", func([]any) *cellsState { return &cellsState{} })
	DefRead0(b, "x", func(*cellsState) int { return 0 })
	DefRead0(b, "x", func(*cellsState) int { return 1 })
}

// TestCostPropagates checks the fluent Cost setter lands in the
// underlying OpDef (the simulator charges it per execution).
func TestCostPropagates(t *testing.T) {
	if got := cellsB.Type().Op("sum").CPUCost; got != 20*sim.Microsecond {
		t.Fatalf("sum CPUCost = %v, want 20µs", got)
	}
	if cellsB.Type().Op("awaitSum").Guard == nil {
		t.Fatal("awaitSum lost its guard")
	}
	if cellsB.Type().Op("set").Kind != rts.Write || cellsB.Type().Op("get").Kind != rts.Read {
		t.Fatal("op kinds misclassified")
	}
}

// TestApplyDiscardDoesNotBoxResults covers the five write shapes that
// return results: a replica that drops them applies the write through
// OpDef.ApplyDiscard, which must change the state exactly as Apply does
// and never convert a result to any (an allocation for every value the
// runtime has no cached box for, like the large integers here).
func TestApplyDiscardDoesNotBoxResults(t *testing.T) {
	type acc struct{ n int64 }
	b := NewType("test.acc", func([]any) *acc { return &acc{} })
	const big = int64(1) << 40
	DefWrite0(b, "w0", func(s *acc) int64 { s.n += big; return s.n })
	DefWrite(b, "w1", func(s *acc, d int64) int64 { s.n += d; return s.n })
	DefWrite0x2(b, "w0x2", func(s *acc) (int64, int64) { s.n += big; return s.n, -s.n })
	DefWrite1x2(b, "w1x2", func(s *acc, d int64) (int64, int64) { s.n += d; return s.n, -s.n })
	DefWrite2x2(b, "w2x2", func(s *acc, d, e int64) (int64, int64) { s.n += d + e; return s.n, -s.n })
	args := []any{big, big}
	for _, name := range []string{"w0", "w1", "w0x2", "w1x2", "w2x2"} {
		op := b.Type().Op(name)
		if op.ApplyDiscard == nil {
			t.Fatalf("%s: no ApplyDiscard", name)
		}
		kept, dropped := &acc{n: 1}, &acc{n: 1}
		res := op.Apply(kept, args)
		op.ApplyDiscard(dropped, args)
		if kept.n != dropped.n || kept.n == 1 || res[0].(int64) != kept.n {
			t.Errorf("%s: Apply left %d (result %v), ApplyDiscard left %d", name, kept.n, res, dropped.n)
		}
		if a := testing.AllocsPerRun(100, func() { op.ApplyDiscard(dropped, args) }); a != 0 {
			t.Errorf("%s: ApplyDiscard allocates %v times, want 0", name, a)
		}
	}
}
