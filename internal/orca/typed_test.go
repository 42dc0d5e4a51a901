package orca

// Tests of the typed API v2 layer itself: the TypeBuilder, the op
// descriptors, guard attachment, and the interop guarantee that typed
// descriptors and the untyped Invoke dispatch to the same registered
// definitions. (The std wrappers get their own tests in orca/std;
// this file uses a purpose-built type so package orca's internal test
// needs no imports back into std.)

import (
	"runtime/debug"
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
	})
	// lookup is the (value, ok) read shape.
	cellsLookup = DefRead1x2(cellsB, "lookup", func(s *cellsState, i int) (int, bool) {
		if i < 0 || i >= len(s.vals) {
			return 0, false
		}
		return s.vals[i], true
	})
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

// TestArgDecodingStrict checks the record decoder keeps the untyped
// layer's checking: wrong types and illegal nils panic (as the
// hand-written assertions of the v1 types did), while nil stays legal
// wherever the static type can hold it.
func TestArgDecodingStrict(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	if got := get1[int](rec1(7)); got != 7 {
		t.Errorf("get1[int] of 7 = %d", got)
	}
	if got := get1[any](rec1[any](nil)); got != nil {
		t.Errorf("get1[any] of nil = %v, want nil", got)
	}
	if v, ok := get2[any, bool](rec2[any](nil, false)); v != nil || ok {
		t.Errorf("get2 of the not-found pair = (%v, %v)", v, ok)
	}
	mustPanic("get1[int] of string", func() { get1[int](rec1("zero")) })
	mustPanic("get1[int] of nil", func() { get1[int](rec1[any](nil)) })
	mustPanic("get1[[]int] of nil", func() { get1[[]int](rec1[any](nil)) })
	mustPanic("get1[int] of nothing", func() { get1[int](rts.Args{}) })
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

// TestGuardAndKindPropagate checks the fluent Guard setter and the
// descriptor's kind land in the underlying OpDef.
func TestGuardAndKindPropagate(t *testing.T) {
	if cellsB.Type().Op("awaitSum").Guard == nil {
		t.Fatal("awaitSum lost its guard")
	}
	if cellsB.Type().Op("set").Kind != rts.Write || cellsB.Type().Op("get").Kind != rts.Read {
		t.Fatal("op kinds misclassified")
	}
}

// TestScalarResultsAreNotBoxed covers the five write shapes that return
// results: every replica applies the write and all but the invoker's
// drop what it returns, so returning scalars must allocate nothing —
// not even for the large integers here, which the runtime has no
// cached box for.
func TestScalarResultsAreNotBoxed(t *testing.T) {
	type acc struct{ n int64 }
	b := NewType("test.acc", func([]any) *acc { return &acc{} })
	const big = int64(1) << 40
	DefWrite0(b, "w0", func(s *acc) int64 { s.n += big; return s.n })
	DefWrite(b, "w1", func(s *acc, d int64) int64 { s.n += d; return s.n })
	DefWrite0x2(b, "w0x2", func(s *acc) (int64, int64) { s.n += big; return s.n, -s.n })
	DefWrite1x2(b, "w1x2", func(s *acc, d int64) (int64, int64) { s.n += d; return s.n, -s.n })
	DefWrite2x2(b, "w2x2", func(s *acc, d, e int64) (int64, int64) { s.n += d + e; return s.n, -s.n })
	args := rec2(big, big)
	for _, name := range []string{"w0", "w1", "w0x2", "w1x2", "w2x2"} {
		op := b.Type().Op(name)
		st := &acc{n: 1}
		if res := op.Apply(st, args); st.n == 1 || get1[int64](res) != st.n {
			t.Errorf("%s: Apply left %d with result %v", name, st.n, res.Values())
		}
		if a := testing.AllocsPerRun(100, func() { op.Apply(st, args) }); a != 0 {
			t.Errorf("%s: Apply allocates %v times, want 0", name, a)
		}
	}
}

// skipUnderRace skips an allocation budget when the race detector, which
// allocates on its own account, is on.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts mean nothing under the race detector")
			}
		}
	}
}

// A typed read of a primary copy on another machine is an RPC whose
// argument and results travel inline in the packet headers: from the
// descriptor's Call to the operation's apply and back, nothing is boxed.
// (The budget of 2 leaves room for the reply cache's map; the []any form
// took 9.)
func TestTypedRemoteReadAllocations(t *testing.T) {
	skipUnderRace(t)
	rt := New(Config{Processors: 2, RTS: P2PUpdate, Seed: 35}, cellsSetup)
	rt.Run(func(p *Proc) {
		h := cellsB.NewWith(p, Opts(With(PrimaryCopy{Protocol: Update, Placement: SingleCopy})), 4)
		cellsSet.Call(p, h, 2, 1<<40)
		p.Fork(1, "reader", func(wp *Proc) {
			read := func() {
				if v, ok := cellsLookup.Call(wp, h, 2); v != 1<<40 || !ok {
					t.Errorf("lookup(2) = (%d, %v), want (%d, true)", v, ok, 1<<40)
				}
			}
			read()
			if a := testing.AllocsPerRun(500, read); a > 2 {
				t.Errorf("a typed remote read allocates %v times, want at most 2", a)
			}
			if st := rt.Stats(); st.RemoteReads < 500 {
				t.Errorf("%d remote reads, want the 500 measured", st.RemoteReads)
			}
		})
	})
}

// A typed read of a local replica under a sharded router, TSP's bound
// read, allocates nothing: the router takes the replica from the
// machine's replica table and the descriptor applies its function to
// the state directly.
func TestLocalReadAllocations(t *testing.T) {
	skipUnderRace(t)
	rt := New(Config{Processors: 8, RTS: Broadcast, Shards: 8, Seed: 37}, cellsSetup)
	rt.Run(func(p *Proc) {
		h := cellsB.New(p, 4)
		cellsSet.Call(p, h, 2, 7)
		read := func() {
			if v := cellsGet.Call(p, h, 2); v != 7 {
				t.Errorf("get(2) = %d, want 7", v)
			}
		}
		before := rt.Stats().LocalReads
		if a := testing.AllocsPerRun(1000, read); a != 0 {
			t.Errorf("a typed local read allocates %v times, want none", a)
		}
		if n := rt.Stats().LocalReads - before; n != 1001 {
			t.Errorf("%d local reads, want the 1001 measured", n)
		}
	})
}

// BenchmarkLocalReadPaths prices the two ways a typed read of a local
// replica can go: through readState, which hands the descriptor the
// replica's state to apply its typed function to, and through call,
// the general path that carries the argument and the result in records.
// The gap is why the descriptors keep readState (DESIGN.md, "The
// argument record and the packet header"). Each path runs under one
// sequencer group, under eight ("s8": the router TSP's bound is read
// through), and under eight with 64 objects read round-robin ("s8-rr64":
// kv's shards), where a worker's read goes to a different replica every
// time.
//
//	go test -run '^$' -bench LocalReadPaths ./internal/orca
func BenchmarkLocalReadPaths(b *testing.B) {
	paths := []struct {
		name string
		read func(p *Proc, h Handle[*cellsState]) int
	}{
		{"readState", func(p *Proc, h Handle[*cellsState]) int {
			s, _ := p.readState(h.o, cellsGet.def)
			return cellsGet.apply(s.(*cellsState), 2)
		}},
		{"call", func(p *Proc, h Handle[*cellsState]) int {
			return get1[int](p.call(h.o, cellsGet.def, rec1(2)))
		}},
	}
	setups := []struct {
		name    string
		cfg     Config
		objects int
	}{
		{"p1", Config{Processors: 1, RTS: Broadcast, Seed: 36}, 1},
		{"s8", Config{Processors: 8, RTS: Broadcast, Shards: 8, Seed: 36}, 1},
		{"s8-rr64", Config{Processors: 8, RTS: Broadcast, Shards: 8, Seed: 36}, 64},
	}
	for _, path := range paths {
		for _, su := range setups {
			b.Run(path.name+"/"+su.name, func(b *testing.B) {
				rt := New(su.cfg, cellsSetup)
				rt.Run(func(p *Proc) {
					hs := make([]Handle[*cellsState], su.objects)
					for i := range hs {
						hs[i] = cellsB.New(p, 4)
						cellsSet.Call(p, hs[i], 2, 7)
					}
					b.ReportAllocs()
					i := 0
					for b.Loop() {
						if path.read(p, hs[i]) != 7 {
							b.Fatal("read the wrong value")
						}
						if i++; i == len(hs) {
							i = 0
						}
					}
				})
			})
		}
	}
}
