package rts

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/amoeba"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestSizeOfValueScalars(t *testing.T) {
	cases := []struct {
		v    any
		want int
	}{
		{nil, 1},
		{true, 1},
		{42, 8},
		{int64(1), 8},
		{uint64(1), 8},
		{3.14, 8},
		{int32(1), 4},
		{float32(1), 4},
		{"hello", 9},
		{[]byte{1, 2, 3}, 7},
		{[]int{1, 2}, 20},
		{[]int64{1}, 12},
		{[]bool{true, false}, 6},
	}
	for _, tc := range cases {
		if got := SizeOfValue(tc.v); got != tc.want {
			t.Errorf("SizeOfValue(%T %v) = %d, want %d", tc.v, tc.v, got, tc.want)
		}
	}
}

type sizedThing struct{ n int }

func (s sizedThing) WireSize() int { return s.n }

func TestSizeOfValueSizedInterface(t *testing.T) {
	if got := SizeOfValue(sizedThing{n: 123}); got != 123 {
		t.Fatalf("Sized bypass = %d, want 123", got)
	}
}

// The gob fallback is gone: a value with no direct size and no WireSize
// method has no wire size, and the panic says what to give it.
func TestSizeOfValueGobFallback(t *testing.T) {
	type exotic struct {
		A int
		B string
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "rts.exotic") || !strings.Contains(msg, "rts.Sized") {
			t.Fatalf("sizing an unsized value: recovered %q, want a panic naming the type and rts.Sized", msg)
		}
		if n := GobSizings(); n != 0 {
			t.Fatalf("GobSizings = %d, want 0", n)
		}
	}()
	SizeOfValue(exotic{A: 1, B: "xyz"})
}

func TestSizeOfArgsSums(t *testing.T) {
	rec := ArgsOf(1, "ab")
	got := SizeOfArgs(&rec)
	want := 4 + 8 + 6
	if got != want {
		t.Fatalf("SizeOfArgs = %d, want %d", got, want)
	}
}

// Sizing runs several times per remote operation, on the argument and
// result records as they travel; it must cost nothing, and neither may
// building a record whose values fit inline.
func TestSizeOfArgsDoesNotAllocate(t *testing.T) {
	rec := ArgsOf(int64(1)<<40, true, "k")
	n := 0
	if a := testing.AllocsPerRun(100, func() { n = SizeOfArgs(&rec) }); a != 0 || n != 4+8+1+5 {
		t.Fatalf("SizeOfArgs = %d with %v allocations, want %d with 0", n, a, 4+8+1+5)
	}
	if a := testing.AllocsPerRun(100, func() {
		var in Args
		Put(&in, nil, int64(1)<<40)
		Put(&in, nil, true)
		n = SizeOfArgs(&in)
	}); a != 0 || n != 4+8+1 {
		t.Fatalf("a record of two scalars: size %d with %v allocations, want %d with 0", n, a, 4+8+1)
	}
}

// A bounce is a status on an empty record, and weighs what the sentinel
// value it replaces did when gob sized it: 4 bytes of list and 64 of
// struct.
func TestRetrySize(t *testing.T) {
	if n := SizeOfArgs(&retry); n != 68 || !isRetry(retry) || isRetry(Args{}) {
		t.Fatalf("the bounce record weighs %d (retry %v), want 68", n, isRetry(retry))
	}
}

type pair struct {
	A int
	B string
}

func (pair) WireSize() int { return 12 }

// TestArgsRoundTrip puts every shape an operation's arguments or results
// take through the record: each value must come back with the type and
// value it went in with, by the typed and by the boxed accessor, and the
// record must weigh what the value list it replaces weighed.
func TestArgsRoundTrip(t *testing.T) {
	for _, vals := range [][]any{
		nil,
		{7}, {int64(1) << 40}, {uint64(9)}, {true}, {false}, {2.5}, {3 * sim.Millisecond}, {nil},
		{"key"}, {[]byte{1, 2, 3}}, {pair{1, "x"}}, {&pair{2, "y"}}, {[]int{4, 5}},
		{1, 2}, {int64(3), true}, {nil, false}, {"a", "b"}, {[]byte("v"), int64(8)}, {int64(8), pair{3, "z"}},
		{1, "two", 3.0}, {"a", 2, "c", int64(4), nil, true}, {1, 2, 3, 4},
	} {
		rec := ArgsOf(vals...)
		if !reflect.DeepEqual(rec.Values(), vals) {
			t.Errorf("%v came back as %v", vals, rec.Values())
		}
		if got, want := SizeOfArgs(&rec), SizeOfValue(vals); got != want {
			t.Errorf("%v: the record weighs %d, the list weighed %d", vals, got, want)
		}
	}
	// The typed accessors, shape by shape: 0-2 values of each kind.
	var a Args
	Put(&a, nil, int64(5))
	Put(&a, nil, pair{6, "p"})
	if Get[int64](&a, 0) != 5 || Get[pair](&a, 1) != (pair{6, "p"}) || Get[any](&a, 0) != any(int64(5)) {
		t.Errorf("typed read of %v", a.Values())
	}
	var b Args
	Put[any](&b, nil, nil)
	Put(&b, nil, sim.Time(9))
	if Get[any](&b, 0) != nil || Get[sim.Time](&b, 1) != 9 {
		t.Errorf("typed read of %v", b.Values())
	}
	var c Args
	Put(&c, nil, 1.5)
	Put[any](&c, nil, 12)
	if Get[float64](&c, 0) != 1.5 || Get[int](&c, 1) != 12 {
		t.Errorf("typed read of %v", c.Values())
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("int read as string", func() { Get[string](&c, 1) })
	mustPanic("int64 read as int", func() { Get[int](&a, 0) })
	mustPanic("nil read as int", func() { Get[int](&b, 0) })
	mustPanic("nil read as []int", func() { Get[[]int](&b, 0) })
	mustPanic("value past the end", func() { Get[int](&c, 2) })
}

func TestSizeOfValueStringProperty(t *testing.T) {
	f := func(s string) bool { return SizeOfValue(s) == 4+len(s) }
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(intCellType())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	reg.Register(intCellType())
}

func TestRegistryUnknownPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown lookup")
		}
	}()
	reg.Lookup("no-such-type")
}

func TestObjectTypeUnknownOpPanics(t *testing.T) {
	typ := intCellType()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown op")
		}
	}()
	typ.Op("frobnicate")
}

func TestWorkerAccumulatesAndFlushes(t *testing.T) {
	env := sim.New(1)
	nw := netsim.New(env, 1, netsim.DefaultParams())
	m := amoeba.NewMachine(env, nw, 0, amoeba.DefaultCosts())
	var busyAfterCharges, busyAfterFlush sim.Time
	m.SpawnThread("w", func(p *sim.Proc) {
		w := NewWorker(p, m)
		// Small charges stay pending (below the 500µs threshold).
		for i := 0; i < 40; i++ {
			w.Charge(10 * sim.Microsecond)
		}
		busyAfterCharges = m.AppBusy()
		w.Flush()
		busyAfterFlush = m.AppBusy()
	})
	env.Run()
	if busyAfterCharges != 0 {
		t.Fatalf("sub-threshold charges hit the CPU early: %v", busyAfterCharges)
	}
	if busyAfterFlush != 400*sim.Microsecond {
		t.Fatalf("flush charged %v, want 400µs", busyAfterFlush)
	}
	env.Shutdown()
}

func TestWorkerAutoFlushAtThreshold(t *testing.T) {
	env := sim.New(1)
	nw := netsim.New(env, 1, netsim.DefaultParams())
	m := amoeba.NewMachine(env, nw, 0, amoeba.DefaultCosts())
	m.SpawnThread("w", func(p *sim.Proc) {
		w := NewWorker(p, m)
		w.Charge(flushThreshold) // exactly at threshold: flush
		if m.AppBusy() != flushThreshold {
			t.Errorf("auto-flush missing: busy=%v", m.AppBusy())
		}
	})
	env.Run()
	env.Shutdown()
}

func TestWorkerAccrueNeverBlocks(t *testing.T) {
	env := sim.New(1)
	nw := netsim.New(env, 1, netsim.DefaultParams())
	m := amoeba.NewMachine(env, nw, 0, amoeba.DefaultCosts())
	m.SpawnThread("w", func(p *sim.Proc) {
		w := NewWorker(p, m)
		before := p.Now()
		for i := 0; i < 100; i++ {
			w.Accrue(sim.Millisecond) // far beyond the threshold
		}
		if p.Now() != before {
			t.Error("Accrue advanced time (blocked)")
		}
		w.Flush()
		if m.AppBusy() != 100*sim.Millisecond {
			t.Errorf("accrued work lost: %v", m.AppBusy())
		}
	})
	env.Run()
	env.Shutdown()
}
