package rts

import (
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

func TestSizeOfValueGobFallback(t *testing.T) {
	type exotic struct {
		A int
		B string
	}
	got := SizeOfValue(exotic{A: 1, B: "xyz"})
	if got < 8 {
		t.Fatalf("gob fallback gave %d, want something plausible", got)
	}
}

func TestSizeOfArgsSums(t *testing.T) {
	got := SizeOfArgs([]any{1, "ab"})
	want := 4 + 8 + 6
	if got != want {
		t.Fatalf("SizeOfArgs = %d, want %d", got, want)
	}
}

// Sizing runs several times per remote operation, on the argument and
// result lists as they travel; the shapes with a direct size must cost
// nothing, whatever the gob fallback needs for the others.
func TestSizeOfArgsDoesNotAllocate(t *testing.T) {
	args := []any{int64(1) << 40, true, "k"}
	n := 0
	if a := testing.AllocsPerRun(100, func() { n = SizeOfArgs(args) }); a != 0 || n != 4+8+1+5 {
		t.Fatalf("SizeOfArgs = %d with %v allocations, want %d with 0", n, a, 4+8+1+5)
	}
	if a := testing.AllocsPerRun(100, func() { n = SizeOfArgs([]any{int64(1) << 40, true, "k"}) }); a != 0 {
		t.Fatalf("SizeOfArgs of a literal list allocates %v times, want 0", a)
	}
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
		w.Charge(DefaultFlushThreshold) // exactly at threshold: flush
		if m.AppBusy() != DefaultFlushThreshold {
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
