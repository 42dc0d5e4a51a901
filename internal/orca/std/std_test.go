package std

import (
	"testing"
	"testing/quick"

	"repro/internal/rts"
)

// Direct unit tests of every standard object type's operations,
// exercising New/Clone/SizeOf/Apply without a runtime underneath.

func typeByName(t *testing.T, name string) *rts.ObjectType {
	t.Helper()
	reg := rts.NewRegistry()
	Register(reg)
	return reg.Lookup(name)
}

func apply(t *testing.T, typ *rts.ObjectType, s rts.State, op string, args ...any) []any {
	t.Helper()
	out := typ.Op(op).Apply(nil, s, rts.ArgsOf(args...))
	return out.Values()
}

func TestIntObjOps(t *testing.T) {
	typ := typeByName(t, IntObj)
	s := typ.New([]any{10})
	if got := apply(t, typ, s, "value")[0].(int); got != 10 {
		t.Fatalf("value = %d", got)
	}
	apply(t, typ, s, "assign", 5)
	if got := apply(t, typ, s, "add", 3)[0].(int); got != 8 {
		t.Fatalf("add result = %d", got)
	}
	if old := apply(t, typ, s, "inc")[0].(int); old != 8 {
		t.Fatalf("inc returned %d, want old value 8", old)
	}
	if ok := apply(t, typ, s, "min", 100)[0].(bool); ok {
		t.Fatal("min(100) should not lower 9")
	}
	if ok := apply(t, typ, s, "min", 2)[0].(bool); !ok {
		t.Fatal("min(2) should lower 9")
	}
	if ok := apply(t, typ, s, "max", 1)[0].(bool); ok {
		t.Fatal("max(1) should not raise 2")
	}
	if ok := apply(t, typ, s, "max", 50)[0].(bool); !ok {
		t.Fatal("max(50) should raise 2")
	}
	guard := typ.Op("awaitGE").Guard
	if guard(s, rts.ArgsOf(51)) {
		t.Fatal("awaitGE(51) guard true at 50")
	}
	if !guard(s, rts.ArgsOf(50)) {
		t.Fatal("awaitGE(50) guard false at 50")
	}
}

func TestIntObjMinProperty(t *testing.T) {
	typ := typeByName(t, IntObj)
	f := func(vals []int16) bool {
		s := typ.New([]any{int(1 << 14)})
		min := int(1 << 14)
		for _, v := range vals {
			apply(t, typ, s, "min", int(v))
			if int(v) < min {
				min = int(v)
			}
		}
		return apply(t, typ, s, "value")[0].(int) == min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJobQueueOps(t *testing.T) {
	typ := typeByName(t, JobQueueObj)
	s := typ.New(nil)
	getGuard := typ.Op("get").Guard
	if getGuard(s, rts.Args{}) {
		t.Fatal("get guard true on empty open queue")
	}
	apply(t, typ, s, "add", "a")
	apply(t, typ, s, "add", "b")
	if n := apply(t, typ, s, "len")[0].(int); n != 2 {
		t.Fatalf("len = %d", n)
	}
	if !getGuard(s, rts.Args{}) {
		t.Fatal("get guard false on non-empty queue")
	}
	res := apply(t, typ, s, "get")
	if res[0].(string) != "a" || !res[1].(bool) {
		t.Fatalf("get = %v, want FIFO", res)
	}
	apply(t, typ, s, "close")
	apply(t, typ, s, "get") // drains "b"
	res = apply(t, typ, s, "get")
	if res[1].(bool) {
		t.Fatal("get on closed+empty queue should report !ok")
	}
	if !getGuard(s, rts.Args{}) {
		t.Fatal("get guard must be true once closed")
	}
}

func TestJobQueueClone(t *testing.T) {
	typ := typeByName(t, JobQueueObj)
	s := typ.New(nil)
	apply(t, typ, s, "add", 1)
	c := typ.Clone(s)
	apply(t, typ, s, "get")
	// The clone must be unaffected.
	if n := apply(t, typ, c, "len")[0].(int); n != 1 {
		t.Fatalf("clone len = %d after mutating original", n)
	}
}

func TestBarrierOps(t *testing.T) {
	typ := typeByName(t, BarrierObj)
	s := typ.New([]any{3})
	waitGuard := typ.Op("wait").Guard
	for i := 1; i <= 2; i++ {
		apply(t, typ, s, "arrive")
		if waitGuard(s, rts.Args{}) {
			t.Fatalf("wait guard true after %d arrivals of 3", i)
		}
	}
	apply(t, typ, s, "arrive")
	if !waitGuard(s, rts.Args{}) {
		t.Fatal("wait guard false after all arrivals")
	}
	if n := apply(t, typ, s, "count")[0].(int); n != 3 {
		t.Fatalf("count = %d", n)
	}
}

func TestFlagOps(t *testing.T) {
	typ := typeByName(t, FlagObj)
	s := typ.New(nil)
	if apply(t, typ, s, "value")[0].(bool) {
		t.Fatal("default flag should be false")
	}
	await := typ.Op("await").Guard
	if await(s, rts.Args{}) {
		t.Fatal("await guard true on false flag")
	}
	apply(t, typ, s, "set", true)
	if !await(s, rts.Args{}) {
		t.Fatal("await guard false on true flag")
	}
	s2 := typ.New([]any{true})
	if !apply(t, typ, s2, "value")[0].(bool) {
		t.Fatal("constructor arg ignored")
	}
}

func TestBoolArrayOps(t *testing.T) {
	typ := typeByName(t, BoolArrayObj)
	s := typ.New([]any{5})
	apply(t, typ, s, "set", 1, true)
	apply(t, typ, s, "set", 4, true)
	for i, want := range []bool{false, true, false, false, true} {
		if got := apply(t, typ, s, "get", i)[0].(bool); got != want {
			t.Fatalf("get(%d) = %t after set(1), set(4)", i, got)
		}
	}
	if was := apply(t, typ, s, "claim", 1)[0].(bool); !was {
		t.Fatal("claim(1) should win")
	}
	if was := apply(t, typ, s, "claim", 1)[0].(bool); was {
		t.Fatal("second claim(1) should lose")
	}
	s2 := typ.New([]any{3, true})
	for i := range 3 {
		if !apply(t, typ, s2, "get", i)[0].(bool) {
			t.Fatalf("initializer true: get(%d) = false", i)
		}
	}
}

func TestTableOps(t *testing.T) {
	typ := typeByName(t, TableObj)
	s := typ.New([]any{8})
	res := apply(t, typ, s, "lookup", uint64(5))
	if res[1].(bool) {
		t.Fatal("lookup hit on empty table")
	}
	apply(t, typ, s, "store", uint64(5), int64(-9))
	res = apply(t, typ, s, "lookup", uint64(5))
	if !res[1].(bool) || res[0].(int64) != -9 {
		t.Fatalf("lookup = %v", res)
	}
	// Bucket collision (5 and 13 mod 8): always-replace policy.
	apply(t, typ, s, "store", uint64(13), int64(7))
	if res := apply(t, typ, s, "lookup", uint64(5)); res[1].(bool) {
		t.Fatal("evicted key still found")
	}
	if res := apply(t, typ, s, "lookup", uint64(13)); !res[1].(bool) || res[0].(int64) != 7 {
		t.Fatalf("replacement lookup = %v", res)
	}
}

func TestKillerOps(t *testing.T) {
	typ := typeByName(t, KillerObj)
	s := typ.New([]any{4})
	apply(t, typ, s, "add", 2, 100)
	apply(t, typ, s, "add", 2, 200)
	apply(t, typ, s, "add", 2, 200) // duplicate must not shift
	res := apply(t, typ, s, "get", 2)
	if res[0].(int) != 200 || res[1].(int) != 100 {
		t.Fatalf("killers = %v", res)
	}
	// Out-of-range plies are ignored gracefully.
	apply(t, typ, s, "add", 99, 1)
	res = apply(t, typ, s, "get", 99)
	if res[0].(int) != 0 {
		t.Fatal("out-of-range get should be zero")
	}
}

func TestBitSetOps(t *testing.T) {
	typ := typeByName(t, BitSetObj)
	s := typ.New([]any{200})
	if !apply(t, typ, s, "add", 150)[0].(bool) {
		t.Fatal("first add should report new")
	}
	if apply(t, typ, s, "add", 150)[0].(bool) {
		t.Fatal("second add should report duplicate")
	}
	added := apply(t, typ, s, "addMany", []int{1, 2, 150, 199})[0].(int)
	if added != 3 {
		t.Fatalf("addMany added %d, want 3", added)
	}
	if n := apply(t, typ, s, "count")[0].(int); n != 4 {
		t.Fatalf("count = %d", n)
	}
	if !apply(t, typ, s, "contains", 199)[0].(bool) {
		t.Fatal("contains(199) wrong")
	}
}

func TestBitSetCountProperty(t *testing.T) {
	typ := typeByName(t, BitSetObj)
	f := func(idxs []uint16) bool {
		s := typ.New([]any{1 << 16})
		seen := map[int]bool{}
		for _, raw := range idxs {
			i := int(raw)
			apply(t, typ, s, "add", i)
			seen[i] = true
		}
		return apply(t, typ, s, "count")[0].(int) == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumOps(t *testing.T) {
	typ := typeByName(t, AccumObj)
	s := typ.New(nil)
	apply(t, typ, s, "add", 5)
	apply(t, typ, s, "add", -2)
	if v := apply(t, typ, s, "value")[0].(int); v != 3 {
		t.Fatalf("value = %d", v)
	}
}

// TestClonesAreDeep verifies every type's Clone produces a state
// disjoint from the original (required by the point-to-point RTS).
func TestClonesAreDeep(t *testing.T) {
	reg := rts.NewRegistry()
	Register(reg)
	cases := []struct {
		name    string
		args    []any
		mutate  string
		mutArgs []any
		probe   string
		pArgs   []any
	}{
		{IntObj, []any{1}, "assign", []any{9}, "value", nil},
		{JobQueueObj, nil, "add", []any{1}, "len", nil},
		{BarrierObj, []any{2}, "arrive", nil, "count", nil},
		{FlagObj, nil, "set", []any{true}, "value", nil},
		{BoolArrayObj, []any{4}, "set", []any{0, true}, "get", []any{0}},
		{TableObj, []any{4}, "store", []any{uint64(1), int64(2)}, "lookup", []any{uint64(1)}},
		{KillerObj, []any{4}, "add", []any{0, 7}, "get", []any{0}},
		{BitSetObj, []any{64}, "add", []any{3}, "count", nil},
		{AccumObj, nil, "add", []any{5}, "value", nil},
	}
	for _, tc := range cases {
		typ := reg.Lookup(tc.name)
		orig := typ.New(tc.args)
		clone := typ.Clone(orig)
		before := apply(t, typ, clone, tc.probe, tc.pArgs...)
		apply(t, typ, orig, tc.mutate, tc.mutArgs...)
		after := apply(t, typ, clone, tc.probe, tc.pArgs...)
		for i := range before {
			if before[i] != after[i] {
				t.Errorf("%s: clone observed mutation of original (%v -> %v)", tc.name, before, after)
			}
		}
	}
}

// TestSizeOfGrowsWithContent checks the storage model: object sizes
// must track their content (a fetched copy or a migration snapshot
// weighs what its state holds).
func TestSizeOfGrowsWithContent(t *testing.T) {
	reg := rts.NewRegistry()
	Register(reg)
	q := reg.Lookup(JobQueueObj)
	s := q.New(nil)
	small := q.SizeOf(s)
	for i := 0; i < 10; i++ {
		apply(t, q, s, "add", "payload")
	}
	if big := q.SizeOf(s); big <= small {
		t.Fatalf("queue size did not grow: %d -> %d", small, big)
	}
	bs := reg.Lookup(BitSetObj)
	if sz := bs.SizeOf(bs.New([]any{1024})); sz < 128 {
		t.Fatalf("bitset(1024) size = %d, want >= 128", sz)
	}
}
