package workload

import (
	"math"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestTraceDeterministic(t *testing.T) {
	cfg := Config{Keys: 1024, Seed: 42, Rate: 5000, Duration: 100 * sim.Millisecond}
	a := Trace(cfg)
	b := Trace(cfg)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must produce a different trace.
	cfg.Seed = 43
	c := Trace(cfg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical traces")
	}
}

func TestOpenLoopRate(t *testing.T) {
	// Poisson arrivals at rate R over duration D: expected count R*D,
	// stddev sqrt(R*D). Check within 4 sigma, and arrival times are
	// strictly ordered inside the horizon.
	cfg := Config{Keys: 100, Dist: Uniform, Seed: 7, Rate: 10000, Duration: 1 * sim.Second}
	ops := Trace(cfg)
	want := 10000.0
	sigma := math.Sqrt(want)
	if d := math.Abs(float64(len(ops)) - want); d > 4*sigma {
		t.Errorf("open loop produced %d ops, want %.0f +- %.0f (4 sigma)", len(ops), want, 4*sigma)
	}
	prev := sim.Time(-1)
	for i, op := range ops {
		if op.At <= prev {
			t.Fatalf("op %d arrival %d not after previous %d", i, op.At, prev)
		}
		if op.At >= cfg.Duration {
			t.Fatalf("op %d arrival %d past the horizon %d", i, op.At, cfg.Duration)
		}
		prev = op.At
	}
}

func TestClosedLoopCount(t *testing.T) {
	cfg := Config{Keys: 100, Dist: Uniform, Seed: 1, Ops: 500}
	ops := Trace(cfg)
	if len(ops) != 500 {
		t.Fatalf("closed loop produced %d ops, want 500", len(ops))
	}
	for i, op := range ops {
		if op.At != 0 {
			t.Fatalf("op %d has arrival stamp %d in closed loop", i, op.At)
		}
	}
}

func TestMixFractions(t *testing.T) {
	cfg := Config{Keys: 100, Dist: Uniform, Seed: 3, Ops: 20000, ReadFrac: 0.8, UpdateFrac: 0.1}
	var gets, puts, updates float64
	for _, op := range Trace(cfg) {
		switch op.Kind {
		case Get:
			gets++
		case Put:
			puts++
		case Update:
			updates++
		}
	}
	n := gets + puts + updates
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{{"get", gets / n, 0.8}, {"update", updates / n, 0.1}, {"put", puts / n, 0.1}} {
		// Binomial stddev at n=20000, p=0.1 is ~0.0021; 4 sigma ~ 0.01.
		if math.Abs(c.got-c.want) > 0.012 {
			t.Errorf("%s fraction = %.4f, want %.2f +- 0.012", c.name, c.got, c.want)
		}
	}
}

func TestZipfMatchesTheory(t *testing.T) {
	// Empirical frequency of the hottest ranks must track the
	// closed-form Zipf probabilities. With n draws, the count of key k
	// is binomial(n, p): compare within 5 sigma.
	const n = 200000
	keys := int64(1000)
	theta := 0.99
	cfg := Config{Keys: keys, Dist: Zipf, Theta: theta, Seed: 11, Ops: n, ReadFrac: 1}
	counts := make(map[int64]int)
	for _, op := range Trace(cfg) {
		counts[op.Key]++
	}
	// Ranks 0 and 1 take dedicated branches in the generator and are
	// exact: compare against the binomial 5-sigma band.
	for _, k := range []int64{0, 1} {
		p := Prob(keys, theta, k)
		want := p * n
		sigma := math.Sqrt(n * p * (1 - p))
		if d := math.Abs(float64(counts[k]) - want); d > 5*sigma {
			t.Errorf("key %d drawn %d times, theory %.0f +- %.0f (5 sigma)", k, counts[k], want, 5*sigma)
		}
	}
	// Deeper ranks use the closed-form continuous inverse (the YCSB
	// approximation): allow 25% relative error but demand the right
	// mass and ordering.
	for _, k := range []int64{2, 5, 10, 50} {
		want := Prob(keys, theta, k) * n
		if d := math.Abs(float64(counts[k]) - want); d > 0.25*want {
			t.Errorf("key %d drawn %d times, theory %.0f: off by more than 25%%", k, counts[k], want)
		}
	}
	for _, pair := range [][2]int64{{0, 2}, {2, 10}, {10, 50}, {50, 500}} {
		if counts[pair[0]] <= counts[pair[1]] {
			t.Errorf("rank %d drawn %d times, rank %d drawn %d: zipf ordering violated",
				pair[0], counts[pair[0]], pair[1], counts[pair[1]])
		}
	}
	// Skew direction: the top-10 hot set must dominate a uniform share.
	hot := 0
	for k := int64(0); k < 10; k++ {
		hot += counts[k]
	}
	if frac := float64(hot) / n; frac < 0.2 {
		t.Errorf("top-10 keys drew %.3f of traffic, want the zipf head (>= 0.2)", frac)
	}
}

func TestProbSumsToOne(t *testing.T) {
	keys := int64(200)
	sum := 0.0
	for k := int64(0); k < keys; k++ {
		sum += Prob(keys, 0.99, k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Prob sums to %v, want 1", sum)
	}
}

func TestPhaseShiftRotatesHotSet(t *testing.T) {
	cfg := Config{Keys: 1000, Dist: Zipf, Theta: 0.99, Seed: 5,
		Rate: 10000, Duration: 1 * sim.Second, ShiftFrac: 0.5, ReadFrac: 1}
	ops := Trace(cfg)
	cut := sim.Time(float64(cfg.Duration) * cfg.ShiftFrac)
	early := make(map[int64]int)
	late := make(map[int64]int)
	for _, op := range ops {
		if op.At < cut {
			early[op.Key]++
		} else {
			late[op.Key]++
		}
	}
	// Before the shift the head is the low keys; after, it is rotated
	// by Keys/2. Key 0 must be hot early and cold late; key 500 the
	// reverse.
	if early[0] < 10*early[500] {
		t.Errorf("pre-shift: key 0 drawn %d, key 500 drawn %d; want key 0 dominant", early[0], early[500])
	}
	if late[500] < 10*late[0] {
		t.Errorf("post-shift: key 500 drawn %d, key 0 drawn %d; want key 500 dominant", late[500], late[0])
	}
	// A shifted config still yields a deterministic trace.
	b := Trace(cfg)
	if len(ops) != len(b) {
		t.Fatalf("shifted trace not deterministic: %d vs %d ops", len(ops), len(b))
	}
	for i := range ops {
		if ops[i] != b[i] {
			t.Fatalf("shifted trace differs at op %d", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New did not panic", name)
			}
		}()
		New(cfg)
	}
	mustPanic("no keys", Config{Rate: 1, Duration: 1})
	mustPanic("bad theta", Config{Keys: 10, Theta: 1.5, Rate: 1, Duration: 1})
	mustPanic("open loop without duration", Config{Keys: 10, Rate: 1})
	mustPanic("no ops", Config{Keys: 10})
	mustPanic("bad mix", Config{Keys: 10, Ops: 1, ReadFrac: 0.9, UpdateFrac: 0.2})
}

func TestAffinityRemapsToHomeBlock(t *testing.T) {
	cfg := Config{Keys: 1000, Dist: Uniform, Seed: 9, ReadFrac: 1,
		Rate: 10000, Duration: 1 * sim.Second, ShiftFrac: 0.5, ShiftBy: 1,
		Partitions: 4, Partition: 1, LocalFrac: 0.9}
	ops := Trace(cfg)
	cut := sim.Time(float64(cfg.Duration) * cfg.ShiftFrac)
	inBlock := func(k int64, b int) bool { return k >= int64(b)*250 && k < int64(b+1)*250 }
	var early, earlyHome, late, lateHome int
	for _, op := range ops {
		if op.At < cut {
			early++
			if inBlock(op.Key, 1) {
				earlyHome++
			}
		} else {
			late++
			if inBlock(op.Key, 2) {
				lateHome++
			}
		}
	}
	// LocalFrac 0.9 plus the uniform background's 0.25 share of the home
	// block puts ~92% of draws there; 0.8 leaves slack for sampling noise.
	if float64(earlyHome) < 0.8*float64(early) {
		t.Errorf("pre-shift: %d of %d ops in home block 1, want >= 80%%", earlyHome, early)
	}
	// After the shift the home rotates to the next partition.
	if float64(lateHome) < 0.8*float64(late) {
		t.Errorf("post-shift: %d of %d ops in block 2, want >= 80%%", lateHome, late)
	}
}

func TestAffinityOffLeavesTraceUnchanged(t *testing.T) {
	base := Config{Keys: 500, Seed: 3, Rate: 5000, Duration: sim.Second}
	with := base
	with.Partitions = 1 // <= 1: affinity disabled, no extra draws
	a, b := Trace(base), Trace(with)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace differs at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSharedZipfIsNewZipf: generators on several goroutines share one
// table per (Keys, Theta), and it is the table newZipf builds.
func TestSharedZipfIsNewZipf(t *testing.T) {
	for _, c := range []struct {
		n     int64
		theta float64
	}{{1024, 0.99}, {1024, 0.6}, {7, 0.99}} {
		var wg sync.WaitGroup
		got := make([]*zipfGen, 4)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = New(Config{Keys: c.n, Theta: c.theta, Ops: 1}).zipf
			}()
		}
		wg.Wait()
		for _, z := range got {
			if z != got[0] || *z != *newZipf(c.n, c.theta) {
				t.Errorf("n=%d theta=%v: generators hold %+v and %+v, newZipf builds %+v", c.n, c.theta, *z, *got[0], *newZipf(c.n, c.theta))
			}
		}
	}
}
