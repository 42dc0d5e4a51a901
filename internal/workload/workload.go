package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/sim"
)

// Kind classifies one generated operation.
type Kind int

const (
	// Get reads a key.
	Get Kind = iota
	// Put overwrites a key's value.
	Put
	// Update is a read-modify-write on a key (session increment).
	Update
)

// String names the kind for tables and traces.
func (k Kind) String() string {
	switch k {
	case Get:
		return "get"
	case Put:
		return "put"
	case Update:
		return "update"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dist selects the key distribution.
type Dist int

const (
	// Zipf draws keys with a power-law skew: key 0 is the hottest,
	// frequencies fall off as rank^-Theta (the YCSB zipfian shape).
	Zipf Dist = iota
	// Uniform draws keys uniformly over the universe.
	Uniform
)

// String names the distribution for tables.
func (d Dist) String() string {
	if d == Uniform {
		return "uniform"
	}
	return "zipf"
}

// Config describes one traffic source. The zero value is not valid:
// set Keys, and either Rate+Duration (open loop) or Ops (closed
// loop). All randomness comes from Seed; two generators with equal
// Configs produce identical traces.
type Config struct {
	// Keys is the key universe size: keys are [0, Keys).
	Keys int64
	// Dist selects the key distribution (default Zipf).
	Dist Dist
	// Theta is the Zipf skew parameter (default 0.99, the YCSB
	// default; must be in (0, 1)). Ignored for Uniform.
	Theta float64
	// ReadFrac is the fraction of operations that are Gets
	// (default 0.95, a read-heavy serving mix).
	ReadFrac float64
	// UpdateFrac is the fraction of operations that are read-modify-
	// write Updates; the remainder (1 - ReadFrac - UpdateFrac) are
	// Puts.
	UpdateFrac float64
	// Seed drives all draws.
	Seed int64

	// Rate > 0 selects open-loop generation: operations arrive as a
	// Poisson process at Rate ops per virtual second, stamped with
	// arrival times, until Duration. Open-loop arrivals do not wait
	// for completions — a slow server builds a backlog, exactly the
	// queueing behavior latency percentiles must capture.
	Rate float64
	// Duration is the open-loop horizon.
	Duration sim.Time
	// Ops is the closed-loop operation count (used when Rate == 0):
	// the client issues Ops operations back to back, sleeping Think
	// between them.
	Ops int
	// Think is the closed-loop think time between operations.
	Think sim.Time

	// ShiftFrac, when in (0, 1), rotates the hot set after that
	// fraction of the run (of Duration in open loop, of Ops in closed
	// loop): generated keys become (key + ShiftBy) mod Keys. A static
	// placement tuned to the first phase is wrong for the second —
	// the adversarial input for adaptive-placement work.
	ShiftFrac float64
	// ShiftBy is the rotation amount (default Keys/2).
	ShiftBy int64

	// Partitions, together with Partition and LocalFrac, adds machine
	// affinity: the key universe splits into Partitions equal blocks
	// and each generated key is remapped with probability LocalFrac
	// into this source's home block — block Partition before the phase
	// shift, block (Partition+1) mod Partitions after it. A client per
	// machine with Partition = machine id gives every key block a
	// dominant writer, and the shift moves every block's traffic to
	// the next machine — the input that makes primary re-homing (not
	// just placement choice) matter. Partitions <= 1 disables affinity
	// and draws exactly the original trace.
	Partitions int
	// Partition is this source's home block in [0, Partitions).
	Partition int
	// LocalFrac is the probability a key is remapped into the home
	// block (default 0.9 when Partitions > 1).
	LocalFrac float64
}

// withDefaults fills zero fields and validates.
func (c Config) withDefaults() Config {
	if c.Keys <= 0 {
		panic("workload: Config.Keys must be positive")
	}
	if c.Theta == 0 {
		c.Theta = 0.99
	}
	if c.Dist == Zipf && (c.Theta <= 0 || c.Theta >= 1) {
		panic("workload: Config.Theta must be in (0, 1)")
	}
	if c.ReadFrac == 0 {
		c.ReadFrac = 0.95
	}
	if c.ReadFrac < 0 || c.UpdateFrac < 0 || c.ReadFrac+c.UpdateFrac > 1 {
		panic("workload: ReadFrac/UpdateFrac must be non-negative with sum <= 1")
	}
	if c.Rate > 0 && c.Duration <= 0 {
		panic("workload: open loop (Rate > 0) needs a positive Duration")
	}
	if c.Rate == 0 && c.Ops <= 0 {
		panic("workload: closed loop needs a positive Ops count")
	}
	if c.ShiftBy == 0 {
		c.ShiftBy = c.Keys / 2
	}
	if c.Partitions > 1 {
		if c.Partition < 0 || c.Partition >= c.Partitions {
			panic("workload: Config.Partition must be in [0, Partitions)")
		}
		if c.Keys < int64(c.Partitions) {
			panic("workload: Config.Keys must be at least Partitions")
		}
		if c.LocalFrac == 0 {
			c.LocalFrac = 0.9
		}
		if c.LocalFrac < 0 || c.LocalFrac > 1 {
			panic("workload: Config.LocalFrac must be in [0, 1]")
		}
	}
	return c
}

// Op is one generated operation.
type Op struct {
	// At is the open-loop arrival instant (zero in closed loop,
	// where the client paces itself).
	At sim.Time
	// Key is the target key in [0, Keys).
	Key int64
	// Kind is the operation class.
	Kind Kind
}

// Gen produces one trace. Draw order per operation is fixed —
// arrival (open loop only), key, kind — so traces are reproducible
// and two configs differing only in loop mode share key sequences.
type Gen struct {
	cfg     Config
	rng     *rand.Rand
	zipf    *zipfGen
	emitted int
	next    sim.Time // next open-loop arrival
}

// New builds a generator. The Config is validated and defaults are
// filled; see Config for the knobs.
func New(cfg Config) *Gen {
	cfg = cfg.withDefaults()
	g := &Gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Dist == Zipf {
		g.zipf = sharedZipf(cfg.Keys, cfg.Theta)
	}
	return g
}

// Config reports the generator's resolved configuration (defaults
// filled), which the driving client needs for Think pacing.
func (g *Gen) Config() Config { return g.cfg }

// Next returns the next operation, or ok == false when the trace is
// exhausted (Duration passed in open loop, Ops emitted in closed
// loop).
func (g *Gen) Next() (Op, bool) {
	var op Op
	if g.cfg.Rate > 0 {
		g.next += sim.Time(g.rng.ExpFloat64() / g.cfg.Rate * float64(sim.Second))
		if g.next >= g.cfg.Duration {
			return Op{}, false
		}
		op.At = g.next
	} else if g.emitted >= g.cfg.Ops {
		return Op{}, false
	}
	if g.zipf != nil {
		op.Key = g.zipf.next(g.rng.Float64())
	} else {
		op.Key = g.rng.Int63n(g.cfg.Keys)
	}
	if g.shifted() {
		op.Key = (op.Key + g.cfg.ShiftBy) % g.cfg.Keys
	}
	if g.cfg.Partitions > 1 {
		// Affinity remap. The extra draw happens only when partitions
		// are configured, so existing traces are untouched.
		if g.rng.Float64() < g.cfg.LocalFrac {
			home := g.cfg.Partition
			if g.shifted() {
				home = (home + 1) % g.cfg.Partitions
			}
			block := g.cfg.Keys / int64(g.cfg.Partitions)
			op.Key = op.Key%block + int64(home)*block
		}
	}
	u := g.rng.Float64()
	switch {
	case u < g.cfg.ReadFrac:
		op.Kind = Get
	case u < g.cfg.ReadFrac+g.cfg.UpdateFrac:
		op.Kind = Update
	default:
		op.Kind = Put
	}
	g.emitted++
	return op, true
}

// shifted reports whether the current operation falls in the
// post-phase-shift part of the run.
func (g *Gen) shifted() bool {
	if g.cfg.ShiftFrac <= 0 || g.cfg.ShiftFrac >= 1 {
		return false
	}
	if g.cfg.Rate > 0 {
		return float64(g.next) >= g.cfg.ShiftFrac*float64(g.cfg.Duration)
	}
	return float64(g.emitted) >= g.cfg.ShiftFrac*float64(g.cfg.Ops)
}

// Trace drains a fresh generator for cfg into a slice — the
// double-run comparison and test surface.
func Trace(cfg Config) []Op {
	g := New(cfg)
	var ops []Op
	for {
		op, ok := g.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

// --- Zipf -------------------------------------------------------------
//
// The YCSB zipfian generator (Gray et al.'s quick zipf): rank r (from
// 1) is drawn with probability (1/r^theta)/zeta(n, theta) using the
// closed-form inverse, with the harmonic sum precomputed once at
// construction. Key 0 is the hottest; no scrambling, so the hot set
// is the low keys and a phase shift is a plain rotation.

type zipfGen struct {
	n                 int64
	theta             float64
	alpha, zetan, eta float64
	halfPowTheta      float64
}

// newZipf precomputes the zeta sum for n keys (O(n), once).
func newZipf(n int64, theta float64) *zipfGen {
	zetan := 0.0
	for i := int64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	return &zipfGen{
		n:            n,
		theta:        theta,
		alpha:        1 / (1 - theta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPowTheta: math.Pow(0.5, theta),
	}
}

// zipfs memoises newZipf per (n, theta): the table is read-only once
// built, so every generator of a universe, in any Env on any goroutine,
// shares one instead of summing O(n) powers again.
var zipfs sync.Map // [2]float64{n, theta} -> *zipfGen; n is exact far beyond any n newZipf can sum

func sharedZipf(n int64, theta float64) *zipfGen {
	key := [2]float64{float64(n), theta}
	if z, ok := zipfs.Load(key); ok {
		return z.(*zipfGen)
	}
	z, _ := zipfs.LoadOrStore(key, newZipf(n, theta))
	return z.(*zipfGen)
}

// next maps one uniform draw u in [0, 1) to a key in [0, n).
func (z *zipfGen) next(u float64) int64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfPowTheta {
		return 1
	}
	k := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Prob reports the theoretical probability of key k (0-indexed) under
// a Zipf(theta) distribution over n keys — the reference the
// statistical tests compare empirical frequencies against.
func Prob(n int64, theta float64, k int64) float64 {
	zetan := 0.0
	for i := int64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	return 1 / math.Pow(float64(k+1), theta) / zetan
}
