package std

import (
	"slices"

	"repro/internal/orca"
	"repro/internal/rts"
	"repro/internal/sim"
)

// Type names, as registered.
const (
	IntObj       = "std.int"
	JobQueueObj  = "std.jobqueue"
	BarrierObj   = "std.barrier"
	FlagObj      = "std.flag"
	BoolArrayObj = "std.boolarray"
	TableObj     = "std.table"
	KillerObj    = "std.killer"
	BitSetObj    = "std.bitset"
	AccumObj     = "std.accum"
)

// Register adds all standard types to a registry.
func Register(reg *rts.Registry) {
	intB.Register(reg)
	queueB.Register(reg)
	barrierB.Register(reg)
	flagB.Register(reg)
	boolArrayB.Register(reg)
	tableB.Register(reg)
	killerB.Register(reg)
	bitSetB.Register(reg)
	accumB.Register(reg)
}

// --- Counter ----------------------------------------------------------
//
// A shared integer. Its Min operation is TSP's global bound update:
// "The indivisible operation that updates the object first checks if
// the new value actually is less than the current value, to prevent
// race conditions."

type intState struct{ v int }

// WireSize implements rts.Sized.
func (s *intState) WireSize() int { return 8 }

var (
	intB = orca.NewType(IntObj, func(args []any) *intState {
		s := &intState{}
		if len(args) > 0 {
			s.v = args[0].(int)
		}
		return s
	}).
		CloneWith(func(s *intState) *intState { c := *s; return &c }).
		SizedBy((*intState).WireSize)

	intValue  = orca.DefRead0(intB, "value", func(s *intState) int { return s.v })
	intAssign = orca.DefUpdate(intB, "assign", func(s *intState, v int) { s.v = v })
	intAdd    = orca.DefWrite(intB, "add", func(s *intState, d int) int { s.v += d; return s.v })
	intInc    = orca.DefWrite0(intB, "inc", func(s *intState) int { old := s.v; s.v++; return old })
	intMin    = orca.DefWrite(intB, "min", func(s *intState, v int) bool {
		if v < s.v {
			s.v = v
			return true
		}
		return false
	})
	intMax = orca.DefWrite(intB, "max", func(s *intState, v int) bool {
		if v > s.v {
			s.v = v
			return true
		}
		return false
	})
	// awaitGE blocks until the value reaches the argument; used for
	// simple completion counting.
	intAwaitGE = orca.DefRead(intB, "awaitGE", func(s *intState, _ int) int { return s.v }).
			Guard(func(s *intState, n int) bool { return s.v >= n })
)

// Counter is a shared integer object.
type Counter struct{ h orca.Handle[*intState] }

// NewCounter creates a shared integer initialized to init.
func NewCounter(p *orca.Proc, init int, opts ...orca.Option) Counter {
	return Counter{h: intB.NewWith(p, opts, init)}
}

// NewZeroCounter creates a shared integer at zero. It sends no
// constructor argument, so its creation broadcast is 8 bytes lighter
// than NewCounter(p, 0)'s.
func NewZeroCounter(p *orca.Proc, opts ...orca.Option) Counter {
	return Counter{h: intB.NewWith(p, opts)}
}

// Value reads the current value (a local replica read).
func (c Counter) Value(p *orca.Proc) int { return intValue.Call(p, c.h) }

// Assign sets the value.
func (c Counter) Assign(p *orca.Proc, v int) { intAssign.Call(p, c.h, v) }

// Add adds d and returns the new value.
func (c Counter) Add(p *orca.Proc, d int) int { return intAdd.Call(p, c.h, d) }

// Inc increments and returns the previous value.
func (c Counter) Inc(p *orca.Proc) int { return intInc.Call(p, c.h) }

// Min indivisibly lowers the value to v if v is smaller, reporting
// whether it did — the paper's TSP bound update.
func (c Counter) Min(p *orca.Proc, v int) bool { return intMin.Call(p, c.h, v) }

// Max indivisibly raises the value to v if v is larger, reporting
// whether it did.
func (c Counter) Max(p *orca.Proc, v int) bool { return intMax.Call(p, c.h, v) }

// AwaitGE blocks until the value is at least n, returning it.
func (c Counter) AwaitGE(p *orca.Proc, n int) int { return intAwaitGE.Call(p, c.h, n) }

// --- Queue ------------------------------------------------------------
//
// The replicated-worker job queue: workers repeatedly take a job; the
// guarded Get suspends while the queue is empty and returns (zero,
// false) once the queue is closed and drained.

type jobQueueState struct {
	// The queued jobs, oldest first: n of them from segs[0][head] to the
	// last segment's tail, in segments made as the backlog reaches them
	// and never copied. A new segment holds as many jobs as are queued,
	// between segMin and segMax, and one whose jobs have all been taken
	// is dropped, so a replica holds slots for its backlog and what its
	// first segment gave out and its last has yet to fill. A queue that
	// drains starts again at the front of its last segment.
	segs       [][]any
	head, tail int
	n          int
	closed     bool
	// bytes caches the summed wire size of the queued jobs, updated
	// incrementally by push/pop so sizing a replica is O(1) instead of
	// a scan of the whole queue on every applied write.
	bytes int
}

// segMin and segMax bound a new segment's length.
const segMin, segMax = 64, 1024

// WireSize implements rts.Sized.
func (q *jobQueueState) WireSize() int { return 16 + q.bytes }

// push appends a job, starting a segment when the last one is full.
func (q *jobQueueState) push(job any) {
	if len(q.segs) == 0 || q.tail == len(q.segs[len(q.segs)-1]) {
		q.segs, q.tail = append(q.segs, make([]any, min(max(q.n, segMin), segMax))), 0
	}
	q.segs[len(q.segs)-1][q.tail] = job
	q.tail++
	q.n++
	q.bytes += rts.SizeOfValue(job)
}

// pop removes the oldest job; the queue holds at least one.
func (q *jobQueueState) pop() any {
	j := q.segs[0][q.head]
	q.segs[0][q.head], q.head = nil, q.head+1
	if q.n--; q.n == 0 {
		q.head, q.tail = 0, 0 // the job was the last segment's last
	} else if q.head == len(q.segs[0]) {
		q.segs, q.head = slices.Delete(q.segs, 0, 1), 0
	}
	q.bytes -= rts.SizeOfValue(j)
	return j
}

// clone returns a queue holding the same jobs in one segment of
// exactly their number, whatever the original's segments once were.
func (q *jobQueueState) clone() *jobQueueState {
	c := &jobQueueState{closed: q.closed, bytes: q.bytes}
	if q.n > 0 {
		jobs := make([]any, 0, q.n)
		for k, seg := range q.segs {
			if k == len(q.segs)-1 {
				seg = seg[:q.tail]
			}
			if k == 0 {
				seg = seg[q.head:]
			}
			jobs = append(jobs, seg...)
		}
		c.segs, c.tail, c.n = [][]any{jobs}, q.n, q.n
	}
	return c
}

var (
	queueB = orca.NewType(JobQueueObj, func([]any) *jobQueueState { return &jobQueueState{segs: make([][]any, 0, 4)} }).
		CloneWith((*jobQueueState).clone).
		SizedBy((*jobQueueState).WireSize)

	queueAdd = orca.DefUpdate(queueB, "add", (*jobQueueState).push)
	queueGet = orca.DefWrite0x2(queueB, "get", func(q *jobQueueState) (any, bool) {
		if q.n == 0 {
			return nil, false
		}
		return q.pop(), true
	}).Guard(func(q *jobQueueState) bool { return q.n > 0 || q.closed })
	queueClose = orca.DefUpdate0(queueB, "close", func(q *jobQueueState) { q.closed = true })
	queueLen   = orca.DefRead0(queueB, "len", func(q *jobQueueState) int { return q.n })
)

// Queue is a shared FIFO job queue with elements of type T.
type Queue[T any] struct{ h orca.Handle[*jobQueueState] }

// NewQueue creates a shared job queue under the given creation
// options — the queue is the type most often worth a non-default
// placement (the paper's remark about TSP's write-mostly queue).
func NewQueue[T any](p *orca.Proc, opts ...orca.Option) Queue[T] {
	return Queue[T]{h: queueB.NewWith(p, opts)}
}

// Add appends a job. The job travels, and waits in every replica, as a
// *T carved once from the run's tables, so adding it boxes nothing.
func (q Queue[T]) Add(p *orca.Proc, job T) {
	queueAdd.Call(p, q.h, sim.Carve(p.Runtime().Env(), job))
}

// Get blocks until a job is available or the queue is closed; it
// returns (zero, false) once the queue is closed and drained.
func (q Queue[T]) Get(p *orca.Proc) (T, bool) {
	if raw, ok := queueGet.Call(p, q.h); ok {
		return *raw.(*T), true
	}
	var zero T
	return zero, false
}

// Close marks the queue closed; blocked Gets drain and return.
func (q Queue[T]) Close(p *orca.Proc) { queueClose.Call(p, q.h) }

// Len reads the current queue length.
func (q Queue[T]) Len(p *orca.Proc) int { return queueLen.Call(p, q.h) }

// --- Barrier ----------------------------------------------------------
//
// A counting barrier: processes Arrive and then Wait until all n have
// arrived. Reusable via generations is not needed by the paper's
// programs; a fresh barrier per phase is idiomatic Orca.

type barrierState struct {
	target int
	count  int
}

// WireSize implements rts.Sized.
func (s *barrierState) WireSize() int { return 16 }

var (
	barrierB = orca.NewType(BarrierObj, func(args []any) *barrierState {
		return &barrierState{target: args[0].(int)}
	}).
		CloneWith(func(s *barrierState) *barrierState { c := *s; return &c }).
		SizedBy((*barrierState).WireSize)

	barrierArrive = orca.DefWrite0(barrierB, "arrive", func(s *barrierState) int {
		s.count++
		return s.count
	})
	barrierWait  = orca.DefAwait(barrierB, "wait", func(s *barrierState) bool { return s.count >= s.target })
	barrierCount = orca.DefRead0(barrierB, "count", func(s *barrierState) int { return s.count })
)

// Barrier is a shared counting barrier.
type Barrier struct{ h orca.Handle[*barrierState] }

// NewBarrier creates a barrier for n arrivals.
func NewBarrier(p *orca.Proc, n int, opts ...orca.Option) Barrier {
	return Barrier{h: barrierB.NewWith(p, opts, n)}
}

// Arrive counts the caller in and returns the arrival count.
func (b Barrier) Arrive(p *orca.Proc) int { return barrierArrive.Call(p, b.h) }

// Wait blocks until all arrivals have happened.
func (b Barrier) Wait(p *orca.Proc) { barrierWait.Call(p, b.h) }

// Count reads the arrival count.
func (b Barrier) Count(p *orca.Proc) int { return barrierCount.Call(p, b.h) }

// --- Flag -------------------------------------------------------------
//
// A shared boolean, e.g. ACP's "no solution exists" object: "Each
// process reads the object before doing new work, and quits if the
// value is true."

type flagState struct{ b bool }

// WireSize implements rts.Sized.
func (s *flagState) WireSize() int { return 1 }

var (
	flagB = orca.NewType(FlagObj, func(args []any) *flagState {
		s := &flagState{}
		if len(args) > 0 {
			s.b = args[0].(bool)
		}
		return s
	}).
		CloneWith(func(s *flagState) *flagState { c := *s; return &c }).
		SizedBy((*flagState).WireSize)

	flagSet   = orca.DefUpdate(flagB, "set", func(s *flagState, v bool) { s.b = v })
	flagValue = orca.DefRead0(flagB, "value", func(s *flagState) bool { return s.b })
	flagAwait = orca.DefAwait(flagB, "await", func(s *flagState) bool { return s.b })
)

// Flag is a shared boolean object.
type Flag struct{ h orca.Handle[*flagState] }

// NewFlag creates a shared boolean initialized to init.
func NewFlag(p *orca.Proc, init bool, opts ...orca.Option) Flag {
	return Flag{h: flagB.NewWith(p, opts, init)}
}

// Set writes the flag.
func (f Flag) Set(p *orca.Proc, v bool) { flagSet.Call(p, f.h, v) }

// Value reads the flag (a local replica read).
func (f Flag) Value(p *orca.Proc) bool { return flagValue.Call(p, f.h) }

// Await blocks until the flag is true.
func (f Flag) Await(p *orca.Proc) { flagAwait.Call(p, f.h) }

// --- BoolArray --------------------------------------------------------
//
// ACP's work and result objects: an array of booleans with indivisible
// test operations for the termination protocol.

type boolArrayState struct{ bits []bool }

// WireSize implements rts.Sized.
func (s *boolArrayState) WireSize() int { return 8 + len(s.bits) }

var (
	boolArrayB = orca.NewType(BoolArrayObj, func(args []any) *boolArrayState {
		n := args[0].(int)
		s := &boolArrayState{bits: make([]bool, n)}
		if len(args) > 1 {
			v := args[1].(bool)
			for i := range s.bits {
				s.bits[i] = v
			}
		}
		return s
	}).
		CloneWith(func(s *boolArrayState) *boolArrayState {
			return &boolArrayState{bits: append([]bool(nil), s.bits...)}
		}).
		SizedBy((*boolArrayState).WireSize)

	boolArraySet = orca.DefUpdate2(boolArrayB, "set", func(s *boolArrayState, i int, v bool) {
		s.bits[i] = v
	})
	// claim indivisibly tests-and-clears a bit, so exactly one process
	// wins a work item.
	boolArrayClaim = orca.DefWrite(boolArrayB, "claim", func(s *boolArrayState, i int) bool {
		was := s.bits[i]
		s.bits[i] = false
		return was
	})
	boolArrayGet = orca.DefRead(boolArrayB, "get", func(s *boolArrayState, i int) bool {
		return s.bits[i]
	})
)

// BoolArray is a shared array of booleans.
type BoolArray struct{ h orca.Handle[*boolArrayState] }

// NewBoolArray creates an array of n booleans, all set to init.
func NewBoolArray(p *orca.Proc, n int, init bool, opts ...orca.Option) BoolArray {
	return BoolArray{h: boolArrayB.NewWith(p, opts, n, init)}
}

// Set writes one element.
func (a BoolArray) Set(p *orca.Proc, i int, v bool) { boolArraySet.Call(p, a.h, i, v) }

// Claim indivisibly tests-and-clears element i, reporting whether the
// caller won it.
func (a BoolArray) Claim(p *orca.Proc, i int) bool { return boolArrayClaim.Call(p, a.h, i) }

// Get reads one element.
func (a BoolArray) Get(p *orca.Proc, i int) bool { return boolArrayGet.Call(p, a.h, i) }

// --- Table ------------------------------------------------------------
//
// The chess transposition table: a fixed number of buckets indexed by
// key modulo size with always-replace policy, the classic design. The
// shared version broadcasts every store — exactly the communication
// overhead the paper discusses.

type tableEntry struct {
	key uint64
	val int64
	ok  bool
}

type tableState struct{ buckets []tableEntry }

// WireSize implements rts.Sized.
func (s *tableState) WireSize() int { return 8 + 17*len(s.buckets) }

var (
	tableB = orca.NewType(TableObj, func(args []any) *tableState {
		return &tableState{buckets: make([]tableEntry, args[0].(int))}
	}).
		CloneWith(func(s *tableState) *tableState {
			return &tableState{buckets: append([]tableEntry(nil), s.buckets...)}
		}).
		SizedBy((*tableState).WireSize)

	tableStore = orca.DefUpdate2(tableB, "store", func(s *tableState, k uint64, v int64) {
		s.buckets[k%uint64(len(s.buckets))] = tableEntry{key: k, val: v, ok: true}
	})
	tableLookup = orca.DefRead1x2(tableB, "lookup", func(s *tableState, k uint64) (int64, bool) {
		e := s.buckets[k%uint64(len(s.buckets))]
		if e.ok && e.key == k {
			return e.val, true
		}
		return 0, false
	})
)

// Table is a shared fixed-size hash table from uint64 keys to int64
// values with always-replace buckets.
type Table struct{ h orca.Handle[*tableState] }

// NewTable creates a table with the given bucket count.
func NewTable(p *orca.Proc, buckets int, opts ...orca.Option) Table {
	return Table{h: tableB.NewWith(p, opts, buckets)}
}

// Store writes an entry (always-replace).
func (t Table) Store(p *orca.Proc, key uint64, val int64) { tableStore.Call(p, t.h, key, val) }

// Lookup reads the entry for key, reporting whether it was present.
func (t Table) Lookup(p *orca.Proc, key uint64) (int64, bool) {
	return tableLookup.Call(p, t.h, key)
}

// --- Killer -----------------------------------------------------------
//
// The killer table: per search depth, the two most recent moves that
// caused beta cutoffs. Moves are encoded as ints by the application.

type killerState struct {
	moves [][2]int
}

// WireSize implements rts.Sized.
func (s *killerState) WireSize() int { return 8 + 16*len(s.moves) }

var (
	killerB = orca.NewType(KillerObj, func(args []any) *killerState {
		return &killerState{moves: make([][2]int, args[0].(int))}
	}).
		CloneWith(func(s *killerState) *killerState {
			return &killerState{moves: append([][2]int(nil), s.moves...)}
		}).
		SizedBy((*killerState).WireSize)

	killerAdd = orca.DefUpdate2(killerB, "add", func(s *killerState, d, mv int) {
		if d < 0 || d >= len(s.moves) {
			return
		}
		if s.moves[d][0] != mv {
			s.moves[d][1] = s.moves[d][0]
			s.moves[d][0] = mv
		}
	})
	killerGet = orca.DefRead1x2(killerB, "get", func(s *killerState, d int) (int, int) {
		if d < 0 || d >= len(s.moves) {
			return 0, 0
		}
		return s.moves[d][0], s.moves[d][1]
	})
)

// Killer is a shared killer-move table.
type Killer struct{ h orca.Handle[*killerState] }

// NewKiller creates a killer table covering the given ply count.
func NewKiller(p *orca.Proc, plies int, opts ...orca.Option) Killer {
	return Killer{h: killerB.NewWith(p, opts, plies)}
}

// Add records a cutoff move at ply d.
func (k Killer) Add(p *orca.Proc, ply, move int) { killerAdd.Call(p, k.h, ply, move) }

// Get reads the two killer moves for ply d.
func (k Killer) Get(p *orca.Proc, ply int) (int, int) { return killerGet.Call(p, k.h, ply) }

// --- BitSet -----------------------------------------------------------
//
// ATPG's detected-fault set: "All processes share an object containing
// the gates for which test patterns have been generated."

type bitSetState struct {
	words []uint64
	count int
}

// WireSize implements rts.Sized.
func (b *bitSetState) WireSize() int { return 16 + 8*len(b.words) }

func (b *bitSetState) has(i int) bool { return b.words[i/64]&(1<<(uint(i)%64)) != 0 }
func (b *bitSetState) set(i int) bool {
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.count++
	return true
}

var (
	bitSetB = orca.NewType(BitSetObj, func(args []any) *bitSetState {
		n := args[0].(int)
		return &bitSetState{words: make([]uint64, (n+63)/64)}
	}).
		CloneWith(func(s *bitSetState) *bitSetState {
			return &bitSetState{words: append([]uint64(nil), s.words...), count: s.count}
		}).
		SizedBy((*bitSetState).WireSize)

	bitSetAdd     = orca.DefWrite(bitSetB, "add", func(s *bitSetState, i int) bool { return s.set(i) })
	bitSetAddMany = orca.DefWrite(bitSetB, "addMany", func(s *bitSetState, idxs []int) int {
		added := 0
		for _, i := range idxs {
			if s.set(i) {
				added++
			}
		}
		return added
	})
	bitSetContains = orca.DefRead(bitSetB, "contains", func(s *bitSetState, i int) bool { return s.has(i) })
	bitSetCount    = orca.DefRead0(bitSetB, "count", func(s *bitSetState) int { return s.count })
)

// BitSet is a shared set of small integers.
type BitSet struct{ h orca.Handle[*bitSetState] }

// NewBitSet creates a set over the universe [0, n).
func NewBitSet(p *orca.Proc, n int, opts ...orca.Option) BitSet {
	return BitSet{h: bitSetB.NewWith(p, opts, n)}
}

// Add inserts i, reporting whether it was new.
func (s BitSet) Add(p *orca.Proc, i int) bool { return bitSetAdd.Call(p, s.h, i) }

// AddMany inserts all the given elements in one indivisible operation,
// returning how many were new.
func (s BitSet) AddMany(p *orca.Proc, idxs []int) int { return bitSetAddMany.Call(p, s.h, idxs) }

// Contains reports membership (a local replica read).
func (s BitSet) Contains(p *orca.Proc, i int) bool { return bitSetContains.Call(p, s.h, i) }

// Count reads the set's cardinality.
func (s BitSet) Count(p *orca.Proc) int { return bitSetCount.Call(p, s.h) }

// --- Accum ------------------------------------------------------------
//
// An accumulating counter for collecting per-worker totals (nodes
// searched, patterns generated) at the end of a run.

type accumState struct{ total int64 }

// WireSize implements rts.Sized.
func (s *accumState) WireSize() int { return 8 }

var (
	accumB = orca.NewType(AccumObj, func([]any) *accumState { return &accumState{} }).
		CloneWith(func(s *accumState) *accumState { c := *s; return &c }).
		SizedBy((*accumState).WireSize)

	accumAdd   = orca.DefUpdate(accumB, "add", func(s *accumState, n int) { s.total += int64(n) })
	accumValue = orca.DefRead0(accumB, "value", func(s *accumState) int { return int(s.total) })
)

// Accum is a shared accumulating counter.
type Accum struct{ h orca.Handle[*accumState] }

// NewAccum creates an accumulator starting at zero.
func NewAccum(p *orca.Proc, opts ...orca.Option) Accum {
	return Accum{h: accumB.NewWith(p, opts)}
}

// Add adds n to the total.
func (a Accum) Add(p *orca.Proc, n int) { accumAdd.Call(p, a.h, n) }

// Value reads the total.
func (a Accum) Value(p *orca.Proc) int { return accumValue.Call(p, a.h) }
