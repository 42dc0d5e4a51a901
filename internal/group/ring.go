package group

import "repro/internal/sim"

// seqRing is a buffer indexed by a dense, monotonically advancing
// sequence number. It replaces the hot-path maps of the protocol
// (sequencer history, per-source dedup windows, the out-of-order
// buffer): a lookup or store is an array index, a trim is a pointer
// walk over exactly the dropped entries, and nothing ever iterates a
// hash table on the delivery path.
//
// The window [lo, hi) holds the retained indices; entries below lo are
// forgotten, the zero value of T means "absent". A ring with max > 0
// caps the window at max entries and silently forgets the oldest when
// a store would exceed it (the sequencer history cap); max == 0 grows
// the backing array instead (the out-of-order buffer, whose window is
// bounded by gap recovery). The backing array is allocated at the
// first store and never holds more than max entries.
type seqRing[T comparable] struct {
	vals []T
	lo   int64 // lowest retained index
	hi   int64 // one past the highest index ever stored
	max  int   // window cap; 0 = grow on demand
}

// reset empties the ring and rebases the window at lo.
func (r *seqRing[T]) reset(lo int64) {
	clear(r.vals)
	r.lo, r.hi = lo, lo
}

// get returns the value stored at index i, or T's zero value if i is
// outside the window or was never stored.
func (r *seqRing[T]) get(i int64) T {
	var zero T
	if i < r.lo || i >= r.hi {
		return zero
	}
	return r.vals[int(i%int64(len(r.vals)))]
}

// set stores v at index i. Stores below lo are ignored (the window has
// moved on); stores that would widen a capped window past max advance
// lo first, forgetting the oldest entries.
func (r *seqRing[T]) set(i int64, v T) {
	if i < r.lo {
		return
	}
	need := i - r.lo + 1
	if r.max > 0 && need > int64(r.max) {
		r.advanceTo(i - int64(r.max) + 1)
		need = int64(r.max)
	}
	if int64(len(r.vals)) < need {
		r.grow(need)
	}
	r.vals[int(i%int64(len(r.vals)))] = v
	r.hi = max(r.hi, i+1)
}

// del clears the entry at index i without moving the window.
func (r *seqRing[T]) del(i int64) {
	if i < r.lo || i >= r.hi {
		return
	}
	var zero T
	r.vals[int(i%int64(len(r.vals)))] = zero
}

// advanceTo forgets every entry below newLo.
func (r *seqRing[T]) advanceTo(newLo int64) {
	if newLo <= r.lo {
		return
	}
	var zero T
	for i := r.lo; i < min(newLo, r.hi); i++ {
		r.vals[int(i%int64(len(r.vals)))] = zero
	}
	r.lo, r.hi = newLo, max(r.hi, newLo)
}

// clearAbove forgets every entry at indices > n, shrinking the window
// from the top (used when a new view discards unsequenceable tails).
func (r *seqRing[T]) clearAbove(n int64) {
	var zero T
	from := max(n+1, r.lo)
	for i := from; i < r.hi; i++ {
		r.vals[int(i%int64(len(r.vals)))] = zero
	}
	r.hi = min(r.hi, from)
}

// span reports the width of the retained window.
func (r *seqRing[T]) span() int { return int(r.hi - r.lo) }

// grow reallocates the backing array to hold at least need entries,
// re-placing the live window under the new modulus. It grows eightfold,
// so that a ring on its way to a cap of thousands has allocated a
// seventh of the cap when it gets there, not all of it again, and stops
// at the cap exactly (set never needs more).
func (r *seqRing[T]) grow(need int64) {
	n := int64(16)
	for n < need {
		n *= 8
	}
	if r.max > 0 && n > int64(r.max) {
		n = int64(r.max)
	}
	nv := make([]T, n)
	for i := r.lo; i < r.hi; i++ {
		nv[int(i%n)] = r.vals[int(i%int64(len(r.vals)))]
	}
	r.vals = nv
}

// cacheLog is a member's delivered-message cache: the records it
// delivered, by sequence number, for a new sequencer's history and,
// under consensus, a follower's retransmissions and promises. It holds
// the last cacheSize of them, less those below the trim point (cut) the
// sequencer announces, which every member it counts has delivered (see
// dropBelow). A member only ever appends to it, at its next sequence
// number. The log is a ring over the segments logSegs bounds, each made
// at its first store: the k segments made give it logSegs[k] slots, and
// seq's record lives at position (seq − base) mod slots. At the end of a
// lap the log goes on at position 0, reusing its segments, if what it
// must keep fills at most half its slots, and otherwise makes the next
// segment and goes on there; a log that is never trimmed makes them all
// and holds the last cacheSize records at (seq − 1) mod cacheSize. Only
// a trim point that stalls after the log went round early makes it
// outgrow its slots in mid-lap, and it then moves the newest part of
// its window into the next segment. So a member holds slots for what
// the trim window spans, rounded up to a segment, and nothing is
// reallocated. It answers what a seqRing capped at cacheSize and
// advanced to the trim point answered (FuzzCacheLogMatchesRing).
type cacheLog struct {
	segs [len(logSegs) - 1][]*dataMsg
	made int   // segments made
	base int64 // a sequence number at position 0
	top  int64 // the highest sequence number stored (0: none)
	cut  int64 // records below it are dropped
}

// logSegs bounds the cache's segments: segment k holds positions
// [logSegs[k], logSegs[k+1]). Each is at least as long as the ones
// before it together, which a move in mid-lap needs.
var logSegs = [...]int{0, 16, 128, 1024, 2048, 4096, cacheSize}

// lo is the lowest sequence number the log retains.
func (c *cacheLog) lo() int64 { return max(1, c.cut, c.top-cacheSize+1) }

// slots is how many records the log has room for.
func (c *cacheLog) slots() int64 { return int64(logSegs[c.made]) }

// at returns the slot at position pos.
func (c *cacheLog) at(pos int64) **dataMsg {
	k := 0
	for pos >= int64(logSegs[k+1]) {
		k++
	}
	return &c.segs[k][pos-int64(logSegs[k])]
}

// slot returns where seq's record lives; seq must be in [lo, top].
func (c *cacheLog) slot(seq int64) **dataMsg { return c.at((seq - c.base) % c.slots()) }

// get returns the record stored under seq, or nil if the window
// [lo, top] holds none.
func (c *cacheLog) get(seq int64) *dataMsg {
	if seq < c.lo() || seq > c.top {
		return nil
	}
	return *c.slot(seq)
}

// set stores d under seq. A store below the window is ignored; one past
// the top stores nothing under the numbers it skips.
func (c *cacheLog) set(seq int64, d *dataMsg) {
	if seq < c.lo() {
		return
	}
	for c.top < seq {
		*c.next() = nil
	}
	*c.slot(seq) = d
}

// next makes room for the record after the top and returns its slot.
func (c *cacheLog) next() **dataMsg {
	s, n := c.top+1, c.slots()
	p, w := int64(0), s-max(1, c.cut)+1 // its position, and the window it closes
	if n > 0 {
		p = (s - c.base) % n
	}
	switch {
	case c.made == len(c.segs) || w <= n && (p > 0 || 2*w <= n):
		// The position holds a record below the window, or none.
	case p == 0: // the end of a lap: go on in the next segment
		c.grow()
		c.base = s - n
	default: // [s − n, s) fill the ring, the newest of them at [0, p)
		c.grow()
		for i := range p {
			*c.at(n + i), *c.at(i) = *c.at(i), nil
		}
		c.base = s - n - p
	}
	c.top = s
	return c.slot(s)
}

// grow makes the next segment.
func (c *cacheLog) grow() {
	c.segs[c.made] = make([]*dataMsg, logSegs[c.made+1]-logSegs[c.made])
	c.made++
}

// trim drops the records below t, or below the top's successor if t is
// above it.
func (c *cacheLog) trim(t int64) {
	t = min(t, c.top+1)
	if t <= c.cut {
		return
	}
	for s := c.lo(); s < t; s++ {
		*c.slot(s) = nil
	}
	c.cut = t
}

// dedupWindow remembers which of one source's submissions, numbered
// densely from 1, have been delivered: every one up to done — the
// contiguous delivered prefix, and whatever is more than srcWindow
// behind the newest, which counts as delivered — and, above done, the
// exceptions delivered out of order, in a ring made at the first one. A
// source whose submissions arrive in order, the only kind without a
// view change, holds no ring. The zero value has delivered nothing.
type dedupWindow struct {
	done int64
	ex   *seqRing[bool]
}

// delivered reports whether submission i has been noted.
func (w *dedupWindow) delivered(i int64) bool { return i <= w.done || w.ex != nil && w.ex.get(i) }

// note records the delivery of submission i.
func (w *dedupWindow) note(i int64) {
	if i > w.done+1 {
		if w.ex == nil {
			w.ex = &seqRing[bool]{lo: w.done + 1, hi: w.done + 1, max: srcWindow}
		}
		w.ex.set(i, true) // which drags lo along to keep the window at its cap
		w.done = w.ex.lo - 1
	} else if i == w.done+1 {
		w.done++
	}
	if w.ex != nil {
		for w.ex.get(w.done + 1) {
			w.done++
		}
		w.ex.advanceTo(w.done + 1)
	}
}

// put stores v at k in *m, making the map at its first insert: a
// member that never uses one of its maps costs nothing for it.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// chunks are what a member carves the records and bodies it creates per
// operation from: sequenced records and the frames that carry them, a
// proposal's slot list, and the bodies of accepts, proposals, acks,
// commit announcements and heartbeats.
type chunks struct {
	recs    sim.Chunk[dataMsg]
	frames  sim.Chunk[dataFrame]
	slots   sim.Chunk[*dataMsg]
	accepts sim.Chunk[acceptMsg]
	props   sim.Chunk[propMsg]
	acks    sim.Chunk[paccMsg]
	commits sim.Chunk[pcmtMsg]
	hbs     sim.Chunk[hbMsg]
}

// carve returns the member's chunks, which it makes when it first
// creates a record: a member that never does costs nothing for them.
func (g *Member) carve() *chunks {
	if g.chunks == nil {
		g.chunks = new(chunks)
	}
	return g.chunks
}
