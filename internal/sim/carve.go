package sim

import (
	"cmp"
	"reflect"
	"unsafe"
)

// Chunk carves values out of runs it allocates, so that creating one
// costs no allocation of its own. Nothing carved is ever handed out
// again: a run becomes garbage once every value carved from it has, so a
// value shared by reference (a sequenced record, a message body, an
// operation's argument) stays what it was when it was written. The
// first run is four values long unless planned (Plan), and each next one
// twice the last, up to chunkBytes. The zero Chunk has allocated nothing.
type Chunk[T any] struct {
	free []T   // the uncarved rest of the current run
	next int32 // the length of the next run, four when zero
	most int32 // the bytes a run may take, chunkBytes when zero
}

// chunkBytes bounds a run. A run above the largest small-object size
// class, 32 KB, would be rounded up to whole pages, and the rest of each
// chunk's last run is never carved: at 16 KB that rest costs a
// sequencer crash run half a percent of its bytes, at 32 KB one percent.
const chunkBytes = 16 << 10

// A carve table is one per type and run, not one per member, so its runs
// start at carveFirst values and grow to carveBytes: fewer and larger
// than a member's, which matters where a run carves an argument per
// operation, and still a small share of a run that carves little.
const carveFirst, carveBytes = 256, 4 * chunkBytes

// Take carves n consecutive zero values, capped at n.
func (c *Chunk[T]) Take(n int) []T {
	if len(c.free) < n {
		var zero T
		run := min(max(int(c.next), 4), int(cmp.Or(c.most, chunkBytes))/max(int(unsafe.Sizeof(zero)), 1))
		c.free, c.next = make([]T, max(run, n)), int32(2*run)
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// Plan makes the next run n values long, for a caller that knows how
// many it will carve.
func (c *Chunk[T]) Plan(n int) { c.next = int32(n) }

// Add carves one value, v.
func (c *Chunk[T]) Add(v T) *T {
	p := &c.Take(1)[0]
	*p = v
	return p
}

// Carve returns a copy of v carved from e's chunk of T values: the
// environment's carve tables, one chunk per type, made at its first
// carve of a value of that type. A run that carves nothing makes no
// table. The copy is never handed out again, so whoever holds the
// pointer — a record retransmitted, cached or queued long after the
// carver moved on — reads v. A nil e allocates the copy on its own.
func Carve[T any](e *Env, v T) *T {
	if e == nil {
		p := new(T)
		*p = v
		return p
	}
	t := reflect.TypeFor[T]()
	c, _ := e.carves[t].(*Chunk[T])
	if c == nil {
		if e.carves == nil {
			e.carves = make(map[reflect.Type]any)
		}
		c = &Chunk[T]{next: carveFirst, most: carveBytes}
		e.carves[t] = c
	}
	return c.Add(v)
}
