package std

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/rts"
)

// sliceQueue is the job queue the ring replaced, kept as its reference:
// a slice appended at the back and sliced from the front.
type sliceQueue struct {
	jobs   []any
	closed bool
	bytes  int
}

func (q *sliceQueue) add(job any) {
	q.jobs = append(q.jobs, job)
	q.bytes += rts.SizeOfValue(job)
}

func (q *sliceQueue) get() (any, bool) {
	if len(q.jobs) == 0 {
		return nil, false
	}
	j := q.jobs[0]
	q.jobs[0] = nil
	q.jobs = q.jobs[1:]
	q.bytes -= rts.SizeOfValue(j)
	return j, true
}

func (q *sliceQueue) guard() bool { return len(q.jobs) > 0 || q.closed }

func (q *sliceQueue) clone() *sliceQueue {
	return &sliceQueue{jobs: append([]any(nil), q.jobs...), closed: q.closed, bytes: q.bytes}
}

// queuePair is a ring queue, driven through its registered operations,
// beside the reference; every step checks that they agree.
type queuePair struct {
	t    *testing.T
	typ  *rts.ObjectType
	ring rts.State
	ref  *sliceQueue
	at   string // the step, for messages
}

// fuzzJob is the job an add at step i puts: values of several types and
// wire sizes, all distinct, so that a job out of order shows.
func fuzzJob(i int, b byte) any {
	switch b % 3 {
	case 0:
		return i
	case 1:
		return fmt.Sprintf("job%d%s", i, strings.Repeat("-", int(b%17)))
	}
	return slices.Repeat([]int{i}, 1+int(b%9))
}

func (qp *queuePair) add(job any) {
	qp.typ.Op("add").Apply(qp.ring, rts.ArgsOf(job))
	qp.ref.add(job)
}

func (qp *queuePair) get() {
	qp.t.Helper()
	op := qp.typ.Op("get")
	if g, w := op.Guard(qp.ring, rts.Args{}), qp.ref.guard(); g != w {
		qp.t.Fatalf("%s: get's guard %v, reference %v", qp.at, g, w)
	}
	res := op.Apply(qp.ring, rts.Args{})
	job, ok := qp.ref.get()
	if res.Value(1) != ok || fmt.Sprint(res.Value(0)) != fmt.Sprint(job) {
		qp.t.Fatalf("%s: get = (%v, %v), reference (%v, %v)", qp.at, res.Value(0), res.Value(1), job, ok)
	}
}

func (qp *queuePair) check() {
	qp.t.Helper()
	res := qp.typ.Op("len").Apply(qp.ring, rts.Args{})
	if n := res.Value(0); n != len(qp.ref.jobs) {
		qp.t.Fatalf("%s: len %v, reference %d", qp.at, n, len(qp.ref.jobs))
	}
	if g, w := qp.typ.SizeOf(qp.ring), 16+qp.ref.bytes; g != w {
		qp.t.Fatalf("%s: WireSize %d, reference %d", qp.at, g, w)
	}
}

// clone clones the ring queue, checking that the clone's ring holds its
// jobs and no more, whatever the original's ring once grew to.
func (qp *queuePair) clone() rts.State {
	qp.t.Helper()
	c := qp.typ.Clone(qp.ring).(*jobQueueState)
	if len(c.ring) != c.n {
		qp.t.Fatalf("%s: a clone of %d jobs has a ring of %d slots", qp.at, c.n, len(c.ring))
	}
	return c
}

// drain empties both queues, checking every job and the sizes on the way.
func (qp *queuePair) drain() {
	qp.t.Helper()
	for len(qp.ref.jobs) > 0 {
		qp.get()
		qp.check()
	}
	qp.get() // empty: (nil, false) on both
}

// queueMatchesSlice runs the ops script against both queues. A byte's
// low three bits pick the step: add (three of eight), get (two), close,
// a clone drained on its own while the original goes on, and a clone
// that replaces the original; len and WireSize are checked after every
// step, and whatever is left is drained at the end.
func queueMatchesSlice(t *testing.T, ops []byte) {
	typ := typeByName(t, JobQueueObj)
	qp := &queuePair{t: t, typ: typ, ring: typ.New(nil), ref: &sliceQueue{}}
	for i, b := range ops {
		qp.at = fmt.Sprintf("step %d (%#x)", i, b)
		switch b & 7 {
		case 0, 1, 2:
			qp.add(fuzzJob(i, b>>3))
		case 3, 4:
			qp.get()
		case 5:
			qp.typ.Op("close").Apply(qp.ring, rts.Args{})
			qp.ref.closed = true
		case 6:
			side := &queuePair{t: t, typ: typ, ring: qp.clone(), ref: qp.ref.clone(), at: qp.at + ", clone"}
			side.check()
			side.drain()
		case 7:
			qp.ring, qp.ref = qp.clone(), qp.ref.clone()
		}
		qp.check()
	}
	qp.at = "final drain"
	qp.drain()
}

// TestQueueMatchesSlice runs scripts that fill the ring past several
// doublings while it wraps.
func TestQueueMatchesSlice(t *testing.T) {
	for _, pattern := range [][]byte{
		{0, 0, 3},          // two in, one out: the backlog grows and wraps
		{0, 3, 0, 3, 0, 7}, // steady, with clones
		{0, 0, 0, 0, 3, 3, 3, 6},
	} {
		queueMatchesSlice(t, slices.Repeat(pattern, 200))
	}
}

// FuzzQueueMatchesSlice checks the ring against the slice queue on
// random op scripts. CI runs the seed corpus;
//
//	go test -run '^$' -fuzz FuzzQueueMatchesSlice -fuzztime 20s ./internal/orca/std
//
// runs more.
func FuzzQueueMatchesSlice(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 3})
	f.Add([]byte{0, 8, 16, 3, 3, 3, 5, 0, 3, 3})
	f.Add(slices.Repeat([]byte{0, 1, 2, 3}, 40))
	f.Add(slices.Repeat([]byte{0, 9, 18, 27, 4, 6, 7}, 30))
	f.Add(slices.Repeat([]byte{2, 10, 3, 0, 0, 0, 0, 0, 4, 4, 7}, 25))
	f.Fuzz(func(t *testing.T, ops []byte) {
		queueMatchesSlice(t, ops)
	})
}

// TestQueueAllocations: a replica that takes as many jobs as it is given
// reallocates its ring only when its backlog doubles, and once the ring
// holds the backlog an add and a get allocate nothing.
func TestQueueAllocations(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts mean nothing under the race detector")
			}
		}
	}
	typ := typeByName(t, JobQueueObj)
	s := typ.New(nil).(*jobQueueState)
	add, get := typ.Op("add"), typ.Op("get")
	job := rts.ArgsOf(sizedJob{})
	grows := 0
	for i := range 4096 {
		before := len(s.ring)
		add.Apply(s, job)
		if i%2 == 1 {
			get.Apply(s, rts.Args{})
		}
		if len(s.ring) != before {
			grows++
		}
	}
	// The backlog peaks at 2049, with the last add: rings of 4, 8, ...,
	// 4096.
	if grows != 11 || len(s.ring) != 4096 {
		t.Errorf("a backlog of %d grew the ring %d times to %d slots, want 11 times to 4096", s.n, grows, len(s.ring))
	}
	if a := testing.AllocsPerRun(1000, func() { add.Apply(s, job); get.Apply(s, rts.Args{}) }); a != 0 {
		t.Errorf("an add and a get on a ring that holds the backlog allocate %v times, want 0", a)
	}
	// A clone copies the backlog the replica has, not the one it had: a
	// drained ring of 4096 slots clones to an empty one, which allocates
	// no slots, and three jobs clone to three slots.
	for s.n > 0 {
		get.Apply(s, rts.Args{})
	}
	for _, want := range []int{0, 3} {
		for s.n < want {
			add.Apply(s, job)
		}
		var c *jobQueueState
		a := testing.AllocsPerRun(100, func() { c = typ.Clone(s).(*jobQueueState) })
		if len(s.ring) != 4096 || len(c.ring) != c.n || c.n != want {
			t.Errorf("a clone of %d jobs on a ring of %d slots has %d jobs on %d slots, want %d on %d", s.n, len(s.ring), c.n, len(c.ring), want, want)
		}
		if want == 0 && a != 1 {
			t.Errorf("a clone of a drained ring allocates %v times, want 1 (the state, no slots)", a)
		}
	}
}

// sizedJob is a job as TSP's chunks are: a value with a wire size of
// its own.
type sizedJob struct{ routes []int }

func (j sizedJob) WireSize() int { return 8 + 8*len(j.routes) }
