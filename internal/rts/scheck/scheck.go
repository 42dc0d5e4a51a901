// Package scheck checks recorded operation histories for sequential
// consistency on a register-like object. The model guarantees that all
// operations on all shared objects appear to execute in some total
// order consistent with each process's program order; for a register
// whose writes assign unique values, every read names the write it
// observed, so the guarantee is checkable directly on histories:
//
//   - collect every process's operation sequence (program order),
//   - reconstruct a total write order as a topological order of the
//     constraints the histories impose (own-write program order, and
//     the order each process observed values in),
//   - verify each process's history is monotone in that order: a
//     process may never observe an older write after a newer one.
//
// A cycle in the constraints means no total order exists — the history
// is not sequentially consistent. The package is used by the runtime's
// SC tests, including the adaptive-placement stress test that hammers
// an object while it migrates between subsystems.
package scheck

import "fmt"

// Op is one recorded operation: a write of Val, or a read that
// observed Val. Val 0 is reserved for the object's initial state and
// must not be written.
type Op struct {
	Proc  int
	Write bool
	Val   int
}

// WriteOrder reconstructs a total write order from the observation
// structure of the histories. Constraint edges: v1 -> v2 if some
// process wrote v1 before v2 (program order), or observed v1 and then
// later observed or wrote v2. It returns an error naming process and
// op index if a value is written twice or read without having been
// written, and one naming the smallest value on a constraint cycle if
// no total order exists.
func WriteOrder(histories [][]Op) ([]int, error) {
	type site struct{ proc, op int }
	written := map[int]site{}
	for p, hist := range histories {
		for i, op := range hist {
			if !op.Write {
				continue
			}
			if w, dup := written[op.Val]; dup {
				return nil, fmt.Errorf("scheck: proc %d op %d: value %d already written by proc %d op %d — writes must be unique",
					p, i, op.Val, w.proc, w.op)
			}
			written[op.Val] = site{p, i}
		}
	}
	edges := map[int]map[int]bool{}
	addEdge := func(a, b int) {
		// The initial value precedes every write; CheckAgainst pins it
		// at position 0, so it takes no part in the ordering.
		if a == b || a == 0 || b == 0 {
			return
		}
		if edges[a] == nil {
			edges[a] = map[int]bool{}
		}
		edges[a][b] = true
	}
	for p, hist := range histories {
		prev := 0
		for i, op := range hist {
			if _, ok := written[op.Val]; !ok && op.Val != 0 {
				return nil, fmt.Errorf("scheck: proc %d op %d: read observed value %d, which no process wrote", p, i, op.Val)
			}
			addEdge(prev, op.Val)
			prev = op.Val
		}
	}
	// Kahn's algorithm; ties broken by value so the witness order is
	// deterministic.
	indeg := map[int]int{}
	for v := range written {
		indeg[v] = 0
	}
	for _, outs := range edges {
		for b := range outs {
			indeg[b]++
		}
	}
	var order []int
	for len(indeg) > 0 {
		best := 0
		found := false
		for v, d := range indeg {
			if d == 0 && (!found || v < best) {
				best, found = v, true
			}
		}
		if !found {
			// Every remaining value has an incoming edge: a cycle.
			// Name the smallest so the message is deterministic.
			for v := range indeg {
				if !found || v < best {
					best, found = v, true
				}
			}
			return nil, fmt.Errorf("scheck: observation constraints are cyclic at value %d: no total write order exists", best)
		}
		order = append(order, best)
		delete(indeg, best)
		for b := range edges[best] {
			if _, ok := indeg[b]; ok {
				indeg[b]--
			}
		}
	}
	return order, nil
}

// CheckAgainst verifies the per-process histories against a given
// total write order: for each process, the positions of the values it
// observes must be non-decreasing (a process may never see an older
// write after a newer one), and its own writes must appear at
// non-decreasing positions too.
func CheckAgainst(histories [][]Op, writeOrder []int) error {
	pos := make(map[int]int)
	for i, v := range writeOrder {
		pos[v] = i + 1 // 0 is the initial value's position
	}
	pos[0] = 0 // initial state
	for p, hist := range histories {
		lastPos := -1
		for i, op := range hist {
			wp, ok := pos[op.Val]
			if !ok {
				return fmt.Errorf("scheck: proc %d op %d: value %d not in write order", p, i, op.Val)
			}
			if wp < lastPos {
				kind := "read observed"
				if op.Write {
					kind = "own write"
				}
				return fmt.Errorf("scheck: proc %d op %d: %s value %d (pos %d) after already observing pos %d — time went backwards",
					p, i, kind, op.Val, wp, lastPos)
			}
			lastPos = wp
		}
	}
	return nil
}

// Check is the one-call form: reconstruct a write-order witness from
// the histories and verify every history against it. A nil error means
// the histories are sequentially consistent (for a unique-value
// register workload).
func Check(histories [][]Op) error {
	order, err := WriteOrder(histories)
	if err != nil {
		return err
	}
	return CheckAgainst(histories, order)
}
