package atpg

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// GateType enumerates the gate kinds.
type GateType int

// Gate kinds. Input marks primary-input pseudo-gates.
const (
	Input GateType = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
)

// String names the gate kind.
func (g GateType) String() string {
	switch g {
	case Input:
		return "IN"
	case Buf:
		return "BUF"
	case Not:
		return "NOT"
	case And:
		return "AND"
	case Nand:
		return "NAND"
	case Or:
		return "OR"
	case Nor:
		return "NOR"
	case Xor:
		return "XOR"
	}
	return fmt.Sprintf("GateType(%d)", int(g))
}

// Gate is one gate; its output line id is its index in Circuit.Gates.
// Inputs reference lower-numbered lines (the slice is topologically
// ordered by construction).
type Gate struct {
	Type GateType
	Ins  []int
}

// Circuit is a combinational circuit. Lines 0..NumInputs-1 are the
// primary inputs.
type Circuit struct {
	NumInputs int
	Gates     []Gate
	Outputs   []int
}

// Lines reports the total line count.
func (c *Circuit) Lines() int { return len(c.Gates) }

// GateEvalCost is the virtual CPU time to evaluate one gate during
// simulation on the 68030-class machine.
const GateEvalCost = 2 * sim.Microsecond

// finish designates outputs if none set (every line no gate reads
// becomes an output).
func (c *Circuit) finish() {
	used := make([]bool, len(c.Gates))
	for _, g := range c.Gates {
		for _, in := range g.Ins {
			used[in] = true
		}
	}
	if len(c.Outputs) == 0 {
		for li := c.NumInputs; li < len(c.Gates); li++ {
			if !used[li] {
				c.Outputs = append(c.Outputs, li)
			}
		}
	}
}

// Validate checks topological ordering and arities; generators and
// tests call it.
func (c *Circuit) Validate() error {
	if c.NumInputs <= 0 {
		return fmt.Errorf("atpg: no inputs")
	}
	for i := 0; i < c.NumInputs; i++ {
		if c.Gates[i].Type != Input {
			return fmt.Errorf("atpg: line %d should be an input", i)
		}
	}
	for gi := c.NumInputs; gi < len(c.Gates); gi++ {
		g := c.Gates[gi]
		want := 2
		switch g.Type {
		case Not, Buf:
			want = 1
		case Input:
			return fmt.Errorf("atpg: input gate %d after inputs", gi)
		}
		if len(g.Ins) < want {
			return fmt.Errorf("atpg: gate %d (%v) has %d inputs", gi, g.Type, len(g.Ins))
		}
		for _, in := range g.Ins {
			if in >= gi || in < 0 {
				return fmt.Errorf("atpg: gate %d reads line %d (not topological)", gi, in)
			}
		}
	}
	if len(c.Outputs) == 0 {
		return fmt.Errorf("atpg: no outputs")
	}
	return nil
}

// Generate builds a random layered combinational circuit with the
// given number of primary inputs, layers, and gates per layer.
func Generate(inputs, layers, width int, seed int64) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := &Circuit{NumInputs: inputs}
	for i := 0; i < inputs; i++ {
		c.Gates = append(c.Gates, Gate{Type: Input})
	}
	layerStart := 0
	layerEnd := inputs
	types := []GateType{And, Nand, Or, Nor, Xor, Not, And, Or, Nand, Nor}
	for l := 0; l < layers; l++ {
		start := len(c.Gates)
		for w := 0; w < width; w++ {
			gt := types[rng.Intn(len(types))]
			pick := func() int {
				// Prefer recent lines for depth, with some global
				// reach for reconvergence.
				if rng.Intn(4) == 0 {
					return rng.Intn(len(c.Gates))
				}
				return layerStart + rng.Intn(layerEnd-layerStart)
			}
			var ins []int
			if gt == Not {
				ins = []int{pick()}
			} else {
				a, b := pick(), pick()
				for b == a {
					b = pick()
				}
				ins = []int{a, b}
			}
			c.Gates = append(c.Gates, Gate{Type: gt, Ins: ins})
		}
		layerStart, layerEnd = start, len(c.Gates)
	}
	c.finish()
	return c
}

// RippleAdder builds an n-bit ripple-carry adder (2n+1 inputs: a, b,
// carry-in), a structured circuit for validation.
func RippleAdder(n int) *Circuit {
	c := &Circuit{NumInputs: 2*n + 1}
	for i := 0; i < c.NumInputs; i++ {
		c.Gates = append(c.Gates, Gate{Type: Input})
	}
	aLine := func(i int) int { return i }
	bLine := func(i int) int { return n + i }
	carry := 2 * n // carry-in
	add := func(t GateType, ins ...int) int {
		c.Gates = append(c.Gates, Gate{Type: t, Ins: ins})
		return len(c.Gates) - 1
	}
	for i := 0; i < n; i++ {
		axb := add(Xor, aLine(i), bLine(i))
		sum := add(Xor, axb, carry)
		and1 := add(And, axb, carry)
		and2 := add(And, aLine(i), bLine(i))
		carry = add(Or, and1, and2)
		c.Outputs = append(c.Outputs, sum)
	}
	c.Outputs = append(c.Outputs, carry)
	c.finish()
	return c
}

// Fault is a single stuck-at fault on a line.
type Fault struct {
	Line    int
	StuckAt int // 0 or 1
}

// String formats the fault conventionally.
func (f Fault) String() string { return fmt.Sprintf("%d/sa%d", f.Line, f.StuckAt) }

// AllFaults enumerates both stuck-at faults on every line.
func AllFaults(c *Circuit) []Fault {
	out := make([]Fault, 0, 2*c.Lines())
	for l := 0; l < c.Lines(); l++ {
		out = append(out, Fault{Line: l, StuckAt: 0}, Fault{Line: l, StuckAt: 1})
	}
	return out
}
