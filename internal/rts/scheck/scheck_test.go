package scheck

import (
	"strings"
	"testing"
)

func w(p, v int) Op { return Op{Proc: p, Write: true, Val: v} }
func r(p, v int) Op { return Op{Proc: p, Val: v} }

func TestCheck(t *testing.T) {
	cases := []struct {
		name string
		hist [][]Op
		want string // substring of the error; "" = accepted
	}{
		{"empty", nil, ""},
		{"concurrent writers, readers agree on one order",
			[][]Op{{w(0, 1)}, {w(1, 2)}, {r(2, 2), r(2, 1)}, {r(3, 2), r(3, 1)}}, ""},
		{"reads lag writes",
			[][]Op{{w(0, 1), w(0, 2), w(0, 3)}, {r(1, 0), r(1, 1), r(1, 1), r(1, 3)}}, ""},
		{"initial-value reads before any write is seen",
			[][]Op{{r(0, 0), w(0, 1)}, {r(1, 0), r(1, 0), r(1, 1)}}, ""},
		{"a writer reads its own and others' values",
			[][]Op{{w(0, 1), r(0, 1), r(0, 2)}, {w(1, 2), r(1, 2)}}, ""},

		{"stale read after newer read",
			[][]Op{{w(0, 1), w(0, 2)}, {r(1, 2), r(1, 1)}},
			"cyclic at value 1"},
		{"own write observed out of program order",
			[][]Op{{w(0, 5), w(0, 4)}, {r(1, 4), r(1, 5)}},
			"cyclic at value 4"},
		{"two-process cycle names the smallest value",
			[][]Op{{w(0, 7), r(0, 9)}, {w(1, 9), r(1, 7)}, {w(2, 3), r(2, 7)}},
			"cyclic at value 7"},
		{"initial value after a write was seen",
			[][]Op{{w(0, 1)}, {r(1, 1), r(1, 0)}},
			"proc 1 op 1: read observed value 0 (pos 0) after already observing pos 1"},
		{"phantom value",
			[][]Op{{w(0, 1)}, {r(1, 1), r(1, 99)}},
			"proc 1 op 1: read observed value 99, which no process wrote"},
		{"duplicate write",
			[][]Op{{w(0, 1), w(0, 2)}, {r(1, 1), w(1, 2)}},
			"proc 1 op 1: value 2 already written by proc 0 op 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Check(c.hist)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("accepted, want error containing %q", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// TestCheckAgainstUnknownValue covers the one CheckAgainst error that
// Check cannot reach: a caller-supplied order missing a value.
func TestCheckAgainstUnknownValue(t *testing.T) {
	err := CheckAgainst([][]Op{{w(0, 1), w(0, 2)}}, []int{1})
	if err == nil || !strings.Contains(err.Error(), "proc 0 op 1: value 2 not in write order") {
		t.Fatalf("err = %v", err)
	}
}
