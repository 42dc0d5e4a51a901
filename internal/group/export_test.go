package group

import (
	"os"
	"testing"
)

// Every test of the package runs with released send records poisoned:
// a frame that reads one asks for an op with uid -1, which the harness
// refuses to deliver.
func TestMain(m *testing.M) {
	poison = true
	os.Exit(m.Run())
}
