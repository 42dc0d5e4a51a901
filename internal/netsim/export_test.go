package netsim

import (
	"os"
	"testing"
)

// Every test of the package runs with released flight records poisoned.
func TestMain(m *testing.M) {
	poison = true
	os.Exit(m.Run())
}
