package amoeba

import (
	"os"
	"testing"
)

// Every test of the package runs with released records poisoned: a
// Request or a broadcast payload used after its release fails loudly.
func TestMain(m *testing.M) {
	poison = true
	os.Exit(m.Run())
}
