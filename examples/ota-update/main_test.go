package main

import (
	"io"
	"testing"
)

// TestRun fails when the scenario breaks one of the claims run checks.
func TestRun(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
