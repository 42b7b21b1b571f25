package main

import (
	"strings"
	"testing"
)

// TestRun runs the example end to end. Its report ends with the line run
// prints only after checking the incremental state against full inference;
// the timing lines before it are not checked.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	const want = "verified: incremental scores match full recomputation"
	if got := lines[len(lines)-1]; got != want {
		t.Errorf("last line %q, want %q", got, want)
	}
}
