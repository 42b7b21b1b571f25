package main

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

func TestRunGeneratesSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "pm.inks")
	if err := run([]string{"-dataset", "PM", "-scale", "16", "-out", out}); err != nil {
		t.Fatal(err)
	}
	g, f, err := dataset.LoadFile(out)
	if err != nil {
		t.Fatalf("loading generated snapshot: %v", err)
	}
	if g.NumNodes() == 0 || f.Dim() == 0 {
		t.Error("degenerate snapshot")
	}
}

func TestRunWithStream(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ca.inks")
	if err := run([]string{"-dataset", "Cora", "-scale", "16", "-out", out, "-stream", "2", "-deltag", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                              // missing flags
		{"-dataset", "PM"},              // missing -out
		{"-dataset", "XX", "-out", "x"}, // unknown dataset
		{"-dataset", "PM", "-out", "x", "-scale", "0"},  // (used to divide by zero)
		{"-dataset", "PM", "-out", "x", "-scale", "-1"}, // (used to panic allocating the graph)
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d: accepted %v", i, args)
		}
	}
}
