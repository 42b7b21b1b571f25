package main

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

func TestRunOnProfile(t *testing.T) {
	if err := run([]string{"-dataset", "PM", "-scale", "16", "-khop", "2", "-probes", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.inks")
	spec := dataset.PubMed
	spec.Scale *= 16
	g, f := dataset.Generate(spec, 1)
	if err := dataset.SaveFile(path, g, f); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-file", path, "-khop", "1", "-probes", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing input accepted")
	}
	if err := run([]string{"-dataset", "nope"}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run([]string{"-file", "/does/not/exist"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-dataset", "PM", "-scale", "0"}); err == nil {
		t.Error("-scale 0 accepted")
	}
}
