package main

import "testing"

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExperiment(t *testing.T) {
	if err := run([]string{"-quick", "-scale", "4", "-scenarios", "1", "-datasets", "PM", "memcost"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                               // no experiment
		{"unknown-exp"},                  // unknown id
		{"-quick", "burst"},              // removed experiment: unknown like any other
		{"-burst-updates", "9", "-list"}, // removed flag: undefined like any other
		{"-quick", "mixed"},              // retired in-process scenario: bench/ measures serving
		{"-readers", "4", "-list"},       // its flag went with it
		{"-datasets", "XX", "fig1a"},     // unknown dataset
		// Sizes the experiment config would clamp are refused, not rewritten.
		{"-quick", "-scale", "0", "-datasets", "PM", "memcost"},
		{"-quick", "-scale", "-2", "-datasets", "PM", "memcost"},
		{"-quick", "-hidden", "3", "-datasets", "PM", "memcost"},
		{"-quick", "-scenarios", "0", "-datasets", "PM", "memcost"},
		{"-quick", "-gin-layers", "1", "-datasets", "PM", "memcost"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d: accepted %v", i, args)
		}
	}
}
