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
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d: accepted %v", i, args)
		}
	}
}
