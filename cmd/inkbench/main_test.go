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

// TestQuickKeepsItsSizes: -quick runs at experiments.Quick's sizes unless a
// flag overrides one, a flag given explicitly wins in either configuration,
// and without -quick the sizes are experiments.Default's.
func TestQuickKeepsItsSizes(t *testing.T) {
	sizes := func(args ...string) [4]int {
		t.Helper()
		inv, err := parse(append(args, "memcost"))
		if err != nil {
			t.Fatal(err)
		}
		c := inv.cfg
		return [4]int{c.ExtraScale, c.Hidden, c.Scenarios, c.GINLayers}
	}
	for _, c := range []struct {
		args []string
		want [4]int
	}{
		{[]string{"-quick"}, [4]int{16, 16, 2, 3}},
		{[]string{"-quick", "-scale", "2"}, [4]int{32, 16, 2, 3}},
		{[]string{"-quick", "-hidden", "32"}, [4]int{16, 32, 2, 3}},
		{[]string{"-quick", "-scenarios", "5", "-gin-layers", "4"}, [4]int{16, 16, 5, 4}},
		{nil, [4]int{1, 32, 3, 5}},
		{[]string{"-hidden", "8"}, [4]int{1, 8, 3, 5}},
	} {
		if got := sizes(c.args...); got != c.want {
			t.Errorf("%v: scale, hidden, scenarios, GIN layers %v, want %v", c.args, got, c.want)
		}
	}
}
