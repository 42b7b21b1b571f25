package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/count_artifacts.golden from the current code")

// goldenPath holds every value of the paper's count artifacts at tiny().
// Regenerate it, after a change that is meant to move a count, with
//
//	go test ./internal/experiments -run TestCountArtifactsGolden -update
const goldenPath = "testdata/count_artifacts.golden"

// TestCountArtifactsGolden pins every value of the paper's artifacts that is
// a pure function of counts, at tiny(): the Fig. 8 condition fractions, the
// Table V reductions, the Fig. 1a and Fig. 1b ratios, and memcost's modeled
// byte counts (its Measured* columns are heap readings and are left out).
// None of them may depend on the host, the worker count or the scheduling
// of the pool, so the file is compared exactly. Floats are written in the
// shortest form that parses back to the same float64, so two lines are
// equal exactly when their values are ==.
func TestCountArtifactsGolden(t *testing.T) {
	got, err := countArtifacts(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, %s holds %d", len(gotLines), goldenPath, len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// countArtifacts renders the pinned values one per line, each line naming
// its artifact, row and column.
func countArtifacts(cfg Config) (string, error) {
	var b strings.Builder
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintln(&b, "# Count artifacts at experiments.tiny(); regenerate with")
	fmt.Fprintln(&b, "#   go test ./internal/experiments -run TestCountArtifactsGolden -update")

	f8, err := Fig8(cfg)
	if err != nil {
		return "", err
	}
	for _, r := range f8.Rows {
		fmt.Fprintf(&b, "fig8 %s %s pruned=%s no-reset=%s covered=%s exposed=%s self-only=%s\n",
			r.Model, r.Dataset, num(r.Pruned), num(r.NoReset), num(r.Covered), num(r.Exposed), num(r.SelfOnly))
	}

	t5, err := Table5(cfg)
	if err != nil {
		return "", err
	}
	for _, r := range t5.Rows {
		fmt.Fprintf(&b, "table5 %s rnvv-m=%s rmc-m=%s rmc-a=%s\n",
			r.Dataset, num(r.RNVVInkM), num(r.RMCInkM), num(r.RMCInkA))
	}

	f1a, err := Fig1a(cfg)
	if err != nil {
		return "", err
	}
	for ki, k := range f1a.Ks {
		fmt.Fprintf(&b, "fig1a %s k=%d", f1a.Dataset, k)
		for di, dg := range f1a.DeltaGs {
			fmt.Fprintf(&b, " dG%d=%s", dg, num(f1a.Ratio[ki][di]))
		}
		fmt.Fprintln(&b)
	}

	f1b, err := Fig1b(cfg)
	if err != nil {
		return "", err
	}
	for i, d := range f1b.Datasets {
		fmt.Fprintf(&b, "fig1b %s ratio=%s\n", d, num(f1b.Ratio[i]))
	}

	mc, err := MemCost(cfg)
	if err != nil {
		return "", err
	}
	for _, r := range mc.Rows {
		fmt.Fprintf(&b, "memcost %s dataset=%d ckpt-h%d=%d ckpt-h32=%d\n",
			r.Dataset, r.DatasetBytes, mc.Hidden, r.CheckpointH, r.CheckpointH32)
	}
	return b.String(), nil
}
