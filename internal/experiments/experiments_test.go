package experiments

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// tiny returns a configuration small enough for unit tests: only the two
// small datasets, aggressively scaled.
func tiny() Config {
	c := Quick()
	c.Datasets = []dataset.Spec{dataset.PubMed, dataset.Cora}
	c.ExtraScale = 32
	c.Scenarios = 1
	c.GINLayers = 3
	return c
}

func TestConfigNormalize(t *testing.T) {
	var c Config
	n := c.normalize()
	if len(n.Datasets) != len(dataset.All) || n.ExtraScale < 1 || n.Hidden < 4 || n.Scenarios < 1 {
		t.Errorf("normalize produced %+v", n)
	}
}

func TestScenariosForSchedule(t *testing.T) {
	c := Default()
	c.Scenarios = 1000
	if c.scenariosFor(1) != 100 || c.scenariosFor(100) != 10 || c.scenariosFor(10000) != 1 {
		t.Error("paper scenario schedule broken")
	}
	c.Scenarios = 3
	if c.scenariosFor(1) != 3 {
		t.Error("cap not applied")
	}
}

func TestDeltaGFor(t *testing.T) {
	if deltaGFor(modelGCN) != 100 || deltaGFor(modelSAGE) != 100 || deltaGFor(modelGIN) != 1 {
		t.Error("paper ΔG defaults wrong")
	}
}

func TestFig1a(t *testing.T) {
	r, err := Fig1a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Ratio) != 5 {
		t.Fatalf("want 5 k-rows, got %d", len(r.Ratio))
	}
	// Affected area grows with both k and ΔG (where measurable).
	if r.Ratio[0][0] > r.Ratio[4][0] {
		t.Errorf("area must grow with k: k=1 %g > k=5 %g", r.Ratio[0][0], r.Ratio[4][0])
	}
	for _, row := range r.Ratio {
		for _, v := range row {
			if v > 1.0 {
				t.Errorf("ratio above 1: %g", v)
			}
		}
	}
	if !strings.Contains(r.Render(), "Fig. 1a") {
		t.Error("render missing title")
	}
}

func TestFig1b(t *testing.T) {
	cfg := tiny()
	cfg.ExtraScale = 64 // Yelp and papers100M appear here; shrink hard
	r, err := Fig1b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Datasets) != 3 {
		t.Fatalf("want 3 datasets, got %d", len(r.Datasets))
	}
	best := 1.0
	for i, v := range r.Ratio {
		if v < 0 || v > 1 {
			t.Errorf("%s: real/theoretical ratio %g out of range", r.Datasets[i], v)
		}
		if v < best {
			best = v
		}
	}
	// The headline claim — the real affected area is a small fraction of
	// the theoretical one — shows partially at toy scale (ΔG=100 on a
	// few-hundred-node graph saturates small datasets): at least one
	// profile must show clear selectivity.
	if best > 0.8 {
		t.Errorf("no dataset showed selectivity: best ratio %g", best)
	}
	_ = r.Render()
}

func TestTable4ShapeAndOrdering(t *testing.T) {
	r, err := Table4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Blocks) != 3 {
		t.Fatalf("want 3 model blocks, got %d", len(r.Blocks))
	}
	for _, b := range r.Blocks {
		if len(b.Rows) != 2 {
			t.Fatalf("%s: want 2 dataset rows, got %d", b.Model, len(b.Rows))
		}
		for _, row := range b.Rows {
			if row.Full <= 0 || row.KHop <= 0 || row.InkM <= 0 || row.InkA <= 0 {
				t.Errorf("%s/%s: missing timings %+v", b.Model, row.Dataset, row)
			}
		}
	}
	out := r.Render()
	for _, want := range []string{"GCN", "GraphSAGE", "GIN", "InkStream-m", "k-hop"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// At a moderate (non-toy) scale the paper's headline ordering must hold:
// InkStream is faster than full-graph inference. Event-machinery overhead
// can dominate only on toy graphs.
func TestTable4OrderingModerateScale(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale timing test")
	}
	cfg := Default()
	cfg.Datasets = []dataset.Spec{dataset.PubMed}
	cfg.ExtraScale = 2
	cfg.Scenarios = 2
	cfg.GINLayers = 3
	// Wall-clock ordering assertions are load-sensitive; retry a few times
	// so transient machine load cannot fail the suite.
	var lastErr string
	for attempt := 0; attempt < 3; attempt++ {
		r, err := Table4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lastErr = ""
		for _, b := range r.Blocks {
			row := b.Rows[0]
			// GCN (no self-dependence, small per-layer compute) shows the
			// cleanest margin; it must win outright. The self-dependent
			// models' margin shrinks at this reduced scale with ΔG=100, so
			// only require them not to lose by more than 2x (at full scale
			// they win — see EXPERIMENTS.md).
			slack := time.Duration(1)
			if b.Model != "GCN" {
				slack = 2
			}
			if row.InkM > slack*row.Full {
				lastErr = b.Model + ": InkStream-m slower than full inference beyond slack"
			}
			if row.InkA > slack*row.Full {
				lastErr = b.Model + ": InkStream-a slower than full inference beyond slack"
			}
		}
		if lastErr == "" {
			return
		}
	}
	t.Error(lastErr)
}

func TestTable5Reductions(t *testing.T) {
	r, err := Table5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.RMCInkM <= 0 || row.RMCInkM > 1 {
			t.Errorf("%s: RMC InkStream-m %g out of (0,1]", row.Dataset, row.RMCInkM)
		}
		if row.RMCInkA <= 0 || row.RMCInkA > 1 {
			t.Errorf("%s: RMC InkStream-a %g out of (0,1]", row.Dataset, row.RMCInkA)
		}
		if row.RNVVInkM < 0 || row.RNVVInkM > 1 {
			t.Errorf("%s: RNVV %g out of [0,1]", row.Dataset, row.RNVVInkM)
		}
	}
	_ = r.Render()
}

func TestTable6AblationOrdering(t *testing.T) {
	r, err := Table6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.KHop <= 0 || row.Comp1 <= 0 || row.Full <= 0 {
			t.Errorf("%s: missing timings %+v", row.Dataset, row)
		}
	}
	_ = r.Render()
}

// TestFig4GroupingSavesWork: grouping a target's events before applying
// them must fetch fewer bytes than applying each on its own, and never
// expose more resets — the claim Fig. 4 illustrates.
func TestFig4GroupingSavesWork(t *testing.T) {
	r, err := Fig4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.FetchedGrouped >= row.FetchedUngrouped {
			t.Errorf("%s: grouped fetched %d bytes, ungrouped %d", row.Dataset, row.FetchedGrouped, row.FetchedUngrouped)
		}
		if row.ExposedGrouped > row.ExposedUngrouped {
			t.Errorf("%s: grouped exposed %d resets, ungrouped %d", row.Dataset, row.ExposedGrouped, row.ExposedUngrouped)
		}
	}
	_ = r.Render()
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Datasets) != 2 || len(r.SpeedupM) != 2 {
		t.Fatalf("shape: %d datasets", len(r.Datasets))
	}
	for di := range r.Datasets {
		for gi := range r.DeltaGs {
			m, a := r.SpeedupM[di][gi], r.SpeedupA[di][gi]
			if m == 0 || a == 0 {
				t.Errorf("%s dG=%d: zero speedup recorded", r.Datasets[di], r.DeltaGs[gi])
			}
		}
	}
	_ = r.Render()
}

func TestFig8Distributions(t *testing.T) {
	r, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 { // 3 models × 2 datasets
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		sum := row.Pruned + row.NoReset + row.Covered + row.Exposed + row.SelfOnly
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s/%s: fractions sum to %g", row.Model, row.Dataset, sum)
		}
	}
	_ = r.Render()
}

func TestFig9AgreementHigh(t *testing.T) {
	cfg := tiny()
	r, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Points) != 8 {
			t.Fatalf("%s: points = %d", s.Dataset, len(s.Points))
		}
		for _, p := range s.Points {
			// The paper's operating regime is <1–2% graph change between
			// retraining phases; at toy scale, statistic sampling noise
			// grows with |change|, so assert tightly only there.
			if p.ChangePct >= -2 && p.ChangePct <= 2 && p.Agreement < 0.9 {
				t.Errorf("%s %+d%%: agreement %g below 90%% — approximation broken",
					s.Dataset, p.ChangePct, p.Agreement)
			}
			if p.Agreement < 0.5 {
				t.Errorf("%s %+d%%: agreement %g collapsed", s.Dataset, p.ChangePct, p.Agreement)
			}
		}
	}
	_ = r.Render()
}

func TestMemCost(t *testing.T) {
	r, err := MemCost(tiny())
	if err != nil {
		t.Fatal(err)
	}
	registered := 0
	for _, row := range r.Rows {
		if row.CheckpointH <= 0 || row.RatioH <= 0 {
			t.Errorf("%s: degenerate memory numbers %+v", row.Dataset, row)
		}
		if row.MeasuredH < 0 || row.MeasuredH32 < 0 {
			t.Errorf("%s: negative resident measurement %+v", row.Dataset, row)
		}
		if row.MeasuredH > 0 {
			registered++
		}
		if row.CheckpointH32 < row.CheckpointH && r.Hidden <= 32 {
			t.Errorf("%s: width-32 checkpoint smaller than width-%d", row.Dataset, r.Hidden)
		}
	}
	// Heap-in-use deltas are span-granular and GC can reuse freed spans, so
	// individual rows may legitimately read 0 at test scale — but a run where
	// no checkpoint registered any resident growth means the probe is broken.
	if registered == 0 {
		t.Error("no dataset registered resident growth for its checkpoint")
	}
	if !strings.Contains(r.Render(), "resident") {
		t.Error("render missing the measured resident column")
	}
}

func TestFig9TrainedSmallDelta(t *testing.T) {
	cfg := tiny()
	cfg.ExtraScale = 16
	r, err := Fig9Trained(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.AccExact < 0.5 || p.AccFrozen < 0.5 {
				t.Errorf("%s %+d%%: model failed to learn (exact %.2f frozen %.2f)",
					s.Dataset, p.ChangePct, p.AccExact, p.AccFrozen)
			}
			d := p.AccExact - p.AccFrozen
			if d < 0 {
				d = -d
			}
			// The paper's claim in its operating regime (<= 2% churn):
			// negligible accuracy difference. Allow slack at toy scale.
			if p.ChangePct >= -2 && p.ChangePct <= 2 && d > 0.05 {
				t.Errorf("%s %+d%%: accuracy delta %.3f too large", s.Dataset, p.ChangePct, d)
			}
		}
	}
	_ = r.Render()
}

func TestRunnerRegistry(t *testing.T) {
	if len(Names()) != 11 {
		t.Errorf("registry size = %d", len(Names()))
	}
	if _, err := Run("nope", tiny()); err == nil {
		t.Error("unknown id accepted")
	}
	res, err := Run("memcost", tiny())
	if err != nil || res.Render() == "" {
		t.Errorf("Run(memcost): %v", err)
	}
}

// TestDesignIndexMatchesRegistry keeps DESIGN.md §3 and the registry in
// step: the backticked ids in the first column of the per-experiment index
// are exactly the registered experiments.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var ids []string
	for _, line := range strings.Split(section, "\n") {
		if id, ok := strings.CutPrefix(line, "| `"); ok {
			id, _, _ = strings.Cut(id, "`")
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	if got, want := strings.Join(ids, " "), strings.Join(Names(), " "); got != want {
		t.Errorf("DESIGN.md §3 indexes [%s], the registry holds [%s]", got, want)
	}
}

// TestReadmeIdsMatchRegistry keeps README's "What is reproduced where" id
// list and the inkbench command's doc-comment id list in step with the
// registry.
func TestReadmeIdsMatchRegistry(t *testing.T) {
	want := strings.Join(Names(), " ")
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### What is reproduced where\n")
	if !ok {
		t.Fatal(`README.md has no "What is reproduced where" section`)
	}
	_, list, ok := strings.Cut(section, "(`inkbench <id>`): `")
	if !ok {
		t.Fatal("README.md's section does not list the `inkbench <id>` ids")
	}
	list, _, _ = strings.Cut(list, "`")
	ids := strings.Fields(list)
	sort.Strings(ids)
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("README.md lists [%s], the registry holds [%s]", got, want)
	}

	src, err := os.ReadFile("../../cmd/inkbench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok = strings.Cut(string(src), "\n// Experiments: ")
	if !ok {
		t.Fatal("cmd/inkbench/main.go's doc comment has no Experiments: list")
	}
	list, _, _ = strings.Cut(list, " — ")
	ids = strings.Fields(strings.ReplaceAll(list, "//", ""))
	sort.Strings(ids)
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("cmd/inkbench's doc comment lists [%s], the registry holds [%s]", got, want)
	}
}

// TestDesignSectionReferences: every DESIGN.md section reference names a
// heading DESIGN.md has — §N a "## N." section, §N.M a "### N.M" one — so
// folding or renumbering a section cannot leave a reference pointing at
// nothing. Sources, scripts and documents are searched for "DESIGN.md §…";
// in .go files and DESIGN.md itself every § is a DESIGN.md reference, so a
// bare one counts too (a comment may wrap "DESIGN.md" and its § onto two
// lines). CHANGES.md, ROADMAP.md and the planning notes in the skip list
// narrate earlier states of the document; they are not checked. Likewise
// every backticked Test*/Benchmark*/Fuzz* name in DESIGN.md and README.md
// must be a function in some _test.go file, so renaming or deleting a test
// cannot leave a citation pointing at nothing.
func TestDesignSectionReferences(t *testing.T) {
	const root = "../.."
	design := filepath.Join(root, "DESIGN.md")
	doc, err := os.ReadFile(design)
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^(?:## (\d+)\.|### (\d+\.\d+)) `).FindAllStringSubmatch(string(doc), -1) {
		sections[m[1]+m[2]] = true
	}
	if !sections["1"] || !sections["6.1"] {
		t.Fatalf("DESIGN.md headings not parsed: %v", sections)
	}
	cited := regexp.MustCompile(`DESIGN\.md §(\d+(?:\.\d+)?)`)
	bare := regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
	skip := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	defined := make(map[string]bool)
	refs := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		ref := cited
		switch filepath.Ext(path) {
		case ".go":
			ref = bare
		case ".sh", ".md":
			if path == design {
				ref = bare
			}
		default:
			return nil
		}
		if skip[d.Name()] && filepath.Dir(path) == root {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(string(text), -1) {
				defined[m[1]] = true
			}
		}
		for _, m := range ref.FindAllStringSubmatch(string(text), -1) {
			refs++
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which is not a DESIGN.md heading", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Error("found no DESIGN.md section reference at all: the pattern or the walk is broken")
	}

	span := regexp.MustCompile("`[^`\n]+`")
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	cites := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(string(text), -1) {
			for _, n := range name.FindAllString(s, -1) {
				cites++
				if !defined[n] {
					t.Errorf("%s cites `%s`, which is no function in any _test.go file", doc, n)
				}
			}
		}
	}
	if cites == 0 {
		t.Error("found no backticked test name in DESIGN.md or README.md: the pattern is broken")
	}
}

// TestInventoriesMatchTree keeps the two module inventories in step with the
// tree. The backticked internal/*, cmd/* and examples/* paths in the first
// column of DESIGN.md §2's table are exactly the directories under those
// roots that hold .go files. README.md's layout block lists the same
// internal/* packages, commands and examples, and its table runs
// (`go run ./examples/…`) the same examples. A deleted package's row, or a
// package added without one, fails here.
func TestInventoriesMatchTree(t *testing.T) {
	const root = "../.."
	tree := make(map[string][]string) // "internal" → its package dirs
	var all []string
	for _, parent := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			if gofiles, _ := filepath.Glob(filepath.Join(root, parent, e.Name(), "*.go")); len(gofiles) > 0 {
				tree[parent] = append(tree[parent], e.Name())
				all = append(all, parent+"/"+e.Name())
			}
		}
	}
	same := func(what string, got, want []string) {
		t.Helper()
		count := make(map[string]int)
		for _, g := range got {
			count[g]++
		}
		for _, w := range want {
			count[w]--
		}
		names := make([]string, 0, len(count))
		for name := range count {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if c := count[name]; c > 0 {
				t.Errorf("%s %s, which is not in the tree", what, name)
			} else if c < 0 {
				t.Errorf("%s no %s, which the tree holds", what, name)
			}
		}
	}

	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 2. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 2")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	path := regexp.MustCompile("`((?:internal|cmd|examples)/[^`]+)`")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first, _, _ := strings.Cut(line[1:], " | ")
		for _, m := range path.FindAllStringSubmatch(first, -1) {
			rows = append(rows, m[1])
		}
	}
	same("DESIGN.md §2 inventories", rows, all)

	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, layout, ok := strings.Cut(string(readme), "\n## Architecture\n\n```\n")
	if !ok {
		t.Fatal("README.md has no layout block under ## Architecture")
	}
	layout, _, _ = strings.Cut(layout, "```")
	listed := make(map[string][]string)
	for _, line := range strings.Split(layout, "\n") {
		head, rest, _ := strings.Cut(line, " ")
		switch {
		case strings.HasPrefix(head, "internal/"):
			listed["internal"] = append(listed["internal"], strings.TrimPrefix(head, "internal/"))
		case head == "cmd/" || head == "examples/":
			parent := strings.TrimSuffix(head, "/")
			for _, name := range strings.Split(rest, ",") {
				listed[parent] = append(listed[parent], strings.TrimSpace(name))
			}
		}
	}
	for _, parent := range []string{"internal", "cmd", "examples"} {
		same("README.md's layout block lists "+parent+"/", listed[parent], tree[parent])
	}

	var run []string
	for _, m := range regexp.MustCompile("`go run \\./examples/(\\w+)`").FindAllStringSubmatch(string(readme), -1) {
		run = append(run, m[1])
	}
	same("README.md's table runs examples", run, tree["examples"])
}
