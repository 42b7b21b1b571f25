// Package experiments regenerates every table and figure of the paper's
// evaluation section (Sec. III), and only those: serving performance is
// measured by bench/ through the shipping inkserve binary. Each experiment
// has a driver returning a typed result with a Render method that prints
// the same rows/series the paper reports; cmd/inkbench and the
// repository-root benchmarks are thin wrappers over these drivers.
//
// Absolute numbers differ from the paper (CPU-only Go engine on scaled
// synthetic datasets, see DESIGN.md §1); the experiments reproduce the
// paper's *shape*: method ordering, speedup trends versus ΔG, condition
// distributions and reduction percentages.
package experiments

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Config controls the scale of every experiment.
type Config struct {
	// Datasets selects the dataset profiles; defaults to dataset.All.
	Datasets []dataset.Spec
	// Seed drives graph generation, weights and ΔG scenarios.
	Seed int64
	// ExtraScale further divides every dataset's node/edge counts (>= 1);
	// used by tests and CI-speed benchmark runs.
	ExtraScale int
	// Hidden is the hidden-state dimension for GCN/GraphSAGE (the paper
	// uses 256); GIN uses Hidden/2 (the paper's 64 vs 256 ratio).
	Hidden int
	// Scenarios caps the number of graph-changing scenarios averaged per
	// measurement (the paper uses 100/100/10/10/1 for ΔG=1/10/100/1k/10k).
	Scenarios int
	// GINLayers is the GIN depth (paper: 5).
	GINLayers int
}

// Default returns the standard configuration used by cmd/inkbench.
func Default() Config {
	return Config{
		Datasets:   dataset.All,
		Seed:       1,
		ExtraScale: 1,
		Hidden:     32,
		Scenarios:  3,
		GINLayers:  5,
	}
}

// Quick returns a heavily scaled-down configuration for tests and fast
// benchmark runs.
func Quick() Config {
	c := Default()
	c.ExtraScale = 16
	c.Hidden = 16
	c.Scenarios = 2
	c.GINLayers = 3
	return c
}

func (c Config) normalize() Config {
	if len(c.Datasets) == 0 {
		c.Datasets = dataset.All
	}
	if c.ExtraScale < 1 {
		c.ExtraScale = 1
	}
	if c.Hidden < 4 {
		c.Hidden = 4
	}
	if c.Scenarios < 1 {
		c.Scenarios = 1
	}
	if c.GINLayers < 2 {
		c.GINLayers = 2
	}
	return c
}

// scenariosFor returns the number of scenarios averaged for a given ΔG,
// scaling the paper's 100/100/10/10/1 schedule down to the configured cap.
func (c Config) scenariosFor(deltaG int) int {
	paper := 1
	switch {
	case deltaG <= 10:
		paper = 100
	case deltaG <= 100:
		paper = 10
	case deltaG <= 1000:
		paper = 10
	}
	if paper > c.Scenarios {
		return c.Scenarios
	}
	return paper
}

// instance is one generated dataset ready for experiments.
type instance struct {
	Spec dataset.Spec
	G    *graph.Graph
	X    *tensor.Matrix
}

// build generates the scaled graph and features for spec.
func (c Config) build(spec dataset.Spec) instance {
	spec.Scale *= int64(c.ExtraScale)
	if spec.Nodes() < 64 {
		// Keep tiny test-scale graphs meaningful.
		spec.Scale = spec.PaperNodes / 64
		if spec.Scale < 1 {
			spec.Scale = 1
		}
	}
	g, f := dataset.Generate(spec, c.Seed)
	return instance{Spec: spec, G: g, X: f.X}
}

// modelKind names the three benchmark models.
type modelKind string

const (
	modelGCN  modelKind = "GCN"
	modelSAGE modelKind = "GraphSAGE"
	modelGIN  modelKind = "GIN"
)

// model builds one benchmark model with the requested aggregation function
// and deterministic weights.
func (c Config) model(kind modelKind, featLen int, agg gnn.AggKind) *gnn.Model {
	rng := rand.New(rand.NewSource(c.Seed + 1000))
	a := gnn.NewAggregator(agg)
	switch kind {
	case modelGCN:
		return gnn.NewGCN(rng, featLen, c.Hidden, a)
	case modelSAGE:
		return gnn.NewSAGE(rng, featLen, c.Hidden, a)
	case modelGIN:
		h := c.Hidden / 2
		if h < 4 {
			h = 4
		}
		return gnn.NewGIN(rng, featLen, h, c.GINLayers, a)
	}
	panic("experiments: unknown model " + string(kind))
}

// deltaGFor returns the paper's default ΔG per model: 100 for the 2-layer
// models, 1 for the 5-layer GIN.
func deltaGFor(kind modelKind) int {
	if kind == modelGIN {
		return 1
	}
	return 100
}

// measured couples a duration with the counters it accumulated.
type measured struct {
	Time  time.Duration
	Snap  metrics.Snapshot
	Stats inkstream.ConditionStats
	OOM   bool
}

// avg averages a slice of measurements.
func avg(ms []measured) measured {
	if len(ms) == 0 {
		return measured{}
	}
	var out measured
	for _, m := range ms {
		out.Time += m.Time
		out.Snap = out.Snap.Add(m.Snap)
		out.Stats.Merge(&m.Stats)
		out.OOM = out.OOM || m.OOM
	}
	out.Time /= time.Duration(len(ms))
	n := int64(len(ms))
	out.Snap.BytesFetched /= n
	out.Snap.BytesWritten /= n
	out.Snap.FLOPs /= n
	out.Snap.NodesVisited /= n
	out.Snap.EventsProcessed /= n
	return out
}

// scenarios draws n independent ΔG batches against g (each validated on
// the *same* pre-state; scenarios are alternatives, not a sequence).
func (c Config) scenarioDeltas(g *graph.Graph, deltaG, n int) []graph.Delta {
	rng := rand.New(rand.NewSource(c.Seed + 77))
	out := make([]graph.Delta, n)
	for i := range out {
		out[i] = graph.RandomDelta(rng, g, deltaG)
	}
	return out
}

// runInk times one InkStream update on a fresh engine clone.
func runInk(model *gnn.Model, inst instance, base *gnn.State, delta graph.Delta, opts inkstream.Options) (measured, error) {
	var c metrics.Counters
	eng, err := inkstream.NewFromState(model, inst.G.Clone(), base.Clone(), &c, opts)
	if err != nil {
		return measured{}, err
	}
	var uerr error
	d := metrics.Time(func() { uerr = eng.Update(append(graph.Delta(nil), delta...)) })
	if uerr != nil {
		return measured{}, uerr
	}
	return measured{Time: d, Snap: c.Snapshot(), Stats: *eng.Stats()}, nil
}

// runKHop times one k-hop update on a freshly bootstrapped baseline.
func runKHop(model *gnn.Model, inst instance, delta graph.Delta) (measured, *baseline.KHop, error) {
	var c metrics.Counters
	kh, err := baseline.NewKHop(model, inst.G.Clone(), inst.X, &c)
	if err != nil {
		return measured{}, nil, err
	}
	var uerr error
	d := metrics.Time(func() { uerr = kh.Update(append(graph.Delta(nil), delta...)) })
	if uerr != nil {
		return measured{}, nil, uerr
	}
	return measured{Time: d, Snap: c.Snapshot()}, kh, nil
}

// runFull times the PyG-like baseline on the post-delta snapshot.
func runFull(model *gnn.Model, inst instance, delta graph.Delta, fanout int, seed int64) (measured, error) {
	g := inst.G.Clone()
	if err := delta.Apply(g); err != nil {
		return measured{}, err
	}
	var c metrics.Counters
	f := &baseline.Full{Model: model, Fanout: fanout, Seed: seed, C: &c}
	var ierr error
	d := metrics.Time(func() { _, ierr = f.Infer(g, inst.X) })
	if ierr != nil {
		return measured{}, ierr
	}
	return measured{Time: d, Snap: c.Snapshot()}, nil
}

// runFused times the Graphiler stand-in on the post-delta snapshot; an OOM
// is reported, not an error.
func runFused(model *gnn.Model, inst instance, delta graph.Delta, memLimit int64) (measured, error) {
	g := inst.G.Clone()
	if err := delta.Apply(g); err != nil {
		return measured{}, err
	}
	var c metrics.Counters
	f := &baseline.Fused{Model: model, MemLimit: memLimit, C: &c}
	var ierr error
	d := metrics.Time(func() { _, ierr = f.Infer(g, inst.X) })
	if ierr != nil {
		if isOOM(ierr) {
			return measured{OOM: true}, nil
		}
		return measured{}, ierr
	}
	return measured{Time: d, Snap: c.Snapshot()}, nil
}

func isOOM(err error) bool { return errors.Is(err, baseline.ErrOOM) }
