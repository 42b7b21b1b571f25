package repro

// One benchmark per table and figure of the paper's evaluation section,
// plus micro-benchmarks for the hot kernels.
//
// The experiment benchmarks run the corresponding driver at a reduced
// scale (Quick configuration with the two small datasets unless the
// artifact requires others) so `go test -bench=.` completes in minutes;
// run `cmd/inkbench` for full-scale renderings.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/tensor"
)

func benchConfig() experiments.Config {
	c := experiments.Quick()
	c.Datasets = []dataset.Spec{dataset.PubMed, dataset.Cora}
	c.ExtraScale = 8
	c.Scenarios = 1
	c.GINLayers = 3
	return c
}

func runExperiment(b *testing.B, id string, cfg experiments.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Render() == "" {
			b.Fatal("empty rendering")
		}
	}
}

// BenchmarkFig1a regenerates Fig. 1a (theoretical affected area vs ΔG, k).
func BenchmarkFig1a(b *testing.B) { runExperiment(b, "fig1a", benchConfig()) }

// BenchmarkFig1b regenerates Fig. 1b (real vs theoretical affected area).
func BenchmarkFig1b(b *testing.B) {
	cfg := benchConfig()
	cfg.ExtraScale = 32 // fig1b always uses Cora, Yelp and papers100M
	runExperiment(b, "fig1b", cfg)
}

// BenchmarkFig4 regenerates the Fig. 4 grouping ablation (recomputes and
// bytes fetched with and without event grouping).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4", benchConfig()) }

// BenchmarkTable4 regenerates Table IV (inference-time comparison of the
// five methods over three models).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4", benchConfig()) }

// BenchmarkTable5 regenerates Table V (visited-node and memory-cost
// reductions vs the k-hop baseline).
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5", benchConfig()) }

// BenchmarkTable6 regenerates Table VI (component ablation).
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6", benchConfig()) }

// BenchmarkFig7 regenerates Fig. 7 (speedup vs ΔG).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7", benchConfig()) }

// BenchmarkFig8 regenerates Fig. 8 (evolvable-condition distribution).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8", benchConfig()) }

// BenchmarkFig9 regenerates Fig. 9 (GraphNorm approximation fidelity).
func BenchmarkFig9(b *testing.B) {
	cfg := benchConfig()
	cfg.ExtraScale = 16
	runExperiment(b, "fig9", cfg)
}

// BenchmarkFig9Trained regenerates the trained-model variant of Fig. 9
// (test accuracy of exact vs frozen GraphNorm on an SBM task).
func BenchmarkFig9Trained(b *testing.B) {
	cfg := benchConfig()
	cfg.ExtraScale = 16
	runExperiment(b, "fig9t", cfg)
}

// BenchmarkMemCost regenerates the Sec. III-E checkpoint-memory analysis.
func BenchmarkMemCost(b *testing.B) { runExperiment(b, "memcost", benchConfig()) }

// ---------------------------------------------------------------------------
// Kernel micro-benchmarks.

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	// Square shapes plus the tall, skinny shapes of batched GNN inference
	// (n nodes × feature dims); see also BenchmarkGEMMKernel in
	// internal/tensor and BenchmarkInferLayer in internal/gnn.
	for _, sh := range [][3]int{
		{64, 64, 64}, {256, 256, 256},
		{2048, 32, 32}, {2048, 256, 256}, {5000, 32, 32},
	} {
		x := tensor.RandMatrix(rng, sh[0], sh[1], 1)
		y := tensor.RandMatrix(rng, sh[1], sh[2], 1)
		z := tensor.NewMatrix(sh[0], sh[2])
		b.Run(fmt.Sprintf("seq/%dx%dx%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMul(z, x, y)
			}
		})
		b.Run(fmt.Sprintf("par/%dx%dx%d", sh[0], sh[1], sh[2]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.ParallelMatMul(z, x, y)
			}
		})
	}
}
