// Command inkstat prints structural statistics of a dataset profile or a
// saved snapshot: size, degree distribution and k-hop neighborhood growth
// — the quantities that drive InkStream's affected-area behaviour. With
// -watch it instead polls a running inkserve's /metrics endpoint and
// prints a one-line rolling serving summary per interval; with -postmortem
// it renders a captured incident bundle offline (no live server needed).
//
// Usage:
//
//	inkstat -dataset Cora
//	inkstat -file cora.inks -khop 3
//	inkstat -watch http://localhost:8080 -interval 2s
//	inkstat -postmortem /var/lib/inkstream/blackbox
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "inkstat:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("inkstat", flag.ContinueOnError)
	var (
		name  = fs.String("dataset", "", "dataset profile to generate and inspect")
		file  = fs.String("file", "", "saved snapshot to inspect (alternative to -dataset)")
		scale = fs.Int64("scale", 1, "extra down-scaling factor with -dataset")
		seed  = fs.Int64("seed", 1, "generator/sampling seed")
		khop  = fs.Int("khop", 4, "report k-hop neighborhood sizes up to this k")
		probe = fs.Int("probes", 20, "random seed vertices for the k-hop report")

		watch    = fs.String("watch", "", "inkserve base URL to poll for a rolling /metrics summary (alternative to -dataset/-file)")
		interval = fs.Duration("interval", 2*time.Second, "polling interval with -watch")
		samples  = fs.Int("samples", 0, "stop after this many -watch lines (0 runs forever)")

		postmortem = fs.String("postmortem", "", "incident bundle (or dump root) to render offline (alternative to -watch)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *postmortem != "" {
		return renderPostmortem(os.Stdout, *postmortem)
	}
	if *watch != "" {
		return watchLoop(os.Stdout, *watch, *interval, *samples)
	}
	var g *graph.Graph
	switch {
	case *file != "":
		var err error
		g, _, err = dataset.LoadFile(*file)
		if err != nil {
			return err
		}
		fmt.Printf("snapshot %s\n", *file)
	case *name != "":
		spec, err := dataset.ByName(*name)
		if err == nil {
			spec, err = spec.Scaled(*scale)
		}
		if err != nil {
			return err
		}
		g, _ = dataset.Generate(spec, *seed)
		fmt.Println(spec)
	default:
		fs.Usage()
		return fmt.Errorf("one of -dataset or -file is required")
	}

	n := g.NumNodes()
	fmt.Printf("nodes: %d  edges: %d  avg degree: %.2f  max in-degree: %d\n",
		n, g.NumEdges(), float64(g.NumArcs())/float64(n), g.MaxInDegree())

	// Degree distribution percentiles.
	degs := make([]int, n)
	for u := range degs {
		degs[u] = g.InDegree(graph.NodeID(u))
	}
	sort.Ints(degs)
	fmt.Printf("in-degree percentiles: p50=%d p90=%d p99=%d max=%d\n",
		degs[n/2], degs[n*9/10], degs[n*99/100], degs[n-1])

	// Structure beyond degrees: connectivity, clustering and distance
	// scales — the properties that govern affected-area growth.
	rng := rand.New(rand.NewSource(*seed))
	_, sizes := graph.Components(g)
	fmt.Printf("components: %d (largest %d = %.1f%% of graph)\n",
		len(sizes), sizes[0], 100*float64(sizes[0])/float64(n))
	fmt.Printf("clustering coefficient (sampled): %.3f\n",
		graph.ClusteringCoefficient(g, rng, 200))
	fmt.Printf("effective diameter (sampled 90th pct): %d\n",
		graph.EffectiveDiameter(g, rng, 8))

	// k-hop growth from random probes: the theoretical affected area of a
	// single changed edge for a (k+1)-layer GNN.
	for k := 1; k <= *khop; k++ {
		var sum float64
		for p := 0; p < *probe; p++ {
			u := graph.NodeID(rng.Intn(n))
			r := graph.KHopOut(g, []graph.NodeID{u}, k)
			sum += float64(r.Size())
		}
		mean := sum / float64(*probe)
		fmt.Printf("%d-hop neighborhood: mean %.0f nodes (%.2f%% of graph)\n",
			k, mean, 100*mean/float64(n))
	}
	return nil
}
