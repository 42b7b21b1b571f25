// Command inkbench regenerates the paper's tables and figures.
//
// Usage:
//
//	inkbench [flags] <experiment>...
//	inkbench -list
//	inkbench all
//
// Experiments: fig1a fig1b fig4 table4 table5 table6 fig7 fig8 fig9 fig9t
// memcost — the paper's evaluation artifacts and nothing else; serving is
// measured by bench/ through the shipping inkserve binary.
// Output is a text rendering of the corresponding paper artifact; see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "inkbench:", err)
		os.Exit(1)
	}
}

// invocation is one parsed command line: the experiments to run and the
// configuration they run at, or the request to list them.
type invocation struct {
	list              bool
	ids               []string
	cfg               experiments.Config
	outPath, profPath string
}

// parse reads a command line. The configuration is experiments.Default, or
// experiments.Quick under -quick, with each size flag applied only when it
// was given, so -quick keeps Quick's sizes unless a flag overrides one.
func parse(args []string) (*invocation, error) {
	def := experiments.Default()
	fs := flag.NewFlagSet("inkbench", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list available experiments and exit")
		quick     = fs.Bool("quick", false, "use the heavily scaled-down quick configuration")
		seed      = fs.Int64("seed", def.Seed, "random seed for graphs, weights and scenarios")
		scale     = fs.Int("scale", 1, "extra down-scaling factor applied to every dataset")
		hidden    = fs.Int("hidden", def.Hidden, "hidden-state dimension for GCN/GraphSAGE (GIN uses half)")
		scenarios = fs.Int("scenarios", def.Scenarios, "max graph-changing scenarios averaged per point")
		ginLayers = fs.Int("gin-layers", def.GINLayers, "GIN depth")
		datasets  = fs.String("datasets", "", "comma-separated dataset names or abbreviations (default: all six)")
		outPath   = fs.String("out", "", "also append renderings to this file")
		profPath  = fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: inkbench [flags] <experiment>...\n\nexperiments: %s, all\n\nflags:\n",
			strings.Join(experiments.Names(), ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *list {
		return &invocation{list: true}, nil
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fs.Usage()
		return nil, fmt.Errorf("no experiment given")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.Names()
	}

	// Refuse what Config would otherwise clamp, so a run is never silently
	// another size than the one asked for.
	switch {
	case *scale < 1:
		return nil, fmt.Errorf("-scale %d: need a down-scaling factor of at least 1", *scale)
	case *hidden < 4:
		return nil, fmt.Errorf("-hidden %d: need a hidden dimension of at least 4", *hidden)
	case *scenarios < 1:
		return nil, fmt.Errorf("-scenarios %d: need at least 1 scenario", *scenarios)
	case *ginLayers < 2:
		return nil, fmt.Errorf("-gin-layers %d: need a GIN depth of at least 2", *ginLayers)
	}

	cfg := def
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.ExtraScale *= *scale
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			cfg.Seed = *seed
		case "hidden":
			cfg.Hidden = *hidden
		case "scenarios":
			cfg.Scenarios = *scenarios
		case "gin-layers":
			cfg.GINLayers = *ginLayers
		}
	})
	if *datasets != "" {
		cfg.Datasets = nil
		for _, name := range strings.Split(*datasets, ",") {
			spec, err := dataset.ByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			cfg.Datasets = append(cfg.Datasets, spec)
		}
	}
	return &invocation{ids: ids, cfg: cfg, outPath: *outPath, profPath: *profPath}, nil
}

func run(args []string) error {
	inv, err := parse(args)
	if err != nil {
		return err
	}
	if inv.list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return nil
	}

	var sink *os.File
	if inv.outPath != "" {
		var err error
		sink, err = os.OpenFile(inv.outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer sink.Close()
	}
	if inv.profPath != "" {
		f, err := os.Create(inv.profPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	for _, id := range inv.ids {
		t0 := time.Now()
		res, err := experiments.Run(id, inv.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		rendering := res.Render()
		fmt.Println(rendering)
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(t0).Round(time.Millisecond))
		if sink != nil {
			if _, err := fmt.Fprintf(sink, "%s\n", rendering); err != nil {
				return err
			}
		}
	}
	return nil
}
