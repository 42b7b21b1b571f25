// Command inkgen generates synthetic dataset snapshots (and optional edge
// streams) for the six benchmark profiles and writes them in the binary
// format of package dataset.
//
// Usage:
//
//	inkgen -dataset Cora -out cora.inks
//	inkgen -dataset YP -scale 4 -seed 7 -out yelp.inks
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "inkgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("inkgen", flag.ContinueOnError)
	var (
		name    = fs.String("dataset", "", "dataset name or abbreviation (PM, CA, YP, RD, PD, PP)")
		out     = fs.String("out", "", "output snapshot path")
		scale   = fs.Int64("scale", 1, "extra down-scaling factor")
		seed    = fs.Int64("seed", 1, "generator seed")
		batches = fs.Int("stream", 0, "also print a dynamic stream with this many batches")
		deltaG  = fs.Int("deltag", 100, "changed edges per stream batch")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("-dataset and -out are required")
	}
	spec, err := dataset.ByName(*name)
	if err == nil {
		spec, err = spec.Scaled(*scale)
	}
	if err != nil {
		return err
	}
	g, f := dataset.Generate(spec, *seed)
	fmt.Printf("generated %s\n", spec)
	if err := dataset.SaveFile(*out, g, f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)

	if *batches > 0 {
		stream := graph.GenerateStream(g, graph.StreamConfig{
			BatchSize:  *deltaG,
			NumBatches: *batches,
			Seed:       *seed + 1,
		})
		for i, b := range stream.Batches {
			ins, dels := 0, 0
			for _, c := range b {
				if c.Insert {
					ins++
				} else {
					dels++
				}
			}
			fmt.Printf("batch %d: %d insertions, %d deletions\n", i, ins, dels)
		}
	}
	return nil
}
