// Command bench is the repository's one benchmark: it builds the shipping
// inkserve binary, runs it as a child process, drives it over loopback HTTP
// with a seeded stream, checks the served embeddings against full inference
// and prints every metric by name and unit. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//	bench suite --seed N --seconds S --out FILE
//	bench compare A.json B.json
//
// bench/run.sh builds and runs it from a checkout with every build output
// inside the checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	// A signal cancels the run, so deferred clean-up (killing the child's
	// process group, removing the run directory) happens before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := dispatch(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "suite":
			return suiteCmd(ctx, args[1:])
		case "compare":
			return compareCmd(args[1:])
		}
	}
	return runCmd(ctx, args)
}

// findRoot locates the checkout: the working directory when run through
// run.sh, its parent when run as `go run .` from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(dir + "/cmd/inkserve"); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no ./cmd/inkserve here or in the parent directory: run from the checkout's root or from bench/")
}

// commonFlags are shared by the single-run and suite commands.
type commonFlags struct {
	seed    int64
	seconds int
	out     string
}

func (c *commonFlags) register(fs *flag.FlagSet) {
	fs.Int64Var(&c.seed, "seed", 1, "seed of the generated graph, features and request stream")
	fs.IntVar(&c.seconds, "seconds", 20, "measured seconds per run")
	fs.StringVar(&c.out, "out", "", "also write the full result, with failure detail and spans, to this file")
}

func (c *commonFlags) runner() (*runner, error) {
	if c.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	return newRunner(root)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runCmd runs one workload and prints its result as the last line of
// standard output. It fails when the run is not correct.
func runCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var c commonFlags
	c.register(fs)
	name := fs.String("workload", "", "workload to run (see README.md)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics on shipping defaults; 1: per-layer metrics from a traced run and the layer probe")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	r, err := c.runner()
	if err != nil {
		return err
	}
	res, err := r.run(ctx, w, c.seed, c.seconds, *trace != 0)
	if err != nil {
		return err
	}
	if c.out != "" {
		detail := struct {
			*result
			Errors []string     `json:"errors,omitempty"`
			Spans  *serverSpans `json:"spans,omitempty"`
		}{res, res.errs, res.spans}
		if err := writeJSONFile(c.out, detail); err != nil {
			return err
		}
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "bench: check failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("workload %s: %d of %d operations failed, %d checks failed", w.name, res.Failed, res.Attempted, len(res.errs))
	}
	return nil
}
