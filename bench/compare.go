package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

// host is the fingerprint two results must share to be comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// WALFS is the filesystem type of the directory the WALs are written
	// to. fsync on tmpfs is free, so a result taken there says nothing about
	// the journal.
	WALFS string `json:"wal_fs"`
}

// tmpfsMagic is statfs's f_type for tmpfs, the one filesystem the suite
// warns about; every other type is recorded as its magic number.
const tmpfsMagic = 0x01021994

func hostFingerprint(walDir string) (host, error) {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return h, err
	}
	h.Kernel = strings.TrimSpace(string(b))
	var st syscall.Statfs_t
	if err := syscall.Statfs(walDir, &st); err != nil {
		return h, err
	}
	h.WALFS = fmt.Sprintf("0x%x", st.Type)
	if st.Type == tmpfsMagic {
		h.WALFS = "tmpfs"
	}
	return h, nil
}

// suiteResult is the document `bench suite` writes and `bench compare`
// reads: every workload's end-to-end and per-layer metrics from one seed.
type suiteResult struct {
	Schema    string                    `json:"schema"`
	Seed      int64                     `json:"seed"`
	Seconds   int                       `json:"seconds"`
	Host      host                      `json:"host"`
	Workloads map[string]workloadResult `json:"workloads"`
	// Claim is null: the suite states measurements, never a gain.
	Claim *string `json:"claim"`
}

type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Errors    []string          `json:"errors,omitempty"`
}

const suiteSchema = "inkstream-bench/1"

// suiteCmd runs every workload, untraced and traced, and writes one
// document. It fails when any workload is not correct.
func suiteCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench suite", flag.ContinueOnError)
	var c commonFlags
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if c.out == "" {
		return fmt.Errorf("suite needs -out FILE")
	}
	r, err := c.runner()
	if err != nil {
		return err
	}
	doc := suiteResult{Schema: suiteSchema, Seed: c.seed, Seconds: c.seconds, Workloads: make(map[string]workloadResult)}
	if doc.Host, err = hostFingerprint(r.buildDir); err != nil {
		return err
	}
	if doc.Host.WALFS == "tmpfs" {
		fmt.Fprintln(os.Stderr, "bench: warning: WALs are on tmpfs, where fsync is free; journal numbers are not meaningful")
	}
	incorrect := 0
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s …\n", w.name)
		e2e, err := r.run(ctx, w, c.seed, c.seconds, false)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		layers, err := r.run(ctx, w, c.seed, c.seconds, true)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.name, err)
		}
		wr := workloadResult{
			Correct:   e2e.Correct && layers.Correct,
			Attempted: e2e.Attempted + layers.Attempted,
			Failed:    e2e.Failed + layers.Failed,
			EndToEnd:  e2e.Metrics,
			PerLayer:  layers.Metrics,
			Errors:    append(e2e.errs, layers.errs...),
		}
		if !wr.Correct {
			incorrect++
		}
		doc.Workloads[w.name] = wr
	}
	if err := writeJSONFile(c.out, doc); err != nil {
		return err
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workloads failed their correctness checks; see %s", incorrect, c.out)
	}
	return nil
}

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareCmd prints, per end-to-end metric and workload, both values, the
// relative difference of B from A, the bound and a verdict. It fails when B
// is worse than A by more than a bound of the checkout's BENCHMARK.json, and
// refuses results from different hosts, seeds, run lengths or metric sets.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare A.json B.json")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := readJSONFile(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		return err
	}
	var a, b suiteResult
	if err := readJSONFile(args[0], &a); err != nil {
		return err
	}
	if err := readJSONFile(args[1], &b); err != nil {
		return err
	}
	worse, err := compare(os.Stdout, spec, a, b)
	if err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics are worse by more than their bound", worse)
	}
	return nil
}

func compare(out io.Writer, spec benchmarkSpec, a, b suiteResult) (worse int, err error) {
	if a.Schema != suiteSchema || b.Schema != suiteSchema {
		return 0, fmt.Errorf("not %s results (schemas %q and %q)", suiteSchema, a.Schema, b.Schema)
	}
	if a.Host != b.Host {
		return 0, fmt.Errorf("results come from different hosts and cannot be compared:\n  A: %+v\n  B: %+v", a.Host, b.Host)
	}
	if a.Seconds != b.Seconds {
		return 0, fmt.Errorf("results measured for %d and %d seconds cannot be compared", a.Seconds, b.Seconds)
	}
	if a.Seed != b.Seed {
		return 0, fmt.Errorf("results from seeds %d and %d ran different graphs and streams and cannot be compared", a.Seed, b.Seed)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tdiff\tbound\tverdict")
	for _, w := range workloads {
		wa, okA := a.Workloads[w.name]
		wb, okB := b.Workloads[w.name]
		if !okA || !okB {
			return 0, fmt.Errorf("workload %s is missing from a result", w.name)
		}
		if !wa.Correct || !wb.Correct {
			return 0, fmt.Errorf("workload %s failed its correctness checks; its numbers mean nothing", w.name)
		}
		for _, m := range spec.EndToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				return 0, fmt.Errorf("workload %s: metric %s is missing from a result; it was taken against another metric set", w.name, m.Name)
			}
			// Positive diff = B is worse.
			diff := ratio(vb.Value-va.Value, va.Value)
			if m.Better == "higher" {
				diff = -diff
			}
			verdict := "ok"
			if diff > m.Bound {
				verdict = "WORSE"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				w.name, m.Name, va.Value, vb.Value, va.Unit, 100*diff, 100*m.Bound, verdict)
		}
	}
	return worse, tw.Flush()
}
