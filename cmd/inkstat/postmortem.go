package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// renderPostmortem prints an incident bundle without a live server: the
// trigger and deployment header, the fail-stop forensics when present, the
// alert timeline, the runtime state at capture, the tail of the headline
// sampler series, the slowest recorded traces with their stage breakdown,
// and (sharded deployments) the slowest rounds with straggler/barrier
// attribution. dir may be a single bundle or a dump root (newest bundle).
func renderPostmortem(w io.Writer, dir string) error {
	d, err := obs.LoadDump(dir)
	if err != nil {
		return err
	}
	m := d.Manifest
	fmt.Fprintf(w, "bundle %s (seq %d, v%d)\n", d.Dir, m.Seq, m.Version)
	fmt.Fprintf(w, "trigger: %s  captured: %s\n", m.Trigger, m.CapturedAt.Format(time.RFC3339))
	if m.Reason != "" {
		fmt.Fprintf(w, "reason: %s\n", m.Reason)
	}
	if len(d.Config) > 0 {
		fmt.Fprintf(w, "config: %s\n", d.Config)
	}
	if fs := d.FailStop; fs != nil {
		fmt.Fprintf(w, "\nFAIL-STOP at round %d (%s)\n  %s\n",
			fs.Round, fs.Time.Format(time.RFC3339), fs.Err)
	}
	renderAlerts(w, d.Alerts)
	renderRuntime(w, d.Runtime)
	renderSeries(w, d)
	renderTraces(w, d.Traces)
	renderRounds(w, d.Rounds)
	return nil
}

// renderAlerts prints each alert's state, its worst burn window, and how
// often it has transitioned — the incident timeline as the engine saw it.
func renderAlerts(w io.Writer, a *obs.AlertsResponse) {
	if a == nil || len(a.Alerts) == 0 {
		return
	}
	fmt.Fprintf(w, "\nalerts (%d firing, %d evals):\n", a.Firing, a.Evals)
	for _, st := range a.Alerts {
		line := fmt.Sprintf("  %-24s %-8s %s over %g", st.Name, st.State, st.Series, st.Target)
		worst := 0.0
		for _, win := range st.Windows {
			if win.Burn > worst {
				worst = win.Burn
			}
		}
		if worst > 0 {
			line += fmt.Sprintf("  burn=%.1fx", worst)
		}
		if st.SinceSeconds > 0 {
			line += fmt.Sprintf("  since=%s", time.Duration(st.SinceSeconds*float64(time.Second)).Round(time.Second))
		}
		if st.Transitions > 0 {
			line += fmt.Sprintf("  transitions=%d", st.Transitions)
		}
		fmt.Fprintln(w, line)
	}
}

// renderRuntime prints the Go runtime snapshot taken at the capture
// instant, plus any GC pauses recent enough to have overlapped it.
func renderRuntime(w io.Writer, r *obs.RuntimeStats) {
	if r == nil {
		return
	}
	fmt.Fprintf(w, "\nruntime at capture: heap=%.1fMB  total=%.1fMB  goroutines=%d  gc-cycles=%d  gc-cpu=%.2f%%\n",
		float64(r.HeapInuseBytes)/(1<<20), float64(r.MemTotalBytes)/(1<<20),
		r.Goroutines, r.GCCycles, 100*r.GCCPUFraction)
	fmt.Fprintf(w, "  gc-pause p50=%s p99=%s max=%s  sched-p99=%s\n",
		fmtUS(r.GCPauseP50US), fmtUS(r.GCPauseP99US), fmtUS(r.GCPauseMaxUS), fmtUS(r.SchedLatP99US))
	for _, p := range r.RecentPauses {
		fmt.Fprintf(w, "  pause %s at %s\n",
			p.Duration().Round(time.Microsecond), p.Start.Format("15:04:05.000"))
	}
}

// renderSeries prints the tail of the headline sampler series — the
// seconds leading up to the trigger, which is what a post-mortem reads
// first ("was latency already climbing? was the heap?").
func renderSeries(w io.Writer, d *obs.Dump) {
	ts := d.Timeseries
	if ts == nil || len(ts.Series) == 0 {
		return
	}
	const tail = 30
	fmt.Fprintf(w, "\ntimeseries (last %d samples of %.0fms ticks, oldest first):\n", tail, ts.IntervalMS)
	for _, name := range []string{
		"upd_per_s", "ack_p99_ms", "lag_batches", "barrier_share",
		"heap_mb", "goroutines", "gc_cpu_pct", "gc_pause_ms", "sched_p99_ms",
	} {
		vs := d.Series(name)
		if len(vs) == 0 {
			continue
		}
		if len(vs) > tail {
			vs = vs[len(vs)-tail:]
		}
		min, max := vs[0], vs[0]
		for _, v := range vs {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		fmt.Fprintf(w, "  %-14s %s  [%.2f..%.2f]\n", name, sparkline(vs, tail), min, max)
	}
}

// renderTraces prints the slowest recorded request traces with their stage
// breakdown, error, and GC-pause overlap.
func renderTraces(w io.Writer, traces []obs.TraceJSON) {
	if len(traces) == 0 {
		return
	}
	sorted := append([]obs.TraceJSON(nil), traces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TotalUS > sorted[j].TotalUS })
	n := len(sorted)
	if n > 10 {
		n = 10
	}
	fmt.Fprintf(w, "\nslowest traces (%d of %d recorded):\n", n, len(traces))
	for _, t := range sorted[:n] {
		line := fmt.Sprintf("  %s %-8s %s", t.TraceID, t.Kind, fmtUS(t.TotalUS))
		for _, sp := range t.Spans {
			line += fmt.Sprintf("  %s=%s", sp.Stage, fmtUS(sp.US))
		}
		if t.RoundID != "" {
			line += "  round=" + t.RoundID
		}
		if t.GCPauseUS > 0 {
			line += fmt.Sprintf("  gc-pause=%s", fmtUS(t.GCPauseUS))
		}
		if t.Err != "" {
			line += "  ERR: " + t.Err
		}
		fmt.Fprintln(w, line)
	}
}

// renderRounds prints the slowest BSP rounds with straggler and barrier
// attribution — the sharded deployment's critical-path view.
func renderRounds(w io.Writer, rounds []obs.RoundJSON) {
	if len(rounds) == 0 {
		return
	}
	sorted := append([]obs.RoundJSON(nil), rounds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TotalUS > sorted[j].TotalUS })
	n := len(sorted)
	if n > 5 {
		n = 5
	}
	fmt.Fprintf(w, "\nslowest rounds (%d of %d recorded):\n", n, len(rounds))
	for _, r := range sorted[:n] {
		line := fmt.Sprintf("  round %s  total=%s  reqs=%d  bsp=%s  barrier=%.0f%%",
			r.RoundID, fmtUS(r.TotalUS), r.Reqs, fmtUS(r.BSPUS), 100*r.BarrierShare)
		if r.Straggler >= 0 {
			line += fmt.Sprintf("  straggler=s%d (skew %.2f)", r.Straggler, r.StragglerSkew)
		}
		fmt.Fprintln(w, line)
		for _, st := range r.Stages {
			worst, worstSh := 0.0, -1
			for _, sh := range st.Shards {
				if !sh.Skipped && sh.ComputeUS > worst {
					worst, worstSh = sh.ComputeUS, sh.Shard
				}
			}
			fmt.Fprintf(w, "    %-10s makespan=%s records=%d", st.Name, fmtUS(st.MakespanUS), st.Records)
			if worstSh >= 0 {
				fmt.Fprintf(w, "  slowest=s%d (%s)", worstSh, fmtUS(worst))
			}
			fmt.Fprintln(w)
		}
	}
}

// fmtUS renders a microsecond quantity at a natural unit.
func fmtUS(us float64) string {
	return time.Duration(us * float64(time.Microsecond)).Round(time.Microsecond).String()
}
