package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// watchLoop polls an inkserve /metrics endpoint every interval and prints
// a one-line rolling summary per window: update rate, windowed p99 update
// latency, event throughput and the pruned-visit ratio (the fraction of
// touched nodes InkStream discarded without recomputation — the paper's
// headline saving). samples bounds the number of printed lines (<= 0 runs
// until the scrape fails).
func watchLoop(w io.Writer, base string, interval time.Duration, samples int) error {
	if interval <= 0 {
		return fmt.Errorf("watch interval must be positive, got %v", interval)
	}
	url := strings.TrimSuffix(base, "/") + "/metrics"
	prev, err := scrapeMetrics(url)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, summaryLine(prev))
	printed := 0
	for samples <= 0 || printed < samples {
		time.Sleep(interval)
		cur, err := scrapeMetrics(url)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, watchLine(prev, cur, interval)+sparklines(fetchTimeseries(base)))
		printed++
		prev = cur
	}
	return nil
}

// fetchTimeseries pulls the server's in-process time-series window (nil on
// any error: the watch line just omits the sparklines).
func fetchTimeseries(base string) *obs.TSSnapshot {
	resp, err := http.Get(strings.TrimSuffix(base, "/") + "/v1/timeseries")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var ts obs.TSSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&ts); err != nil {
		return nil
	}
	return &ts
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last n samples scaled to the window maximum.
func sparkline(vs []float64, n int) string {
	if len(vs) > n {
		vs = vs[len(vs)-n:]
	}
	max := 0.0
	for _, v := range vs {
		if v > max {
			max = v
		}
	}
	out := make([]rune, len(vs))
	for i, v := range vs {
		k := 0
		if max > 0 && v > 0 {
			k = int(v/max*float64(len(sparkRunes)-1) + 0.5)
			if k >= len(sparkRunes) {
				k = len(sparkRunes) - 1
			}
		}
		out[i] = sparkRunes[k]
	}
	return string(out)
}

// sparklines appends the headline serving series of a time-series snapshot
// (update rate, windowed ack p99, measured drift) as compact sparklines.
func sparklines(ts *obs.TSSnapshot) string {
	if ts == nil {
		return ""
	}
	var b strings.Builder
	for _, want := range []struct{ name, label string }{
		{"upd_per_s", "upd"},
		{"ack_p99_ms", "p99"},
		{"drift_max_abs", "drift"},
	} {
		for _, s := range ts.Series {
			if s.Name == want.name && len(s.Samples) > 0 {
				fmt.Fprintf(&b, "  %s⌁%s", want.label, sparkline(s.Samples, 16))
			}
		}
	}
	return b.String()
}

func scrapeMetrics(url string) (obs.Samples, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %s", url, resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// summaryLine renders the absolute serving state of one scrape: the
// published snapshot epoch and its lag behind accepted updates, lifetime
// work counters, and the WAL group-commit history (0 commits when no
// journal is configured).
func summaryLine(s obs.Samples) string {
	get := func(name string) float64 { v, _ := s.Get(name); return v }
	gcCount := get("inkstream_group_commit_batch_size_count")
	gcMean := 0.0
	if gcCount > 0 {
		gcMean = get("inkstream_group_commit_batch_size_sum") / gcCount
	}
	coMean := 0.0
	if coCount := get("inkstream_coalesced_batch_size_count"); coCount > 0 {
		coMean = get("inkstream_coalesced_batch_size_sum") / coCount
	}
	return fmt.Sprintf("serving: epoch=%.0f  lag=%.0f  updates=%.0f  reads=%.0f  group-commits=%.0f (avg batch %.1f)  fused=%.1f  stalls=%.0f",
		get("inkstream_snapshot_epoch"), get("inkstream_snapshot_lag_batches"),
		get("inkstream_updates_total"), get("inkstream_reads_total"),
		gcCount, gcMean, coMean, get("inkstream_coalesce_stalls_total")) + shardSuffix(nil, s) + runtimeSuffix(nil, s)
}

// shardSuffix appends the partitioned-deployment columns when the scrape
// comes from a deployment of more than one shard: shard count, epoch skew
// and cut fraction, then — from the counter deltas between the two scrapes,
// so they describe the rounds that ran in the window — the per-round
// exchange volume, the barrier-wait share of BSP time and the shard most
// often on the critical path. A window that profiled no round falls back to
// the cumulative values; prev nil renders the cumulative (summary-line)
// form.
func shardSuffix(prev, cur obs.Samples) string {
	shards, _ := cur.Get("inkstream_router_shards")
	if shards <= 1 {
		return ""
	}
	skew, _ := cur.Get("inkstream_router_epoch_skew")
	cut, _ := cur.Get("inkstream_router_cut_fraction")
	out := fmt.Sprintf("  shards=%.0f  skew=%.0f  cut=%.0f%%", shards, skew, 100*cut)
	delta := func(name string) float64 {
		c, _ := cur.Get(name)
		p, _ := prev.Get(name)
		return c - p
	}
	if rounds := delta("inkstream_updates_total"); rounds > 0 {
		out += fmt.Sprintf("  bcast/rd=%.1f  ghost/rd=%.1f",
			delta("inkstream_boundary_records_total")/rounds,
			delta("inkstream_ghost_rows_total")/rounds)
	}
	wait := delta("inkstream_round_barrier_wait_seconds_total")
	compute := delta("inkstream_round_compute_seconds_total")
	if wait+compute <= 0 {
		wait, _ = cur.Get("inkstream_round_barrier_wait_seconds_total")
		compute, _ = cur.Get("inkstream_round_compute_seconds_total")
	}
	if bsp := wait + compute; bsp > 0 {
		out += fmt.Sprintf("  barrier=%.0f%%", 100*wait/bsp)
	}
	shard, n := topStraggler(prev, cur)
	if n == 0 {
		shard, n = topStraggler(nil, cur)
	}
	if n > 0 {
		out += fmt.Sprintf("  straggler=s%s", shard)
	}
	return out
}

// runtimeSuffix appends the Go runtime columns when the scrape exports the
// inkstream_runtime_* families: heap in use, goroutine count, GC CPU share
// and (when prev is given, windowed) the p99 GC pause. Servers without the
// runtime plane — or with it disabled — simply omit the columns.
func runtimeSuffix(prev, cur obs.Samples) string {
	heap, ok := cur.Get("inkstream_runtime_heap_inuse_bytes")
	if !ok {
		return ""
	}
	gor, _ := cur.Get("inkstream_runtime_goroutines")
	frac, _ := cur.Get("inkstream_runtime_gc_cpu_fraction")
	out := fmt.Sprintf("  heap=%.1fMB  gor=%.0f  gc-cpu=%.1f%%", heap/(1<<20), gor, 100*frac)
	les, cumCur := cur.Buckets("inkstream_runtime_gc_pause_seconds")
	if len(les) > 0 {
		p99 := 0.0
		if prev != nil {
			if _, cumPrev := prev.Buckets("inkstream_runtime_gc_pause_seconds"); len(cumPrev) == len(cumCur) {
				dcum := make([]float64, len(cumCur))
				for i := range dcum {
					dcum[i] = cumCur[i] - cumPrev[i]
				}
				p99 = obs.BucketQuantile(les, dcum, 0.99)
			}
		}
		if p99 == 0 { // no pauses in the window: all-time distribution
			p99 = obs.BucketQuantile(les, cumCur, 0.99)
		}
		if p99 > 0 {
			out += fmt.Sprintf("  gc-pause=%s", fmtSeconds(p99))
		}
	}
	return out
}

// topStraggler returns the shard label with the most straggler rounds in
// cur minus prev (prev nil means cumulative) and that count.
func topStraggler(prev, cur obs.Samples) (string, float64) {
	prevCount := map[string]float64{}
	if prev != nil {
		for _, s := range prev.Family("inkstream_shard_straggler_rounds_total") {
			prevCount[s.Labels["shard"]] = s.Value
		}
	}
	best, bestN := "", 0.0
	for _, s := range cur.Family("inkstream_shard_straggler_rounds_total") {
		if n := s.Value - prevCount[s.Labels["shard"]]; n > bestN {
			best, bestN = s.Labels["shard"], n
		}
	}
	return best, bestN
}

// watchLine summarises one scrape window. Rates come from counter deltas;
// the p99 comes from the windowed difference of the cumulative buckets of
// the apply-latency histogram (one engine batch or one BSP round), falling
// back to the all-time histogram when the window saw no updates.
func watchLine(prev, cur obs.Samples, dt time.Duration) string {
	delta := func(name string) float64 {
		c, _ := cur.Get(name)
		p, _ := prev.Get(name)
		return c - p
	}
	secs := dt.Seconds()
	updates := delta("inkstream_updates_total")

	const latFamily = "inkstream_update_latency_seconds"
	les, cumCur := cur.Buckets(latFamily)
	_, cumPrev := prev.Buckets(latFamily)
	p99 := 0.0
	if len(cumPrev) == len(cumCur) {
		dcum := make([]float64, len(cumCur))
		for i := range dcum {
			dcum[i] = cumCur[i] - cumPrev[i]
		}
		p99 = obs.BucketQuantile(les, dcum, 0.99)
	}
	if p99 == 0 {
		p99 = obs.BucketQuantile(les, cumCur, 0.99)
	}

	events := delta("inkstream_events_processed_total")
	prunedRatio := visitRatio(prev, cur, "pruned")

	epoch, _ := cur.Get("inkstream_snapshot_epoch")
	lag, _ := cur.Get("inkstream_snapshot_lag_batches")
	gcBatch := 0.0
	if dc := delta("inkstream_group_commit_batch_size_count"); dc > 0 {
		gcBatch = delta("inkstream_group_commit_batch_size_sum") / dc
	}
	// Mean server-side fusion factor over the window (requests per fused
	// engine batch; 0 when the window applied nothing).
	fused := 0.0
	if dc := delta("inkstream_coalesced_batch_size_count"); dc > 0 {
		fused = delta("inkstream_coalesced_batch_size_sum") / dc
	}
	return fmt.Sprintf("upd/s=%.1f  p99=%s  events/s=%.0f  pruned=%.1f%%  epoch=%.0f  lag=%.0f  reads/s=%.1f  gc=%.1f  fused=%.1f  stalls=%.0f",
		updates/secs, fmtSeconds(p99), events/secs, 100*prunedRatio,
		epoch, lag, delta("inkstream_reads_total")/secs, gcBatch, fused,
		delta("inkstream_coalesce_stalls_total")) + shardSuffix(prev, cur) + runtimeSuffix(prev, cur)
}

// visitRatio returns the windowed share of node visits resolved as cond,
// falling back to the cumulative share when the window saw none.
func visitRatio(prev, cur obs.Samples, cond string) float64 {
	share := func(ss obs.Samples) (condN, total float64) {
		for _, s := range ss.Family("inkstream_node_visits_total") {
			total += s.Value
			if s.Labels["condition"] == cond {
				condN = s.Value
			}
		}
		return condN, total
	}
	curC, curT := share(cur)
	prevC, prevT := share(prev)
	if dt := curT - prevT; dt > 0 {
		return (curC - prevC) / dt
	}
	if curT > 0 {
		return curC / curT
	}
	return 0
}

// fmtSeconds renders a latency in seconds at a natural unit.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
