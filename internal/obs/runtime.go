package obs

import (
	"math"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Runtime telemetry plane (DESIGN.md §9.3). The serving stack explains tail
// latency in application terms — coalescing, barriers, WAL commits — but in
// a real Go process the tails that matter are just as often the runtime's:
// a GC pause freezing the writer, heap growth tripping more
// frequent cycles, a goroutine pileup in the pipeline.
// Runtime bridges the stdlib runtime/metrics package into the existing
// observability stack: one Collect per Sampler tick reads a fixed sample
// set into reusable buffers (allocation-free at steady state), publishes
// scalar gauges through atomics, folds the runtime's cumulative
// Float64Histograms (GC pauses, scheduler latency) into the repo's own
// lock-free log2 histograms so the registry, parser and sampler quantiles
// all work unchanged, and maintains a ring of recent GC pause windows so the
// pipeline can annotate ack traces that overlapped a stop-the-world pause.

// runtime/metrics keys Collect reads, in sample-buffer order.
const (
	rmHeapObjects = "/memory/classes/heap/objects:bytes"
	rmMemTotal    = "/memory/classes/total:bytes"
	rmGoroutines  = "/sched/goroutines:goroutines"
	rmGCCycles    = "/gc/cycles/total:gc-cycles"
	rmGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU    = "/cpu/classes/total:cpu-seconds"
	rmGCPauses    = "/gc/pauses:seconds"
	rmSchedLat    = "/sched/latencies:seconds"
)

// maxPauseWindows bounds the published ring of recent GC pause windows; 32
// covers several seconds of even a pathologically GC-bound process between
// 1s sampler ticks.
const maxPauseWindows = 32

// GCPauseWindow is one stop-the-world GC pause interval.
type GCPauseWindow struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// Duration returns the pause length.
func (w GCPauseWindow) Duration() time.Duration { return w.End.Sub(w.Start) }

// Runtime collects Go runtime telemetry on the sampler cadence. Construct
// with NewRuntime, wire with Install (sampler series) and Register
// (/metrics families); everything it publishes is read through atomics, so
// queries from the pipeline or scrape handlers never block a collection.
type Runtime struct {
	enabled atomic.Bool

	// mu serialises Collect; the sample buffer and histogram-delta scratch
	// below are reused across collections (steady-state allocation-free).
	mu      sync.Mutex
	samples []metrics.Sample

	heapBytes  atomic.Uint64
	totalBytes atomic.Uint64
	goroutines atomic.Int64
	gcCycles   atomic.Uint64
	gcCPUFrac  atomic.Uint64 // Float64bits; cumulative gc-cpu / total-cpu
	collects   atomic.Int64

	// pauseHist and schedHist mirror the runtime's cumulative
	// Float64Histograms as the repo's own histograms (nanosecond unit):
	// each Collect folds in the per-bucket count deltas since the previous
	// one, so registry exposition and Sampler.HistQuantile both work on
	// them exactly like the application histograms.
	pauseHist *Histogram
	schedHist *Histogram
	prevPause []uint64
	prevSched []uint64

	// GC pause windows come from debug.ReadGCStats (preallocated slices →
	// allocation-free); the most recent maxPauseWindows are published
	// behind an atomic pointer for lock-free overlap queries.
	gcStats  debug.GCStats
	windows  atomic.Pointer[[]GCPauseWindow]
	lastSeen int64 // NumGC already folded into windows

	// Per-tick GC CPU share scratch (previous cumulative cpu-seconds).
	prevGCCPU    float64
	prevTotalCPU float64
	tickGCPct    atomic.Uint64 // Float64bits; GC share of CPU this tick, percent
}

// NewRuntime builds a collector (enabled by default). Nothing is sampled
// until the first Collect — typically the first sampler tick after Install.
func NewRuntime() *Runtime {
	r := &Runtime{
		samples: []metrics.Sample{
			{Name: rmHeapObjects},
			{Name: rmMemTotal},
			{Name: rmGoroutines},
			{Name: rmGCCycles},
			{Name: rmGCCPU},
			{Name: rmTotalCPU},
			{Name: rmGCPauses},
			{Name: rmSchedLat},
		},
		// GC pauses: ~1µs floor to ~1s of nanoseconds; sched latencies the
		// same span (the runtime clamps its own histograms near there).
		pauseHist: NewHistogram(1<<10, int64(time.Second)),
		schedHist: NewHistogram(1<<10, int64(time.Second)),
	}
	r.gcStats.Pause = make([]time.Duration, 0, 256)
	r.gcStats.PauseEnd = make([]time.Time, 0, 256)
	r.enabled.Store(true)
	return r
}

// SetEnabled switches collection on or off at runtime (off: Collect
// returns immediately and published values freeze). The off-path is what
// the obs_overhead gate benchmarks against.
func (r *Runtime) SetEnabled(on bool) { r.enabled.Store(on) }

// Collect runs one sampling pass: read the runtime/metrics sample set,
// publish the scalar gauges, fold histogram deltas, refresh the GC pause
// window ring. Called once per sampler tick by the series Install
// registers; safe (serialised) from any goroutine. Allocation-free at
// steady state — the sample buffer, Float64Histogram storage (reused by
// metrics.Read), delta scratch and GCStats slices all persist across calls.
func (r *Runtime) Collect() {
	if !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	metrics.Read(r.samples)
	for i := range r.samples {
		s := &r.samples[i]
		switch s.Name {
		case rmHeapObjects:
			r.heapBytes.Store(s.Value.Uint64())
		case rmMemTotal:
			r.totalBytes.Store(s.Value.Uint64())
		case rmGoroutines:
			r.goroutines.Store(int64(s.Value.Uint64()))
		case rmGCCycles:
			r.gcCycles.Store(s.Value.Uint64())
		case rmGCPauses:
			r.prevPause = foldHistogram(r.pauseHist, s.Value.Float64Histogram(), r.prevPause)
		case rmSchedLat:
			r.prevSched = foldHistogram(r.schedHist, s.Value.Float64Histogram(), r.prevSched)
		}
	}
	gcCPU := sampleFloat(r.samples, rmGCCPU)
	totCPU := sampleFloat(r.samples, rmTotalCPU)
	if totCPU > 0 {
		r.gcCPUFrac.Store(math.Float64bits(gcCPU / totCPU))
	}
	if dTot := totCPU - r.prevTotalCPU; dTot > 0 && r.prevTotalCPU > 0 {
		pct := 100 * (gcCPU - r.prevGCCPU) / dTot
		if pct < 0 {
			pct = 0
		}
		r.tickGCPct.Store(math.Float64bits(pct))
	}
	r.prevGCCPU, r.prevTotalCPU = gcCPU, totCPU
	r.refreshPauseWindows()
	r.collects.Add(1)
}

func sampleFloat(samples []metrics.Sample, name string) float64 {
	for i := range samples {
		if samples[i].Name == name {
			return samples[i].Value.Float64()
		}
	}
	return 0
}

// foldHistogram adds the per-bucket count deltas of the runtime's
// cumulative Float64Histogram (seconds) into h (nanoseconds), observing
// each bucket at its finite boundary. prev is the previous cumulative
// counts scratch; the (possibly grown) scratch is returned.
func foldHistogram(h *Histogram, fh *metrics.Float64Histogram, prev []uint64) []uint64 {
	if fh == nil {
		return prev
	}
	if len(prev) != len(fh.Counts) {
		prev = make([]uint64, len(fh.Counts))
	}
	for i, c := range fh.Counts {
		d := c - prev[i]
		prev[i] = c
		if d == 0 {
			continue
		}
		// Bucket i covers [Buckets[i], Buckets[i+1]); represent it by its
		// finite edge (upper, falling back to lower for the +Inf bucket).
		hi := fh.Buckets[i+1]
		if math.IsInf(hi, 0) {
			hi = fh.Buckets[i]
		}
		if math.IsInf(hi, 0) || hi < 0 {
			hi = 0
		}
		h.ObserveN(int64(hi*1e9), int64(d))
	}
	return prev
}

// refreshPauseWindows folds new GC pauses from debug.ReadGCStats into the
// published window ring. Runs under r.mu.
func (r *Runtime) refreshPauseWindows() {
	r.gcStats.Pause = r.gcStats.Pause[:cap(r.gcStats.Pause)]
	r.gcStats.PauseEnd = r.gcStats.PauseEnd[:cap(r.gcStats.PauseEnd)]
	debug.ReadGCStats(&r.gcStats)
	fresh := r.gcStats.NumGC - r.lastSeen
	if fresh <= 0 {
		return
	}
	if fresh > int64(len(r.gcStats.Pause)) {
		fresh = int64(len(r.gcStats.Pause))
	}
	old := r.windows.Load()
	var wins []GCPauseWindow
	if old != nil {
		wins = append(wins, *old...)
	}
	// GCStats orders most recent first; append oldest-new first so the ring
	// stays chronological.
	for i := int(fresh) - 1; i >= 0; i-- {
		end := r.gcStats.PauseEnd[i]
		wins = append(wins, GCPauseWindow{Start: end.Add(-r.gcStats.Pause[i]), End: end})
	}
	if len(wins) > maxPauseWindows {
		wins = wins[len(wins)-maxPauseWindows:]
	}
	r.lastSeen = r.gcStats.NumGC
	r.windows.Store(&wins)
}

// GCPauseOverlap returns the total GC stop-the-world pause time inside
// [start, end] according to the published window ring (0 when none
// overlap). Lock-free — one atomic pointer load plus a walk of at most
// maxPauseWindows entries — so the pipeline's ack path can afford it for
// every recorded trace. Windows refresh once per Collect, so pauses newer
// than the last sampler tick are not yet visible.
func (r *Runtime) GCPauseOverlap(start, end time.Time) time.Duration {
	if r == nil {
		return 0
	}
	wins := r.windows.Load()
	if wins == nil {
		return 0
	}
	var total time.Duration
	for _, w := range *wins {
		lo, hi := w.Start, w.End
		if lo.Before(start) {
			lo = start
		}
		if hi.After(end) {
			hi = end
		}
		if d := hi.Sub(lo); d > 0 {
			total += d
		}
	}
	return total
}

// setPauseWindows installs a synthetic window ring — tests pin the overlap
// arithmetic without forcing real GC cycles.
func (r *Runtime) setPauseWindows(wins []GCPauseWindow) { r.windows.Store(&wins) }

// Install registers the runtime series on the sampler. The first series
// ("heap_mb") runs Collect before reporting, and sampler series sample in
// registration order under one lock, so every runtime series of a tick
// reads the same fresh collection. Register every series before
// Sampler.Start, like the serving series.
func (r *Runtime) Install(s *Sampler) {
	s.Gauge("heap_mb", func() float64 {
		r.Collect()
		return float64(r.heapBytes.Load()) / (1 << 20)
	})
	s.Gauge("goroutines", func() float64 { return float64(r.goroutines.Load()) })
	s.Gauge("gc_cpu_pct", func() float64 { return math.Float64frombits(r.tickGCPct.Load()) })
	s.HistQuantile("gc_pause_ms", r.pauseHist, 0.99, 1e-6)
	s.HistQuantile("sched_p99_ms", r.schedHist, 0.99, 1e-6)
}

// Register exposes the collector as inkstream_runtime_* families. Values
// reflect the most recent Collect (the last sampler tick), not the scrape
// instant — the trade that keeps scraping off the runtime/metrics lock.
func (r *Runtime) Register(reg *Registry) {
	reg.GaugeFunc("inkstream_runtime_heap_inuse_bytes",
		"Bytes of live and not-yet-swept heap objects (runtime/metrics /memory/classes/heap/objects), as of the last sampler tick.",
		func() float64 { return float64(r.heapBytes.Load()) })
	reg.GaugeFunc("inkstream_runtime_goroutines",
		"Live goroutines, as of the last sampler tick.",
		func() float64 { return float64(r.goroutines.Load()) })
	reg.GaugeFunc("inkstream_runtime_gc_cpu_fraction",
		"Cumulative fraction of available CPU spent on GC since process start.",
		func() float64 { return math.Float64frombits(r.gcCPUFrac.Load()) })
	reg.Histogram("inkstream_runtime_gc_pause_seconds",
		"Stop-the-world GC pause latency, bridged from runtime/metrics /gc/pauses per sampler tick.",
		1e-9, r.pauseHist)
}

// RuntimeStats is the point-in-time runtime snapshot black-box bundles
// carry (runtime.json).
type RuntimeStats struct {
	CollectedAt    time.Time       `json:"collected_at"`
	Collects       int64           `json:"collects"`
	HeapInuseBytes uint64          `json:"heap_inuse_bytes"`
	MemTotalBytes  uint64          `json:"mem_total_bytes"`
	Goroutines     int64           `json:"goroutines"`
	GCCycles       uint64          `json:"gc_cycles"`
	GCCPUFraction  float64         `json:"gc_cpu_fraction"`
	GCPauseP50US   float64         `json:"gc_pause_p50_us"`
	GCPauseP99US   float64         `json:"gc_pause_p99_us"`
	GCPauseMaxUS   float64         `json:"gc_pause_max_us"`
	SchedLatP99US  float64         `json:"sched_latency_p99_us"`
	RecentPauses   []GCPauseWindow `json:"recent_pauses,omitempty"`
}

// Stats snapshots the collector after forcing one fresh Collect, so a
// bundle captured between ticks still reflects the trigger instant.
func (r *Runtime) Stats() RuntimeStats {
	r.Collect()
	st := RuntimeStats{
		CollectedAt:    time.Now(),
		Collects:       r.collects.Load(),
		HeapInuseBytes: r.heapBytes.Load(),
		MemTotalBytes:  r.totalBytes.Load(),
		Goroutines:     r.goroutines.Load(),
		GCCycles:       r.gcCycles.Load(),
		GCCPUFraction:  math.Float64frombits(r.gcCPUFrac.Load()),
	}
	const us = 1e-3 // ns → µs
	p := r.pauseHist.Snapshot()
	st.GCPauseP50US = float64(p.P50()) * us
	st.GCPauseP99US = float64(p.P99()) * us
	st.GCPauseMaxUS = float64(p.Max) * us
	st.SchedLatP99US = float64(r.schedHist.Snapshot().P99()) * us
	if wins := r.windows.Load(); wins != nil {
		st.RecentPauses = append(st.RecentPauses, *wins...)
	}
	return st
}
