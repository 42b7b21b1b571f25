package obs

import (
	"sync"
	"time"
)

// In-process time-series (DESIGN.md §9.3): a fixed-size ring sampler that
// periodically snapshots registered scalar sources — counters rendered as
// per-second rates, gauges as instantaneous values, histogram quantiles
// windowed per tick — into preallocated float64 rings. Steady-state ticks
// allocate nothing; only Snapshot (a scrape) allocates. The point is to see
// the last ~10 minutes of serving behaviour *from inside the process*,
// without a scraping stack: /metrics shows where the counters are, the
// sampler shows where they were.

// Sampler drives a set of named series at a fixed interval.
type Sampler struct {
	interval time.Duration
	size     int

	mu     sync.Mutex
	series []*tsSeries
	ticks  uint64
	hooks  []func()

	startOnce sync.Once
	stopOnce  sync.Once
	quit      chan struct{}
	done      chan struct{}
}

type tsSeries struct {
	name string
	// sample returns the value for the current tick; counter/quantile
	// wrappers keep their own previous-state scratch so they stay
	// allocation-free.
	sample func() float64
	ring   []float64
}

// NewSampler builds a sampler with the given resolution and window length
// (number of retained samples per series). Typical serving configuration:
// 1s × 600 — a ten-minute window.
func NewSampler(interval time.Duration, window int) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	if window < 1 {
		window = 1
	}
	return &Sampler{
		interval: interval,
		size:     window,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (s *Sampler) add(name string, fn func() float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.series = append(s.series, &tsSeries{
		name:   name,
		sample: fn,
		ring:   make([]float64, s.size),
	})
}

// Gauge registers an instantaneous series sampled by fn. Register every
// series before Start.
func (s *Sampler) Gauge(name string, fn func() float64) { s.add(name, fn) }

// Counter registers a cumulative source rendered as a per-second rate: each
// tick stores (cur-prev)/interval. The first tick after Start reports 0.
func (s *Sampler) Counter(name string, fn func() float64) {
	prev := 0.0
	primed := false
	secs := s.interval.Seconds()
	s.add(name, func() float64 {
		cur := fn()
		if !primed {
			primed = true
			prev = cur
			return 0
		}
		d := (cur - prev) / secs
		prev = cur
		if d < 0 {
			d = 0
		}
		return d
	})
}

// HistQuantile registers the windowed q-quantile of h: each tick estimates
// the quantile of the observations that arrived *since the previous tick*
// (0 when the window saw none), scaled by scale — the live per-second view
// of a latency histogram's tail. The per-tick bucket-delta scratch is
// preallocated, so sampling stays allocation-free.
func (s *Sampler) HistQuantile(name string, h *Histogram, q, scale float64) {
	nb := h.NumBuckets()
	cur := make([]int64, nb)
	prev := make([]int64, nb)
	dsnap := HistSnapshot{Bounds: h.bounds, Counts: make([]int64, nb)}
	s.add(name, func() float64 {
		dsnap.Max = h.LoadCounts(cur)
		dsnap.Count = 0
		for i, c := range cur {
			d := c - prev[i]
			dsnap.Counts[i] = d
			dsnap.Count += d
			prev[i] = c
		}
		if dsnap.Count == 0 {
			return 0
		}
		return float64(dsnap.Quantile(q)) * scale
	})
}

// Start launches the background ticker; Stop halts it. Both are idempotent.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			tick := time.NewTicker(s.interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					s.Tick()
				case <-s.quit:
					return
				}
			}
		}()
	})
}

// Stop halts the ticker and waits for the sampling goroutine to exit. Safe
// to call without Start.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() { close(s.quit) })
	s.startOnce.Do(func() { close(s.done) }) // never started: mark done
	<-s.done
}

// OnTick registers fn to run after every Tick, outside the sampler lock —
// hooks may call back into the sampler (the alert engine evaluates its
// windows this way). Register before Start.
func (s *Sampler) OnTick(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = append(s.hooks, fn)
}

// Tick advances every series by one sample, then runs the OnTick hooks.
// Exported so tests (and servers without a background ticker) can drive the
// sampler deterministically.
func (s *Sampler) Tick() {
	s.mu.Lock()
	i := int(s.ticks % uint64(s.size))
	for _, ser := range s.series {
		ser.ring[i] = ser.sample()
	}
	s.ticks++
	hooks := s.hooks
	s.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Last returns the most recent sample of the named series (ok=false before
// the first tick or for an unknown name).
func (s *Sampler) Last(name string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ticks == 0 {
		return 0, false
	}
	i := int((s.ticks - 1) % uint64(s.size))
	for _, ser := range s.series {
		if ser.name == name {
			return ser.ring[i], true
		}
	}
	return 0, false
}

// MaxRecent returns the maximum over the last n samples of the named series
// (ok=false before the first tick or for an unknown name). Health checks
// use this so a single quiet tick cannot mask a breached SLO.
func (s *Sampler) MaxRecent(name string, n int) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ticks == 0 {
		return 0, false
	}
	for _, ser := range s.series {
		if ser.name != name {
			continue
		}
		have := int(s.ticks)
		if have > s.size {
			have = s.size
		}
		if n > have {
			n = have
		}
		best := 0.0
		for k := 0; k < n; k++ {
			v := ser.ring[int((s.ticks-1-uint64(k))%uint64(s.size))]
			if k == 0 || v > best {
				best = v
			}
		}
		return best, true
	}
	return 0, false
}

// CountAbove returns how many of the last n samples of the named series
// exceed threshold, along with how many samples the window actually holds
// (have ≤ n before the ring fills). ok=false for an unknown name. The
// burn-rate alert engine treats over/have as the window's error fraction.
func (s *Sampler) CountAbove(name string, n int, threshold float64) (over, have int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ser := range s.series {
		if ser.name != name {
			continue
		}
		have = int(s.ticks)
		if have > s.size {
			have = s.size
		}
		if n < have {
			have = n
		}
		for k := 0; k < have; k++ {
			if ser.ring[int((s.ticks-1-uint64(k))%uint64(s.size))] > threshold {
				over++
			}
		}
		return over, have, true
	}
	return 0, 0, false
}

// TSSeries is one series of a snapshot, oldest sample first.
type TSSeries struct {
	Name    string    `json:"name"`
	Samples []float64 `json:"samples"`
}

// TSSnapshot is the JSON body of GET /v1/timeseries.
type TSSnapshot struct {
	// IntervalMS is the sampling resolution; Ticks the number of samples
	// taken since start (samples are capped at the window length).
	IntervalMS float64    `json:"interval_ms"`
	Ticks      uint64     `json:"ticks"`
	Series     []TSSeries `json:"series"`
}

// Snapshot copies the current window of every series, oldest sample first.
func (s *Sampler) Snapshot() TSSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := TSSnapshot{
		IntervalMS: float64(s.interval) / float64(time.Millisecond),
		Ticks:      s.ticks,
		Series:     make([]TSSeries, 0, len(s.series)),
	}
	have := int(s.ticks)
	if have > s.size {
		have = s.size
	}
	for _, ser := range s.series {
		samples := make([]float64, have)
		for k := 0; k < have; k++ {
			samples[k] = ser.ring[int((s.ticks-uint64(have-k))%uint64(s.size))]
		}
		out.Series = append(out.Series, TSSeries{Name: ser.name, Samples: samples})
	}
	return out
}
