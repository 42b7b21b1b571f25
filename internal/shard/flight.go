package shard

import (
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Round profiler (DESIGN.md §9.2): each round leaves a RoundTrace with
// per-stage per-shard compute/barrier/ghost spans, served at GET /v1/rounds.
// Request traces, the sampler and the alert engine are the server's; a
// request trace carries the ID of the round that applied it.

// recordRound freezes one successful profiled round: cumulative
// critical-path attribution and the ring slot. Runs on the apply goroutine
// only.
func (rt *Router) recordRound(p *obs.RoundTrace) {
	// Per-stage participant means: shards whose layer call was skipped
	// contribute neither compute nor wait, and for participants
	// mean(compute)+mean(barrier) = stage makespan, so compute plus
	// barrier still sums the round's BSP time under idle-shard skipping.
	var compNS, waitNS int64
	for _, st := range p.Stages {
		var c, w, k int64
		for _, sh := range st.Shards {
			if sh.Skipped {
				continue
			}
			c += sh.Compute.Nanoseconds()
			w += sh.Barrier.Nanoseconds()
			k++
		}
		if k > 0 {
			compNS += c / k
			waitNS += w / k
		}
	}
	rt.computeNS.Add(compNS)
	if waitNS > 0 {
		rt.barrierNS.Add(waitNS)
	}
	if s := p.Straggler(); s >= 0 && s < len(rt.stragglerRounds) {
		rt.stragglerRounds[s].Add(1)
	}
	rt.lastBarrierShare.Store(math.Float64bits(p.BarrierShare()))
	rt.profiler.Record(p)
}

// lastShare returns the most recent profiled round's barrier share.
func (rt *Router) lastShare() float64 { return math.Float64frombits(rt.lastBarrierShare.Load()) }

// SetRoundProfiling reconfigures the round profiler before serving: ring is
// the number of retained rounds; 0 disables profiling entirely (no
// RoundTrace allocation, no per-stage timing) — the off-path the overhead
// gate benchmarks against. Not safe to call with rounds in flight.
func (rt *Router) SetRoundProfiling(ring int) {
	if ring <= 0 {
		rt.profiler = nil
		for _, s := range rt.shards {
			s.eng.SetRoundTiming(false)
		}
		return
	}
	rt.profiler = obs.NewRing[obs.RoundTrace](ring)
	for _, s := range rt.shards {
		s.eng.SetRoundTiming(true)
	}
}

// RoundProfiler exposes the round-trace ring (nil when disabled).
func (rt *Router) RoundProfiler() *obs.Ring[obs.RoundTrace] { return rt.profiler }

// RoundsResponse is the body of GET /v1/rounds.
type RoundsResponse struct {
	// Recorded is the total number of rounds profiled since start (the
	// ring keeps the newest); Shards the deployment size.
	Recorded int64 `json:"recorded"`
	Shards   int   `json:"shards"`
	// Rounds are the retained round traces, newest first.
	Rounds []*obs.RoundTrace `json:"rounds"`
}

// handleRounds serves the round-profiler ring, newest first, with the n and
// min_us filters of /v1/traces; 501 with profiling off.
func (rt *Router) handleRounds(w http.ResponseWriter, r *http.Request) {
	p := rt.profiler
	if p == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotImplemented)
		_, _ = io.WriteString(w, `{"error":"round profiling disabled"}`+"\n") // the connection is the client's problem
		return
	}
	server.ServeRing(w, r, p.Traces(),
		func(t *obs.RoundTrace) time.Duration { return t.Total },
		func(rounds []*obs.RoundTrace) any {
			return RoundsResponse{Recorded: p.Recorded(), Shards: len(rt.shards), Rounds: rounds}
		})
}
