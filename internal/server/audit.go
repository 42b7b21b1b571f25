package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/gnn"
	"repro/internal/graph"
)

// Continuous drift auditor (DESIGN.md §9.4). InkStream's accumulative
// aggregators (sum, mean) reassociate floating-point arithmetic across every
// incremental batch, so the maintained embeddings drift away from a from-
// scratch inference over time — the accumulated-error concern the paper's
// tolerance sweeps quantify offline. The auditor turns it into a live
// signal: it captures the L-hop dependency cone of a few random nodes on the
// apply stage (exclusive — see baseline.CaptureShadow), recomputes them *off*
// the pipeline, and publishes the measured drift (the drift_max_abs series
// and /healthz field) plus a failure count when drift exceeds the tolerance.
// It is the sampled, non-exclusive sibling of Engine.Verify: Verify quiesces
// the writer for a full-graph recompute; the auditor stalls it only for the
// capture. On a small dense graph the cone of a few nodes is most of the
// graph, so an audit costs about a full inference; the loop therefore spends
// at most auditShare of one core on it, whatever the update rate.

// auditShare is the share of one core the audit loop may spend: after an
// audit that took d, the next one starts no earlier than d·(1/auditShare − 1)
// later.
const auditShare = 0.02

// auditState carries the auditor's configuration and published results.
// Constructed eagerly in New so /healthz and the drift_max_abs series always
// read it; the background loop only starts with EnableDriftAudit.
type auditState struct {
	sample int     // nodes captured per audit
	tol    float32 // max abs drift allowed on a model with a sum/mean layer
	// exact is set when every aggregator is monotonic: the maintained state
	// is then bit-exact by construction (DESIGN.md §6.4), so any difference
	// at all is a bug and fails the audit.
	exact bool

	mu  sync.Mutex // serialises audits; guards rng
	rng *rand.Rand

	failures   atomic.Int64
	lastFailed atomic.Bool
	driftBits  atomic.Uint64 // float64 bits of the most recent audit's drift

	// onFailure, when set (EnableBlackBox), runs on each failed audit with
	// the failure detail — the black box capture trigger. Set before serving.
	onFailure func(reason string)
}

// newAuditState seeds the auditor with serving defaults; EnableDriftAudit
// overrides them and starts the loop.
func newAuditState(m *gnn.Model) *auditState {
	exact := true
	for _, l := range m.Layers {
		exact = exact && l.Agg().Monotonic()
	}
	return &auditState{
		sample: 16,
		tol:    2e-3,
		exact:  exact,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// limit is the largest drift an audit passes.
func (a *auditState) limit() float32 {
	if a.exact {
		return 0
	}
	return a.tol
}

// lastDrift returns the most recent audit's max abs drift (0 before the
// first audit) — the drift_max_abs series and healthz field.
func (a *auditState) lastDrift() float64 {
	return math.Float64frombits(a.driftBits.Load())
}

// engine returns the backend New built, or nil on a NewOn server. Only the
// drift audit's methods use it; nothing the two deployment shapes share
// does.
func (s *Server) engine() *engineBackend {
	e, _ := s.backend.(*engineBackend)
	return e
}

// EnableDriftAudit configures the drift audit and, when every > 0, starts
// the background auditor: once at least `every` updates have been applied
// since the last audit, and no sooner than its CPU budget (auditShare of one
// core) allows, it shadow-recomputes `sample` random nodes against the
// maintained state. An audit fails on any difference when every aggregator
// is monotonic, and otherwise when the max abs drift exceeds tol; tol also
// bounds POST /v1/verify (tol <= 0 keeps the default 2e-3, the tolerance the
// batch-size sweeps accept for accumulative aggregators). Call before
// serving; the loop stops with Close. It needs the L-hop cone of the sampled
// nodes in one engine's graph, so it is a no-op on a NewOn server.
func (s *Server) EnableDriftAudit(every uint64, sample int, tol float32) {
	e := s.engine()
	if e == nil {
		return
	}
	a := e.audit
	if sample > 0 {
		a.sample = sample
	}
	if tol > 0 {
		a.tol = tol
	}
	if every == 0 {
		return
	}
	s.wg.Add(1)
	go e.auditLoop(every)
}

// auditPace is the auditor's schedule: a stride floor in applied updates, so
// an idle server does not audit, and a CPU budget in wall time.
type auditPace struct {
	every     uint64    // minimum applied updates between audits
	last      uint64    // applied updates when the last audit started
	notBefore time.Time // earliest start the budget allows
}

// due reports whether an audit may start at now, with updates applied so far.
func (p auditPace) due(now time.Time, updates uint64) bool {
	return updates >= p.last+p.every && !now.Before(p.notBefore)
}

// nextAudit returns the earliest start of the audit after one that ended at
// end and took took: spacing audits by took·(1/auditShare − 1) holds the
// auditor's busy time to auditShare of the wall time.
func nextAudit(end time.Time, took time.Duration) time.Time {
	return end.Add(time.Duration(float64(took) * (1/auditShare - 1)))
}

// auditLoop polls the applied-update counter and runs an audit whenever the
// pace allows one, at least every updates apart. Polling (rather than
// hooking the apply path) keeps the pipeline free of auditor branches; a
// poll costs one atomic load.
func (e *engineBackend) auditLoop(every uint64) {
	a, s := e.audit, e.s
	defer s.wg.Done()
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	pace := auditPace{every: every}
	for {
		select {
		case <-s.quit:
			return
		case now := <-tick.C:
			cur := uint64(s.obs.Updates())
			if !pace.due(now, cur) {
				continue
			}
			start := time.Now()
			if _, err := s.AuditNow(a.sample); err != nil && !errors.Is(err, ErrServerClosed) {
				log.Printf("%v", err)
			}
			end := time.Now()
			pace.last, pace.notBefore = cur, nextAudit(end, end.Sub(start))
		}
	}
}

// AuditNow runs one drift audit synchronously: capture the dependency cone
// of `sample` random nodes on the apply stage, recompute off the pipeline,
// publish the measured drift. Returns the shadow result and a non-nil error
// when the audit failed (drift over tolerance) or could not run. Safe from
// any goroutine; concurrent audits serialise.
func (s *Server) AuditNow(sample int) (baseline.ShadowResult, error) {
	e := s.engine()
	if e == nil {
		return baseline.ShadowResult{}, fmt.Errorf("drift audit: needs a single-engine deployment")
	}
	a := e.audit
	a.mu.Lock()
	defer a.mu.Unlock()
	if sample < 1 {
		sample = 1
	}
	n := e.Snapshot().Nodes
	if n == 0 {
		return baseline.ShadowResult{}, fmt.Errorf("drift audit: empty graph")
	}
	if sample > n {
		sample = n
	}
	// Distinct targets: duplicates would collapse in the shadow's node set
	// and under-report the sampled count.
	targets := make([]graph.NodeID, 0, sample)
	seen := make(map[graph.NodeID]struct{}, sample)
	for len(targets) < sample {
		v := graph.NodeID(a.rng.Intn(n))
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		targets = append(targets, v)
	}
	// Phase 1: capture on the apply stage (exclusive, cheap — clones the
	// cone's adjacency and feature/output rows, no inference).
	var sh *baseline.Shadow
	err := e.s.do(nil, nil, func() error {
		var cerr error
		sh, cerr = baseline.CaptureShadow(e.Model(), e.Graph(), e.State().H[0], e.Output(), targets)
		if sh != nil {
			sh.Epoch = e.Snapshot().Epoch
		}
		return cerr
	})
	if err != nil {
		if !errors.Is(err, ErrServerClosed) {
			err = fmt.Errorf("drift audit: capture: %w", err)
		}
		return baseline.ShadowResult{}, err
	}
	// Phase 2: recompute off the pipeline. The capture is self-contained,
	// so the writer is already serving the next update while this runs.
	res := sh.Recompute()
	a.driftBits.Store(math.Float64bits(float64(res.MaxAbsDiff)))
	if res.MaxAbsDiff > a.limit() {
		a.failures.Add(1)
		a.lastFailed.Store(true)
		err := fmt.Errorf(
			"drift audit: max abs drift %g over tolerance %g at node %d (epoch %d, %d/%d nodes sampled/recomputed)",
			res.MaxAbsDiff, a.limit(), res.WorstNode, sh.Epoch, res.Nodes, res.ClosureNodes)
		if a.onFailure != nil {
			a.onFailure(err.Error())
		}
		return res, err
	}
	a.lastFailed.Store(false)
	return res, nil
}

// VerifyResponse is the body of POST /v1/verify (both outcomes).
type VerifyResponse struct {
	// Status is "verified" or "failed"; Error the failure detail.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// MaxAbsDiff is the measured max abs difference between the maintained
	// embeddings and the from-scratch recompute — reported even on success,
	// so operators see how close to the tolerance the state is drifting.
	MaxAbsDiff float64 `json:"max_abs_diff"`
	// ElapsedMS is the recompute+compare time on the apply stage; LatencyMS
	// the full request latency including the wait to quiesce the pipeline.
	ElapsedMS float64 `json:"elapsed_ms"`
	LatencyMS float64 `json:"latency_ms"`
}

// handleVerify recomputes the full inference and compares it against the
// maintained state (Engine.VerifyDiff: bit-exact on a monotonic model, within
// the audit tolerance otherwise) — an operational self-check, and the
// exhaustive sibling of the sampled drift auditor. It runs as an exclusive
// operation on the apply stage (the pipeline is quiesced for the whole
// recompute), so it never races an update; use the drift auditor for a
// continuous check that does not stall serving. It is a POST because it is
// expensive. Only this backend mounts it: a shard graph does not hold the
// L-hop cone of a local vertex, so there is no per-shard recompute to
// compare against.
func (e *engineBackend) handleVerify(w http.ResponseWriter, _ *http.Request) {
	var diff float32
	var elapsed time.Duration
	t0 := time.Now()
	err := e.s.do(nil, nil, func() error {
		v0 := time.Now()
		var verr error
		diff, verr = e.VerifyDiff(e.audit.tol)
		elapsed = time.Since(v0)
		return verr
	})
	lat := time.Since(t0)
	if errors.Is(err, ErrServerClosed) {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	resp := VerifyResponse{
		Status:     "verified",
		MaxAbsDiff: float64(diff),
		ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
		LatencyMS:  float64(lat.Microseconds()) / 1000,
	}
	if err != nil {
		resp.Status = "failed"
		resp.Error = fmt.Sprintf("verification failed: %v", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(resp) // too late for a status change; the connection will just break
		return
	}
	writeJSON(w, resp)
}
