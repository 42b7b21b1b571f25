package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// SLO burn-rate alerting (DESIGN.md §9.3): a declarative alert engine
// evaluated over the Sampler ring.
//
// A rule names a sampled series (e.g. the windowed "ack_p99_ms"), a target
// the series must stay under, and an availability objective — the fraction
// of ticks allowed over target is the error budget (1 − Objective). Each
// eval computes, per window, the burn rate: the fraction of the window's
// ticks over target divided by the budget. Burn 1.0 spends the budget
// exactly at the objective's pace; burn 10 spends a month's budget in three
// days. A rule breaches only when *every* window burns past its limit —
// the multi-window trick that makes alerts both fast (short window: still
// happening now) and unflappable (long window: has been happening long
// enough to matter).
//
// Alerts run a pending → firing → resolved state machine: a breach makes
// the alert pending, ForTicks consecutive breached evals promote it to
// firing, recovery moves it to resolved (still visible while the operator
// looks), and a quiet spell retires it to inactive. Firing alerts flip
// /healthz to degraded.

// BurnWindow is one evaluation window of a rule.
type BurnWindow struct {
	// Ticks is the window length in sampler ticks; MaxBurn the burn rate
	// above which the window counts as breached.
	Ticks   int     `json:"ticks"`
	MaxBurn float64 `json:"max_burn"`
}

// AlertRule declares one burn-rate alert over a sampled series.
type AlertRule struct {
	Name   string `json:"name"`
	Series string `json:"series"`
	// Target is the per-tick objective in the series' unit: a tick with a
	// sample above Target is an error tick.
	Target float64 `json:"target"`
	// Objective is the tolerated good-tick fraction (e.g. 0.99: 1% of
	// ticks may exceed Target before the budget burns at rate 1).
	Objective float64 `json:"objective"`
	// Windows must all burn past their limits for the rule to breach.
	Windows []BurnWindow `json:"windows"`
	// ForTicks is how many consecutive breached evals a pending alert
	// needs before it fires (minimum 1).
	ForTicks int `json:"for_ticks"`
}

// AlertState is the lifecycle position of one alert.
type AlertState int

const (
	AlertInactive AlertState = iota
	AlertPending
	AlertFiring
	AlertResolved
)

var alertStateNames = [...]string{"inactive", "pending", "firing", "resolved"}

func (s AlertState) String() string {
	if s >= 0 && int(s) < len(alertStateNames) {
		return alertStateNames[s]
	}
	return fmt.Sprintf("state%d", int(s))
}

// alertInst is one rule plus its live state.
type alertInst struct {
	rule        AlertRule
	forTicks    int
	hold        int // clear evals before resolved retires to inactive
	state       AlertState
	since       time.Time
	breaches    int // consecutive breached evals while pending
	clears      int // consecutive clear evals while resolved
	burn        []float64
	transitions int64
}

// AlertEngine evaluates a rule set against a Sampler, one eval per tick.
type AlertEngine struct {
	sampler *Sampler

	mu       sync.Mutex
	alerts   []*alertInst
	evals    int64
	onFiring []func(name, reason string)
}

// NewAlertEngine binds an engine to the sampler whose series the rules
// reference; it evaluates automatically after every sampler tick.
func NewAlertEngine(s *Sampler) *AlertEngine {
	e := &AlertEngine{sampler: s}
	s.OnTick(e.Eval)
	return e
}

// SetRules replaces the rule set (state resets to inactive). Windows
// shorter than 1 tick and ForTicks below 1 are normalized up.
func (e *AlertEngine) SetRules(rules ...AlertRule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.alerts = e.alerts[:0]
	for _, r := range rules {
		inst := &alertInst{rule: r, forTicks: r.ForTicks, burn: make([]float64, len(r.Windows))}
		if inst.forTicks < 1 {
			inst.forTicks = 1
		}
		for i, w := range r.Windows {
			if w.Ticks < 1 {
				inst.rule.Windows[i].Ticks = 1
			}
			if w.Ticks > inst.hold {
				inst.hold = w.Ticks
			}
		}
		if inst.hold < 1 {
			inst.hold = 1
		}
		e.alerts = append(e.alerts, inst)
	}
}

// Rules returns the active rule set.
func (e *AlertEngine) Rules() []AlertRule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]AlertRule, len(e.alerts))
	for i, a := range e.alerts {
		out[i] = a.rule
	}
	return out
}

// OnFiring registers fn to run whenever an alert transitions into the
// firing state (pending→firing or resolved→firing), with the alert name
// and a rendered reason. Hooks run after the evaluation pass, outside the
// engine lock, on the evaluating goroutine (the sampler tick) — they must
// not block; the black box capture trigger enqueues and returns. Register
// before the sampler starts.
func (e *AlertEngine) OnFiring(fn func(name, reason string)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onFiring = append(e.onFiring, fn)
}

// Eval advances every alert by one evaluation against the sampler window.
// Called automatically per sampler tick; exported so tests (and servers
// driving Tick by hand) stay deterministic.
func (e *AlertEngine) Eval() {
	type firedAlert struct{ name, reason string }
	var fired []firedAlert
	e.mu.Lock()
	e.evals++
	now := time.Now()
	for _, a := range e.alerts {
		breach := len(a.rule.Windows) > 0
		budget := 1 - a.rule.Objective
		if budget <= 0 {
			budget = 1e-9
		}
		for wi, w := range a.rule.Windows {
			burn := 0.0
			if over, have, ok := e.sampler.CountAbove(a.rule.Series, w.Ticks, a.rule.Target); ok && have > 0 {
				burn = float64(over) / float64(have) / budget
			}
			a.burn[wi] = burn
			if burn <= w.MaxBurn {
				breach = false
			}
		}
		switch a.state {
		case AlertInactive:
			if breach {
				a.to(AlertPending, now)
				a.breaches = 1
			}
		case AlertPending:
			if !breach {
				a.to(AlertInactive, now)
			} else if a.breaches++; a.breaches > a.forTicks {
				a.to(AlertFiring, now)
				fired = append(fired, firedAlert{a.rule.Name, a.firingReason()})
			}
		case AlertFiring:
			if !breach {
				a.to(AlertResolved, now)
				a.clears = 1
			}
		case AlertResolved:
			if breach {
				a.to(AlertFiring, now)
				fired = append(fired, firedAlert{a.rule.Name, a.firingReason()})
			} else if a.clears++; a.clears > a.hold {
				a.to(AlertInactive, now)
			}
		}
	}
	hooks := e.onFiring
	e.mu.Unlock()
	for _, f := range fired {
		for _, fn := range hooks {
			fn(f.name, f.reason)
		}
	}
}

// firingReason renders the degraded-health line for one alert; callers hold
// the engine lock.
func (a *alertInst) firingReason() string {
	worst := 0.0
	for _, b := range a.burn {
		if b > worst {
			worst = b
		}
	}
	return fmt.Sprintf("alert %s firing: %s over %g, burn rate %.1fx budget",
		a.rule.Name, a.rule.Series, a.rule.Target, worst)
}

func (a *alertInst) to(s AlertState, now time.Time) {
	a.state = s
	a.since = now
	a.transitions++
}

// Firing returns the names of currently firing alerts.
func (e *AlertEngine) Firing() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, a := range e.alerts {
		if a.state == AlertFiring {
			out = append(out, a.rule.Name)
		}
	}
	return out
}

// FiringReasons renders one /healthz degraded reason per firing alert.
func (e *AlertEngine) FiringReasons() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, a := range e.alerts {
		if a.state != AlertFiring {
			continue
		}
		out = append(out, a.firingReason())
	}
	return out
}

// WindowBurn is one window's last evaluated burn rate.
type WindowBurn struct {
	Ticks   int     `json:"ticks"`
	MaxBurn float64 `json:"max_burn"`
	Burn    float64 `json:"burn"`
}

// AlertStatus is one alert's slice of GET /v1/alerts.
type AlertStatus struct {
	Name         string       `json:"name"`
	Series       string       `json:"series"`
	Target       float64      `json:"target"`
	Objective    float64      `json:"objective"`
	State        string       `json:"state"`
	SinceSeconds float64      `json:"since_seconds,omitempty"`
	Windows      []WindowBurn `json:"windows"`
	Transitions  int64        `json:"transitions"`
}

// AlertsResponse is the body of GET /v1/alerts.
type AlertsResponse struct {
	Evals  int64         `json:"evals"`
	Firing int           `json:"firing"`
	Alerts []AlertStatus `json:"alerts"`
}

// Status snapshots every alert for GET /v1/alerts.
func (e *AlertEngine) Status() AlertsResponse {
	e.mu.Lock()
	defer e.mu.Unlock()
	resp := AlertsResponse{Alerts: make([]AlertStatus, 0, len(e.alerts)), Evals: e.evals}
	now := time.Now()
	for _, a := range e.alerts {
		st := AlertStatus{
			Name:        a.rule.Name,
			Series:      a.rule.Series,
			Target:      a.rule.Target,
			Objective:   a.rule.Objective,
			State:       a.state.String(),
			Windows:     make([]WindowBurn, len(a.rule.Windows)),
			Transitions: a.transitions,
		}
		if a.state != AlertInactive && !a.since.IsZero() {
			st.SinceSeconds = now.Sub(a.since).Seconds()
		}
		for wi, w := range a.rule.Windows {
			st.Windows[wi] = WindowBurn{Ticks: w.Ticks, MaxBurn: w.MaxBurn, Burn: a.burn[wi]}
		}
		if a.state == AlertFiring {
			resp.Firing++
		}
		resp.Alerts = append(resp.Alerts, st)
	}
	return resp
}

// ServeHTTP serves GET /v1/alerts.
func (e *AlertEngine) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(e.Status())
}

// DefaultBurnRateRules is the standard fast/slow multi-window pair over a
// latency series with the given target (same unit as the series), at a 99%
// tick objective. With the serving sampler (1s ticks) the fast rule fires
// after ~10% of a minute breaches and the slow rule catches sustained
// low-grade burn over the full 10-minute ring; both deployment shapes
// install the same pair, so /v1/alerts is shape-independent.
func DefaultBurnRateRules(series string, target float64) []AlertRule {
	return []AlertRule{
		{
			Name: series + "-slo-fast", Series: series,
			Target: target, Objective: 0.99,
			Windows:  []BurnWindow{{Ticks: 60, MaxBurn: 10}, {Ticks: 12, MaxBurn: 10}},
			ForTicks: 1,
		},
		{
			Name: series + "-slo-slow", Series: series,
			Target: target, Objective: 0.99,
			Windows:  []BurnWindow{{Ticks: 600, MaxBurn: 2}, {Ticks: 60, MaxBurn: 2}},
			ForTicks: 2,
		},
	}
}
