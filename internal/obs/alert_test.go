package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// alertHarness is a sampler whose single series replays a scripted value
// sequence, with an engine evaluating one rule over it.
type alertHarness struct {
	sampler *Sampler
	engine  *AlertEngine
	value   float64
}

func newAlertHarness(rules ...AlertRule) *alertHarness {
	h := &alertHarness{sampler: NewSampler(time.Second, 64)}
	h.sampler.Gauge("lat_ms", func() float64 { return h.value })
	h.engine = NewAlertEngine(h.sampler)
	h.engine.SetRules(rules...)
	return h
}

func (h *alertHarness) tick(v float64) { h.value = v; h.sampler.Tick() }

func (h *alertHarness) state(t *testing.T, name string) string {
	t.Helper()
	for _, a := range h.engine.Status().Alerts {
		if a.Name == name {
			return a.State
		}
	}
	t.Fatalf("alert %q not in status", name)
	return ""
}

func TestAlertEngineLifecycle(t *testing.T) {
	// One window of 4 ticks, burn limit 1 at objective 0.5: breached when
	// more than half the window's ticks exceed 10. ForTicks 2 → a pending
	// alert needs 3 consecutive breached evals (1 entering + 2 held) to fire.
	h := newAlertHarness(AlertRule{
		Name: "lat", Series: "lat_ms", Target: 10, Objective: 0.5,
		Windows:  []BurnWindow{{Ticks: 4, MaxBurn: 1}},
		ForTicks: 2,
	})

	h.tick(1)
	if got := h.state(t, "lat"); got != "inactive" {
		t.Fatalf("after quiet tick: %s", got)
	}
	// Bad ticks fill the window; the first breaching eval (error fraction
	// over half the budgeted rate) moves the alert to pending, and the
	// third consecutive breach promotes it to firing.
	h.tick(99)
	h.tick(99)
	if got := h.state(t, "lat"); got != "pending" {
		t.Fatalf("after 2 bad ticks: %s", got)
	}
	h.tick(99)
	if got := h.state(t, "lat"); got != "pending" {
		t.Fatalf("pending should hold for ForTicks evals: %s", got)
	}
	h.tick(99)
	if got := h.state(t, "lat"); got != "firing" {
		t.Fatalf("after 4 bad ticks: %s", got)
	}
	if firing := h.engine.Firing(); len(firing) != 1 || firing[0] != "lat" {
		t.Fatalf("Firing = %v", firing)
	}
	if reasons := h.engine.FiringReasons(); len(reasons) != 1 || !strings.Contains(reasons[0], "lat_ms") {
		t.Fatalf("FiringReasons = %v", reasons)
	}

	// Recovery: the window drains below the burn limit → resolved, then
	// after hold (longest window = 4) clear evals → inactive.
	for i := 0; i < 3; i++ {
		h.tick(1)
	}
	if got := h.state(t, "lat"); got != "resolved" {
		t.Fatalf("after recovery ticks: %s", got)
	}
	if len(h.engine.Firing()) != 0 {
		t.Fatalf("Firing after resolve = %v", h.engine.Firing())
	}
	for i := 0; i < 4; i++ {
		h.tick(1)
	}
	if got := h.state(t, "lat"); got != "inactive" {
		t.Fatalf("after hold: %s", got)
	}
}

func TestAlertEngineRefire(t *testing.T) {
	h := newAlertHarness(AlertRule{
		Name: "lat", Series: "lat_ms", Target: 10, Objective: 0.5,
		Windows: []BurnWindow{{Ticks: 2, MaxBurn: 1}},
	})
	h.tick(99)
	h.tick(99) // both window ticks bad: burn 2 > 1 → pending → firing
	if got := h.state(t, "lat"); got != "firing" {
		t.Fatalf("want firing, got %s", got)
	}
	h.tick(1)
	if got := h.state(t, "lat"); got != "resolved" {
		t.Fatalf("want resolved, got %s", got)
	}
	h.tick(99)
	h.tick(99) // re-breach while resolved goes straight back to firing
	if got := h.state(t, "lat"); got != "firing" {
		t.Fatalf("want re-fired, got %s", got)
	}
}

func TestAlertEngineMultiWindowGate(t *testing.T) {
	// A lone bad tick can push the short window's burn up, but the long
	// window (8 ticks) must also burn past its limit before the rule
	// counts as breached — the multi-window gate against blips.
	h := newAlertHarness(AlertRule{
		Name: "lat", Series: "lat_ms", Target: 10, Objective: 0.5,
		Windows: []BurnWindow{{Ticks: 8, MaxBurn: 1}, {Ticks: 2, MaxBurn: 1}},
	})
	for i := 0; i < 5; i++ {
		h.tick(1)
	}
	h.tick(99)
	if got := h.state(t, "lat"); got != "inactive" {
		t.Fatalf("short-window-only breach should not trip the rule: %s", got)
	}
	// Sustained breach fills the long window too.
	for i := 0; i < 6; i++ {
		h.tick(99)
	}
	if got := h.state(t, "lat"); got != "firing" {
		t.Fatalf("sustained breach: %s", got)
	}
}

func TestAlertEngineStatusAndServeHTTP(t *testing.T) {
	h := newAlertHarness(DefaultBurnRateRules("lat_ms", 10)...)
	for i := 0; i < 20; i++ {
		h.tick(99)
	}
	st := h.engine.Status()
	if len(st.Alerts) != 2 || st.Evals != 20 {
		t.Fatalf("status = %+v", st)
	}
	// The fast rule (12/60-tick windows, burn limit 10 at objective 0.99:
	// every tick bad → burn 100) must be firing; it is the first rule.
	if st.Alerts[0].Name != "lat_ms-slo-fast" || st.Alerts[0].State != "firing" {
		t.Fatalf("fast rule = %+v", st.Alerts[0])
	}
	if st.Firing < 1 {
		t.Fatalf("firing count = %d", st.Firing)
	}
	for _, w := range st.Alerts[0].Windows {
		if w.Burn <= w.MaxBurn {
			t.Fatalf("window %d burn %v not over limit %v", w.Ticks, w.Burn, w.MaxBurn)
		}
	}

	rec := httptest.NewRecorder()
	h.engine.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/alerts", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var body AlertsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Alerts) != 2 || body.Alerts[0].Series != "lat_ms" {
		t.Fatalf("body = %+v", body)
	}
}
