package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testRegistry() (*Registry, *Histogram) {
	reg := NewRegistry()
	var served float64 = 42
	reg.CounterFunc("ink_updates_total", "Updates served.", func() float64 { return served })
	reg.GaugeFunc("ink_pending", "Pending queue depth.", func() float64 { return 3 })
	reg.LabeledCounterFunc("ink_node_visits_total", "Visits by condition.", func() []LabeledValue {
		return SortedLabeled("condition", map[string]int64{"pruned": 7, "no-reset": 12})
	})
	h := NewHistogram(1024, 1<<16)
	reg.Histogram("ink_update_latency_seconds", "Update latency.", 1e-9, h)
	return reg, h
}

// TestExpositionGolden pins the exact text format: HELP/TYPE headers,
// label rendering, histogram bucket series.
func TestExpositionGolden(t *testing.T) {
	reg, h := testRegistry()
	h.Observe(1500) // bucket (1024, 2048]
	h.Observe(5000) // bucket (4096, 8192]
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# HELP ink_updates_total Updates served.
# TYPE ink_updates_total counter
ink_updates_total 42
# HELP ink_pending Pending queue depth.
# TYPE ink_pending gauge
ink_pending 3
# HELP ink_node_visits_total Visits by condition.
# TYPE ink_node_visits_total counter
ink_node_visits_total{condition="no-reset"} 12
ink_node_visits_total{condition="pruned"} 7
# HELP ink_update_latency_seconds Update latency.
# TYPE ink_update_latency_seconds histogram
ink_update_latency_seconds_bucket{le="1.024e-06"} 0
ink_update_latency_seconds_bucket{le="2.048e-06"} 1
ink_update_latency_seconds_bucket{le="4.096e-06"} 1
ink_update_latency_seconds_bucket{le="8.192e-06"} 2
ink_update_latency_seconds_bucket{le="1.6384e-05"} 2
ink_update_latency_seconds_bucket{le="3.2768e-05"} 2
ink_update_latency_seconds_bucket{le="6.5536e-05"} 2
ink_update_latency_seconds_bucket{le="+Inf"} 2
ink_update_latency_seconds_sum 6.5000000000000004e-06
ink_update_latency_seconds_count 2
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionParses round-trips the exposition through the parser and
// checks the Prometheus histogram invariants: buckets are cumulative and
// monotone, the +Inf bucket equals _count, and _sum is present.
func TestExpositionParses(t *testing.T) {
	reg, h := testRegistry()
	for i := int64(0); i < 50; i++ {
		h.Observe(1 << uint(i%18))
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if v, ok := samples.Get("ink_updates_total"); !ok || v != 42 {
		t.Errorf("ink_updates_total = %v, %v", v, ok)
	}
	if v, ok := samples.Get("ink_node_visits_total", "condition", "pruned"); !ok || v != 7 {
		t.Errorf("labeled lookup = %v, %v", v, ok)
	}

	les, cum := samples.Buckets("ink_update_latency_seconds")
	if len(les) == 0 {
		t.Fatal("no buckets parsed")
	}
	if !math.IsInf(les[len(les)-1], 1) {
		t.Fatal("last bucket is not +Inf")
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("buckets not cumulative at %d: %v", i, cum)
		}
	}
	count, ok := samples.Get("ink_update_latency_seconds_count")
	if !ok || count != cum[len(cum)-1] {
		t.Errorf("_count %v != +Inf bucket %v", count, cum[len(cum)-1])
	}
	if count != 50 {
		t.Errorf("_count = %v, want 50", count)
	}
	if _, ok := samples.Get("ink_update_latency_seconds_sum"); !ok {
		t.Error("_sum missing")
	}
}

func TestRegistryHandler(t *testing.T) {
	reg, _ := testRegistry()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if _, err := ParseText(rec.Body); err != nil {
		t.Errorf("handler output does not parse: %v", err)
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("ok_total", "", func() float64 { return 0 })
	for _, fn := range []func(){
		func() { reg.CounterFunc("ok_total", "", func() float64 { return 0 }) }, // duplicate
		func() { reg.GaugeFunc("bad name", "", func() float64 { return 0 }) },   // invalid
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad registration did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{
		"novalue\n",
		"name{le=\"unterminated} 1\n",
		"name 1 2 3\n",
		"# TYPE foo badtype\n",
		"0bad_name 1\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted", bad)
		}
	}
	// Free-form comments and empty lines are fine.
	ok := "# just a comment\n\nname 1\nname2{a=\"b\",c=\"d\"} +Inf\n"
	samples, err := ParseText(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[1].Labels["c"] != "d" {
		t.Errorf("samples = %+v", samples)
	}
}

func TestBucketQuantile(t *testing.T) {
	les := []float64{1, 2, 4, 8, math.Inf(1)}
	cum := []float64{10, 20, 40, 80, 80}
	// Median rank 40 lands exactly at the (2,4] bucket boundary.
	if q := BucketQuantile(les, cum, 0.5); q != 4 {
		t.Errorf("q50 = %g, want 4", q)
	}
	// q99 rank 79.2 inside (4,8]: 4 + 4*(79.2-40)/40 = 7.92.
	if q := BucketQuantile(les, cum, 0.99); math.Abs(q-7.92) > 1e-9 {
		t.Errorf("q99 = %g, want 7.92", q)
	}
	// All mass in +Inf resolves to the last finite bound.
	if q := BucketQuantile([]float64{1, math.Inf(1)}, []float64{0, 5}, 0.5); q != 1 {
		t.Errorf("overflow q = %g, want 1", q)
	}
	if q := BucketQuantile(nil, nil, 0.5); q != 0 {
		t.Errorf("empty q = %g", q)
	}
	if q := BucketQuantile(les, []float64{0, 0, 0, 0, 0}, 0.9); q != 0 {
		t.Errorf("zero-mass q = %g", q)
	}
}

func TestTraceRendering(t *testing.T) {
	tr := &Trace{
		Total:      312 * time.Microsecond,
		DeltaEdges: 16,
		DeltaApply: 8 * time.Microsecond,
		CondNames:  []string{"pruned", "no-reset"},
		Layers: []LayerSpan{
			{Layer: 0, EventsIn: 32, EventsOut: 118, Nodes: 45, BytesFetched: 1024,
				Cond: [MaxCond]int64{3, 42}, Elapsed: 54 * time.Microsecond},
			{Layer: 1, EventsIn: 118, Nodes: 60, Elapsed: 200 * time.Microsecond},
		},
	}
	if tr.Events() != 150 || tr.NodesVisited() != 105 {
		t.Errorf("events=%d nodes=%d", tr.Events(), tr.NodesVisited())
	}

	js, err := tr.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"total_us":312`, `"delta_edges":16`, `"pruned":3`, `"layer":1`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("trace JSON missing %q: %s", want, js)
		}
	}

	// Reset keeps capacity and names, zeroes data.
	tr.Reset(3)
	if len(tr.Layers) != 3 || tr.Layers[0].EventsIn != 0 || tr.Layers[2].Layer != 2 {
		t.Errorf("reset layers: %+v", tr.Layers)
	}
	if tr.CondNames == nil || tr.Total != 0 {
		t.Error("reset lost names or kept totals")
	}
}
