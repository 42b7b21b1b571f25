package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// TestRegistryParserRoundTrip is the exposition contract test: ParseText
// must parse exactly what Registry.Handler()/WriteText emits — counters,
// gauges, labeled families and histogram bucket/sum/count series — and the
// parsed values must equal the registered ones.
func TestRegistryParserRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("rt_requests_total", "Requests.", func() float64 { return 42 })
	r.GaugeFunc("rt_temperature", "Degrees.", func() float64 { return -3.5 })
	r.LabeledCounterFunc("rt_visits_total", "Visits.", func() []LabeledValue {
		return SortedLabeled("kind", map[string]int64{"a": 7, "b": 9})
	})

	h := NewLatencyHistogram()
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(40 * time.Microsecond)
	r.Histogram("rt_latency_seconds", "Latency.", 1e-9, h)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}

	if v, ok := samples.Get("rt_requests_total"); !ok || v != 42 {
		t.Errorf("counter: got %v ok=%v", v, ok)
	}
	if v, ok := samples.Get("rt_temperature"); !ok || v != -3.5 {
		t.Errorf("gauge: got %v ok=%v", v, ok)
	}
	if v, ok := samples.Get("rt_visits_total", "kind", "b"); !ok || v != 9 {
		t.Errorf("labeled counter: got %v ok=%v", v, ok)
	}

	// Histogram series: count, sum and monotone cumulative buckets ending in
	// +Inf at the total count.
	if v, ok := samples.Get("rt_latency_seconds_count"); !ok || v != 2 {
		t.Errorf("hist count: got %v ok=%v", v, ok)
	}
	wantSum := (3*time.Millisecond + 40*time.Microsecond).Seconds()
	if v, ok := samples.Get("rt_latency_seconds_sum"); !ok || math.Abs(v-wantSum) > 1e-12 {
		t.Errorf("hist sum: got %v want %v", v, wantSum)
	}
	les, cum := samples.Buckets("rt_latency_seconds")
	if len(les) == 0 || !math.IsInf(les[len(les)-1], 1) {
		t.Fatalf("buckets must end at +Inf: %v", les)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("buckets not cumulative: %v", cum)
		}
	}
	if cum[len(cum)-1] != 2 {
		t.Errorf("+Inf bucket %v, want 2", cum[len(cum)-1])
	}
}

// TestRuntimeFamiliesRoundTrip extends the exposition contract to the
// runtime telemetry plane's gauges and GC-pause histogram.
func TestRuntimeFamiliesRoundTrip(t *testing.T) {
	r := NewRegistry()
	rt := NewRuntime()
	rt.Collect()
	rt.Register(r)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}

	if v, ok := samples.Get("inkstream_runtime_heap_inuse_bytes"); !ok || v <= 0 {
		t.Errorf("heap gauge: got %v ok=%v", v, ok)
	}
	if v, ok := samples.Get("inkstream_runtime_goroutines"); !ok || v < 1 {
		t.Errorf("goroutines gauge: got %v ok=%v", v, ok)
	}
	if v, ok := samples.Get("inkstream_runtime_gc_cpu_fraction"); !ok || v < 0 || v > 1 {
		t.Errorf("gc cpu fraction gauge: got %v ok=%v", v, ok)
	}
	// The pause histogram exposes a well-formed cumulative bucket series.
	les, cum := samples.Buckets("inkstream_runtime_gc_pause_seconds")
	if len(les) == 0 || !math.IsInf(les[len(les)-1], 1) {
		t.Fatalf("gc pause buckets must end at +Inf: %v", les)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("gc pause buckets not cumulative: %v", cum)
		}
	}
}

// TestParseExemplarErrors: the registry writes no exemplar annotations, so
// the strict parser rejects any, well-formed or not, instead of silently
// dropping them.
func TestParseExemplarErrors(t *testing.T) {
	for _, line := range []string{
		`m_bucket{le="1"} 2 # 0.5`,                               // no label set
		`m_bucket{le="1"} 2 # {trace_id="aa"`,                    // unterminated
		`m_bucket{le="1"} 2 # {trace_id="00000000000000aa"} 0.5`, // well-formed
	} {
		if _, err := ParseText(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
}
