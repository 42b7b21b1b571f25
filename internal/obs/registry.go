package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry collects metric families and renders them in the Prometheus
// text exposition format (version 0.0.4) — the format every scraping stack
// understands, with no client-library dependency. Metrics are registered
// once at wiring time as closures and sampled at scrape time, so the hot
// path never touches the registry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]bool
}

// LabeledValue is one sample of a labeled family; Labels is the rendered
// label body, e.g. `condition="pruned"` (no braces).
type LabeledValue struct {
	Labels string
	Value  float64
}

type family struct {
	name, help, typ string
	// collect appends samples; suffix extends the family name (histogram
	// series) and labels is the rendered label body or "".
	collect func(emit func(suffix, labels string, v float64))
}

var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) register(name, help, typ string, collect func(emit func(string, string, float64))) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.byName[name] = true
	r.families = append(r.families, &family{name: name, help: help, typ: typ, collect: collect})
}

// CounterFunc registers a monotonically increasing value sampled by fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", func(emit func(string, string, float64)) {
		emit("", "", fn())
	})
}

// GaugeFunc registers an instantaneous value sampled by fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(emit func(string, string, float64)) {
		emit("", "", fn())
	})
}

// LabeledCounterFunc registers a counter family whose samples (one per
// label set) are produced by fn at scrape time.
func (r *Registry) LabeledCounterFunc(name, help string, fn func() []LabeledValue) {
	r.register(name, help, "counter", func(emit func(string, string, float64)) {
		for _, lv := range fn() {
			emit("", lv.Labels, lv.Value)
		}
	})
}

// Histogram registers h under name. scale converts stored values to the
// exposed unit (1e-9 turns nanosecond observations into the conventional
// seconds). The exposition carries cumulative `_bucket{le="…"}` series plus
// `_sum` and `_count`.
func (r *Registry) Histogram(name, help string, scale float64, h *Histogram) {
	if scale == 0 {
		scale = 1
	}
	r.register(name, help, "histogram", func(emit func(string, string, float64)) {
		s := h.Snapshot()
		var cum int64
		for i, b := range s.Bounds {
			cum += s.Counts[i]
			emit("_bucket", `le="`+formatFloat(float64(b)*scale)+`"`, float64(cum))
		}
		cum += s.Counts[len(s.Bounds)]
		emit("_bucket", `le="+Inf"`, float64(cum))
		emit("_sum", "", float64(s.Sum)*scale)
		emit("_count", "", float64(cum))
	})
}

// WriteText renders every registered family in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, sanitizeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.collect(func(suffix, labels string, v float64) {
			if labels != "" {
				fmt.Fprintf(bw, "%s%s{%s} %s\n", f.name, suffix, labels, formatFloat(v))
			} else {
				fmt.Fprintf(bw, "%s%s %s\n", f.name, suffix, formatFloat(v))
			}
		})
	}
	return bw.Flush()
}

// Handler serves the exposition over HTTP (mount at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// SortedLabeled renders a name→count map as LabeledValues with one
// `key="name"` label each, sorted by name for deterministic exposition.
func SortedLabeled(key string, counts map[string]int64) []LabeledValue {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]LabeledValue, 0, len(names))
	for _, n := range names {
		out = append(out, LabeledValue{
			Labels: key + `="` + n + `"`,
			Value:  float64(counts[n]),
		})
	}
	return out
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sanitizeHelp(h string) string {
	h = strings.ReplaceAll(h, "\\", `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}
