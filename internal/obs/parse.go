package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels map[string]string // nil when unlabeled
	Value  float64
}

// Samples is a parsed scrape with lookup helpers.
type Samples []Sample

// ParseText parses a Prometheus text-format exposition — the inverse of
// Registry.WriteText, used by `inkstat -watch` and by tests asserting the
// exposition stays parseable. Comment lines are validated structurally
// (`# HELP name …` / `# TYPE name type`); sample lines must be
// `name[{labels}] value`.
func ParseText(r io.Reader) (Samples, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var out Samples
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := checkComment(line); err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func checkComment(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free-form comment, allowed by the format
	}
	if len(fields) < 3 || !metricName.MatchString(fields[2]) {
		return fmt.Errorf("malformed %s comment %q", fields[1], line)
	}
	if fields[1] == "TYPE" {
		if len(fields) < 4 {
			return fmt.Errorf("TYPE comment missing type: %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.IndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[i+1 : end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return s, fmt.Errorf("sample %q has no value", line)
		}
		s.Name = rest[:sp]
		rest = strings.TrimSpace(rest[sp:])
	}
	if !metricName.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	// A trailing timestamp (optional in the format) or exemplar annotation
	// would appear as further fields; this repo writes neither, so reject
	// extra fields to keep the golden tests strict.
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		return s, fmt.Errorf("expected one value in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(f string) (float64, error) {
	switch f {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(f, 64)
}

func parseLabels(body string) (map[string]string, error) {
	body = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(body), ","))
	if body == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without value in %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		rest := strings.TrimSpace(body[eq+1:])
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		close := strings.IndexByte(rest[1:], '"')
		if close < 0 {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		out[key] = rest[1 : 1+close]
		body = strings.TrimPrefix(strings.TrimSpace(rest[close+2:]), ",")
		body = strings.TrimSpace(body)
	}
	return out, nil
}

// Get returns the value of the sample matching name and every k="v"
// constraint given as alternating key, value pairs.
func (ss Samples) Get(name string, kv ...string) (float64, bool) {
	for _, s := range ss {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// Family returns every sample named name.
func (ss Samples) Family(name string) Samples {
	var out Samples
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Buckets extracts the cumulative histogram buckets of family base
// (`base_bucket` samples) as parallel le/count slices sorted by le, with
// the +Inf bucket last.
func (ss Samples) Buckets(base string) (les, cum []float64) {
	type bk struct{ le, c float64 }
	var bks []bk
	for _, s := range ss.Family(base + "_bucket") {
		le, err := parseValue(s.Labels["le"])
		if err != nil {
			continue
		}
		bks = append(bks, bk{le, s.Value})
	}
	sort.Slice(bks, func(i, j int) bool { return bks[i].le < bks[j].le })
	for _, b := range bks {
		les = append(les, b.le)
		cum = append(cum, b.c)
	}
	return les, cum
}

// BucketQuantile estimates quantile q (0 < q <= 1) from cumulative
// histogram buckets (les ascending, +Inf last), interpolating within the
// chosen bucket — the standard Prometheus histogram_quantile estimator.
// Works equally on windowed deltas of two scrapes. Returns 0 when empty.
func BucketQuantile(les, cum []float64, q float64) float64 {
	if len(les) == 0 || len(cum) != len(les) {
		return 0
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	rank := q * total
	for i := range les {
		if cum[i] < rank {
			continue
		}
		if math.IsInf(les[i], 1) {
			// Overflow bucket: report the last finite bound.
			if len(les) > 1 {
				return les[len(les)-2]
			}
			return 0
		}
		var lo, prev float64
		if i > 0 {
			lo = les[i-1]
			prev = cum[i-1]
		}
		width := cum[i] - prev
		if width <= 0 {
			return les[i]
		}
		return lo + (les[i]-lo)*(rank-prev)/width
	}
	return les[len(les)-1]
}
