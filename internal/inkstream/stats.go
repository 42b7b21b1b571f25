package inkstream

import (
	"fmt"

	"repro/internal/obs"
)

// Condition classifies how one visited node in one layer was handled — the
// taxonomy behind the paper's Fig. 8 and the pruning statistics of
// Table V. A visit has one class, decided by what it cost: a native visit
// whose α or embedding survived is CondPruned unless it paid a neighborhood
// scan, in which case it stays CondExposedReset (its propagation is pruned
// all the same).
type Condition uint8

const (
	// CondPruned: the node received events but its embedding was unchanged
	// (resilient); its propagation subtree was pruned.
	CondPruned Condition = iota
	// CondNoReset: incremental update applied with no reset channel.
	CondNoReset
	// CondCoveredReset: reset channels were covered by the added messages;
	// incremental update applied.
	CondCoveredReset
	// CondExposedReset: some reset channels not covered; the neighborhood was
	// scanned to rebuild those channels (the whole row for a previously
	// isolated node and under DisableGrouping).
	CondExposedReset
	// CondAccumulative: accumulative-layer incremental update (always
	// applicable, never pruned).
	CondAccumulative
	// CondSelfOnly: no native events; the node was reprocessed only
	// because its own message changed (self-dependent layers).
	CondSelfOnly

	numConditions
)

// The taxonomy must fit the fixed condition array of an obs.LayerSpan.
var _ [obs.MaxCond - int(numConditions)]struct{}

// ConditionNames returns the display name of every condition, indexed by
// Condition value — the label vocabulary of trace rendering and the
// /metrics per-condition counters.
func ConditionNames() []string {
	out := make([]string, numConditions)
	for c := Condition(0); c < numConditions; c++ {
		out[c] = c.String()
	}
	return out
}

func (c Condition) String() string {
	switch c {
	case CondPruned:
		return "pruned"
	case CondNoReset:
		return "no-reset"
	case CondCoveredReset:
		return "covered-reset"
	case CondExposedReset:
		return "exposed-reset"
	case CondAccumulative:
		return "accumulative"
	case CondSelfOnly:
		return "self-only"
	}
	return fmt.Sprintf("Condition(%d)", uint8(c))
}

// ConditionStats counts node visits per condition across one or more
// update batches.
type ConditionStats struct {
	Counts [numConditions]int64
}

// Add increments the counter for c.
func (s *ConditionStats) Add(c Condition) { s.Counts[c]++ }

// Merge accumulates o into s.
func (s *ConditionStats) Merge(o *ConditionStats) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
}

// Total returns the number of classified node visits.
func (s *ConditionStats) Total() int64 {
	var t int64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Fraction returns the share of visits classified as c (0 when empty).
func (s *ConditionStats) Fraction(c Condition) float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.Counts[c]) / float64(t)
}

// Incremental returns the share of visits updated incrementally, i.e. from
// the grouped events alone with no neighborhood fetch (no-reset +
// covered-reset + accumulative).
func (s *ConditionStats) Incremental() float64 {
	return s.Fraction(CondNoReset) + s.Fraction(CondCoveredReset) + s.Fraction(CondAccumulative)
}

func (s *ConditionStats) String() string {
	out := ""
	for c := Condition(0); c < numConditions; c++ {
		if s.Counts[c] == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", c, s.Counts[c])
	}
	if out == "" {
		return "no visits"
	}
	return out
}
