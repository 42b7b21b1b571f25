package graph

import "math/rand"

// Stream models a dynamic graph as an initial snapshot plus a sequence of
// ΔG batches of BatchSize changes each. Every batch is a RandomDelta drawn
// against the state the previous batches produced: half of its changes
// delete existing edges and the rest insert new ones.
type Stream struct {
	// Initial is the snapshot at timestamp 0. Batches do not mutate it;
	// callers clone it and apply batches in order.
	Initial *Graph
	// Batches[i] transforms the graph at timestamp i into timestamp i+1.
	Batches []Delta
}

// StreamConfig controls GenerateStream.
type StreamConfig struct {
	// BatchSize is ΔG, the number of changed edges per timestamp.
	BatchSize int
	// NumBatches is the number of timestamps to generate.
	NumBatches int
	// Seed makes the stream reproducible.
	Seed int64
}

// GenerateStream derives a reproducible dynamic stream from a base graph.
// Each batch is drawn against the state produced by the previous batches,
// so every batch validates against its own pre-state.
func GenerateStream(base *Graph, cfg StreamConfig) *Stream {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Stream{Initial: base.Clone()}
	work := base.Clone()
	for i := 0; i < cfg.NumBatches; i++ {
		d := RandomDelta(rng, work, cfg.BatchSize)
		if err := d.Apply(work); err != nil {
			panic("graph: generated delta failed to apply: " + err.Error())
		}
		s.Batches = append(s.Batches, d)
	}
	return s
}

// At returns a fresh copy of the graph state at timestamp t (after t
// batches have been applied). t = 0 is the initial snapshot.
func (s *Stream) At(t int) *Graph {
	g := s.Initial.Clone()
	for i := 0; i < t; i++ {
		if err := s.Batches[i].Apply(g); err != nil {
			panic("graph: stream replay failed: " + err.Error())
		}
	}
	return g
}
