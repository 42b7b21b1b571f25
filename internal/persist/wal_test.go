package persist

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/tensor"
)

// The crash-recovery workflow: bundle + WAL replay reconstructs the exact
// engine state that the "crashed" process held.
func TestWALRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 50, 150)
	x := tensor.RandMatrix(rng, 50, 6, 1)
	model := gnn.NewSAGE(rng, 6, 8, gnn.NewAggregator(gnn.AggMax))
	eng, err := inkstream.New(model, g, x, nil, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	bundlePath := filepath.Join(dir, "engine.inkb")
	walPath := filepath.Join(dir, "updates.wal")
	if err := SaveBundleFile(bundlePath, eng.Graph(), model, eng.State()); err != nil {
		t.Fatal(err)
	}
	wal, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Live process: apply batches, logging each BEFORE applying.
	for batch := 0; batch < 3; batch++ {
		delta := graph.RandomDelta(rng, eng.Graph(), 8)
		var vups []inkstream.VertexUpdate
		if batch == 1 {
			vups = []inkstream.VertexUpdate{{Node: 7, X: tensor.RandVector(rng, 6, 1)}}
		}
		if err := wal.Append(delta, vups); err != nil {
			t.Fatal(err)
		}
		if err := eng.Apply(delta, vups); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash": recover from bundle + WAL in a fresh engine.
	g2, m2, s2, err := LoadBundleFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := inkstream.NewFromState(m2, g2, s2, nil, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches, torn, err := ReadWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean WAL reported torn")
	}
	if len(batches) != 3 {
		t.Fatalf("WAL has %d batches", len(batches))
	}
	if rej := Replay(recovered, batches); len(rej) > 0 {
		t.Fatalf("replay refused %d records, first: %+v", len(rej), rej[0])
	}
	if !recovered.State().Equal(eng.State()) {
		t.Error("recovered state differs from the live engine")
	}
	if recovered.Graph().NumEdges() != eng.Graph().NumEdges() {
		t.Error("recovered graph differs")
	}
}

// Group commit: several buffered records become durable under one Commit
// and replay identically to individually synced appends.
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "group.wal")
	wal, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	group := []graph.Delta{
		{{U: 1, V: 2, Insert: true}},
		{{U: 2, V: 3, Insert: true}},
		{{U: 3, V: 4, Insert: true}},
	}
	for _, d := range group {
		if err := wal.AppendBuffered(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Before the commit barrier nothing is guaranteed on disk; after it,
	// every record of the group is.
	if err := wal.Commit(); err != nil {
		t.Fatal(err)
	}
	batches, torn, err := ReadWAL(path)
	if err != nil || torn {
		t.Fatalf("read: %v torn=%v", err, torn)
	}
	if len(batches) != len(group) {
		t.Fatalf("recovered %d batches, want %d", len(batches), len(group))
	}
	for i, b := range batches {
		if b.Delta[0] != group[i][0] {
			t.Errorf("batch %d: %+v, want %+v", i, b.Delta[0], group[i][0])
		}
	}
	// A second empty commit is a harmless no-op.
	if err := wal.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALAppendAllocs: a buffered append encodes header and payload into
// the log's own buffer and writes it once, allocating nothing.
func TestWALAppendAllocs(t *testing.T) {
	wal, err := OpenWAL(filepath.Join(t.TempDir(), "allocs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	delta := make(graph.Delta, 64)
	for i := range delta {
		delta[i] = graph.EdgeChange{U: graph.NodeID(i), V: graph.NodeID(i + 1), Insert: i%2 == 0}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := wal.AppendBuffered(delta, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendBuffered of a 64-change record allocates %v times, want 0", allocs)
	}
}

// TestWALReplayRefusesNonFinite: the journal runs ahead of validation, so a
// feature row holding a NaN is in the log; replay refuses it again with
// inkstream.ErrNonFinite and goes on, ending where the live engine did.
func TestWALReplayRefusesNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 30, 90)
	x := tensor.RandMatrix(rng, 30, 6, 1)
	model := gnn.NewSAGE(rng, 6, 8, gnn.NewAggregator(gnn.AggMax))
	live, err := inkstream.New(model, g.Clone(), x, nil, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := inkstream.New(model, g, x, nil, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nan.wal")
	wal, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.RandVector(rng, 6, 1)
	bad[0] = float32(math.NaN())
	for i := 0; i < 3; i++ {
		delta := graph.RandomDelta(rng, live.Graph(), 4)
		vups := []inkstream.VertexUpdate{{Node: 7, X: tensor.RandVector(rng, 6, 1)}}
		if i == 1 {
			vups[0].X = bad
		}
		if err := wal.Append(delta, vups); err != nil {
			t.Fatal(err)
		}
		if err := live.Apply(delta, vups); (err != nil) != (i == 1) {
			t.Fatalf("live batch %d: %v", i, err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	batches, _, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	rej := Replay(replayed, batches)
	if len(rej) != 1 || rej[0].Index != 1 || !errors.Is(rej[0].Err, inkstream.ErrNonFinite) {
		t.Fatalf("replay refused %+v, want record 1 with ErrNonFinite", rej)
	}
	if !replayed.State().Equal(live.State()) {
		t.Fatal("replayed state differs from the live engine")
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.wal")
	wal, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(graph.Delta{{U: 1, V: 2, Insert: true}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(graph.Delta{{U: 3, V: 4, Insert: true}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: truncate into the second record.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	batches, torn, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Error("torn tail not reported")
	}
	if len(batches) != 1 || batches[0].Delta[0].U != 1 {
		t.Errorf("recovered %d batches", len(batches))
	}
	// Reopening cuts the torn bytes off, so a record appended after the
	// crash is replayed instead of hiding behind them.
	wal, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(graph.Delta{{U: 5, V: 6, Insert: true}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	batches, torn, err = ReadWAL(path)
	if err != nil || torn {
		t.Fatalf("after reopen: %v torn=%v", err, torn)
	}
	if len(batches) != 2 || batches[1].Delta[0].U != 5 {
		t.Errorf("after reopen: recovered %d batches, want the survivor and the new record", len(batches))
	}
}

func TestWALRejectsCorruptMarker(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.wal")
	if err := os.WriteFile(path, []byte("Xgarbage-record"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadWAL(path); err == nil {
		t.Error("corrupt marker accepted")
	}
}

func TestWALEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.wal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	batches, torn, err := ReadWAL(empty)
	if err != nil || torn || len(batches) != 0 {
		t.Errorf("empty WAL: %v %v %d", err, torn, len(batches))
	}
	if _, _, err := ReadWAL(filepath.Join(dir, "missing.wal")); err == nil {
		t.Error("missing file accepted")
	}
}
