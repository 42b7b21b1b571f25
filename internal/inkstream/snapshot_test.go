package inkstream

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func newSnapEngine(t testing.TB, nodes int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	g := dataset.GenerateRMAT(rng, nodes, 4*nodes, dataset.DefaultRMAT)
	feats := dataset.NewFeatures(rng, nodes, 8)
	model := gnn.NewGCN(rng, 8, 16, gnn.NewAggregator(gnn.AggMax))
	eng, err := New(model, g, feats.X, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// freshHalf reports whether a publish after the first, from a table of
// from rows to one of n rows, with dirty the rows written since, re-copies
// at least half of n — the rows past from and the dirty rows before it —
// and so takes one copy of the output for all its rows.
func freshHalf(dirty []graph.NodeID, from, n int) bool {
	fresh := n - from
	for _, id := range dirty {
		if int(id) < from {
			fresh++
		}
	}
	return 2*fresh >= n
}

// oneCopy checks that the rows of s lie, in order, in one backing array
// that is not out's own storage.
func oneCopy(t *testing.T, what string, s *Snapshot, out *tensor.Matrix) {
	t.Helper()
	base := unsafe.Pointer(unsafe.SliceData(s.Row(0)))
	if base == unsafe.Pointer(unsafe.SliceData(out.Data)) {
		t.Fatalf("%s: snapshot rows are the engine's output storage", what)
	}
	for i := 0; i < s.NumNodes(); i++ {
		if unsafe.Pointer(unsafe.SliceData(s.Row(i))) != unsafe.Add(base, 4*i*out.Cols) {
			t.Fatalf("%s: row %d is not in the snapshot's one copy of the output", what, i)
		}
	}
}

func TestSnapshotPublishAndCOW(t *testing.T) {
	eng := newSnapEngine(t, 120)
	if eng.Snapshot() != nil {
		t.Fatal("snapshot before first publish")
	}
	if rows := eng.DirtyRows(); rows != nil {
		t.Fatalf("dirty rows before tracking: %v", rows)
	}

	s1 := eng.PublishSnapshot()
	if s1.Epoch != 1 || s1.NumNodes() != 120 {
		t.Fatalf("first snapshot epoch=%d nodes=%d", s1.Epoch, s1.NumNodes())
	}
	if s1.Nodes != 120 || s1.Edges != eng.Graph().NumEdges() {
		t.Fatalf("snapshot graph summary %d/%d", s1.Nodes, s1.Edges)
	}
	for i := 0; i < 120; i++ {
		if !s1.Row(i).Equal(eng.Output().Row(i)) {
			t.Fatalf("row %d differs from engine output", i)
		}
	}

	// One update batch: the dirty set must be exactly the changed rows.
	rng := rand.New(rand.NewSource(6))
	delta := graph.RandomDelta(rng, eng.Graph(), 5)
	if err := eng.Update(delta); err != nil {
		t.Fatal(err)
	}
	dirty := eng.DirtyRows()
	dirtySet := make(map[graph.NodeID]bool, len(dirty))
	for _, id := range dirty {
		dirtySet[id] = true
	}
	for i := 0; i < 120; i++ {
		changed := !s1.Row(i).Equal(eng.Output().Row(i))
		if changed && !dirtySet[graph.NodeID(i)] {
			t.Errorf("row %d changed but not marked dirty", i)
		}
	}

	if freshHalf(dirty, 120, 120) {
		t.Fatalf("%d of 120 rows dirty: the copy-on-write publish below needs fewer than half", len(dirty))
	}
	s2 := eng.PublishSnapshot()
	if s2.Epoch != 2 {
		t.Fatalf("second snapshot epoch %d", s2.Epoch)
	}
	if s2.AppliedBatches != 1 || s1.AppliedBatches != 0 {
		t.Fatalf("applied batches s1=%d s2=%d", s1.AppliedBatches, s2.AppliedBatches)
	}
	if eng.DirtyRows() != nil {
		t.Error("dirty rows survive publication")
	}
	for i := 0; i < 120; i++ {
		if !s2.Row(i).Equal(eng.Output().Row(i)) {
			t.Fatalf("row %d stale in new snapshot", i)
		}
		// Copy-on-write: clean rows share storage with the previous epoch,
		// dirty rows were re-cloned.
		shared := len(s1.Row(i)) > 0 && &s1.Row(i)[0] == &s2.Row(i)[0]
		if dirtySet[graph.NodeID(i)] && shared {
			t.Errorf("dirty row %d shares storage across epochs", i)
		}
		if !dirtySet[graph.NodeID(i)] && !shared {
			t.Errorf("clean row %d was needlessly re-cloned", i)
		}
	}
	// The old snapshot is immutable: it still reflects epoch 1.
	for i := 0; i < 120; i++ {
		if dirtySet[graph.NodeID(i)] && s1.Row(i).Equal(s2.Row(i)) {
			continue // row changed back or clone equal; fine either way
		}
	}

	// A batch that dirties at least half the rows: the publish copies the
	// output once, and no row shares storage with the previous epoch.
	if err := eng.Update(graph.RandomDelta(rng, eng.Graph(), 40)); err != nil {
		t.Fatal(err)
	}
	if dirty := eng.DirtyRows(); !freshHalf(dirty, 120, 120) {
		t.Fatalf("%d of 120 rows dirty: the one-copy publish below needs at least half", len(dirty))
	}
	s3 := eng.PublishSnapshot()
	for i := 0; i < 120; i++ {
		if !s3.Row(i).Equal(eng.Output().Row(i)) {
			t.Fatalf("row %d stale in the one-copy snapshot", i)
		}
		if &s2.Row(i)[0] == &s3.Row(i)[0] {
			t.Errorf("row %d shares storage with the previous epoch after a one-copy publish", i)
		}
	}
	oneCopy(t, "one-copy publish", s3, eng.Output())
}

// TestSnapshotAddNodeGrowth grows the snapshot across chunk boundaries: a
// partial last chunk that fills up and spills into a new one (63 → 65) and
// a full last chunk followed by a fresh one (128 → 129). Every row reads
// back as the engine's output and the superseded snapshot keeps its old row
// count. Below half the rows fresh, clean rows stay shared; at or above it,
// every row lies in one copy of the output. The new node's features decide
// which: zero features leave few rows dirty, others most of them.
func TestSnapshotAddNodeGrowth(t *testing.T) {
	var below, above bool
	for _, tc := range []struct {
		from, to int
		feat     float32
	}{{120, 121, 0}, {63, 65, 0}, {128, 129, 0}, {120, 121, 1}, {63, 65, 1}, {128, 129, 1}} {
		eng := newSnapEngine(t, tc.from)
		s1 := eng.PublishSnapshot()
		x := make(tensor.Vector, 8)
		for k := tc.from; k < tc.to; k++ {
			x[0] = tc.feat * float32(k)
			id, err := eng.AddNode(x)
			if err != nil {
				t.Fatal(err)
			}
			if int(id) != k {
				t.Fatalf("AddNode id %d, want %d", id, k)
			}
		}
		if err := eng.Update(graph.Delta{{U: 0, V: graph.NodeID(tc.to - 1), Insert: true}}); err != nil {
			t.Fatal(err)
		}
		dirty := map[graph.NodeID]bool{}
		for _, id := range eng.DirtyRows() {
			dirty[id] = true
		}
		half := freshHalf(eng.DirtyRows(), tc.from, tc.to)
		below, above = below || !half, above || half
		s2 := eng.PublishSnapshot()
		if s1.NumNodes() != tc.from || s2.NumNodes() != tc.to {
			t.Fatalf("%d→%d: snapshot rows %d then %d", tc.from, tc.to, s1.NumNodes(), s2.NumNodes())
		}
		for i := 0; i < tc.to; i++ {
			if !s2.Row(i).Equal(eng.Output().Row(i)) {
				t.Fatalf("%d→%d: row %d differs from engine output", tc.from, tc.to, i)
			}
			if !half && i < tc.from && !dirty[graph.NodeID(i)] && &s1.Row(i)[0] != &s2.Row(i)[0] {
				t.Errorf("%d→%d: clean row %d was re-cloned", tc.from, tc.to, i)
			}
		}
		if half {
			oneCopy(t, fmt.Sprintf("%d→%d", tc.from, tc.to), s2, eng.Output())
		}
	}
	if !below || !above {
		t.Fatalf("a publish below half the rows fresh %v, at or above it %v; want both", below, above)
	}
}

// TestSnapshotHeldAcrossPublishes: a snapshot a reader holds is never
// written by later publications, however many of its chunks they copy —
// one at a time (few dirty chunks) or all at once (at least half dirty).
func TestSnapshotHeldAcrossPublishes(t *testing.T) {
	eng := newSnapEngine(t, 1000)
	held := eng.PublishSnapshot()
	want := make([]tensor.Vector, held.NumNodes())
	for i := range want {
		want[i] = held.Row(i).Clone()
	}
	nchunks := (held.NumNodes() + chunkRows - 1) / chunkRows
	rng := rand.New(rand.NewSource(8))
	chunks := map[int]bool{}
	var few, most bool
	for p := 0; p < 50; p++ {
		size := 1
		if p%5 == 4 {
			size = 64
		}
		if err := eng.Update(graph.RandomDelta(rng, eng.Graph(), size)); err != nil {
			t.Fatal(err)
		}
		dirty := map[int]bool{}
		for _, id := range eng.DirtyRows() {
			dirty[int(id)>>chunkShift] = true
			chunks[int(id)>>chunkShift] = true
		}
		few = few || len(dirty) > 0 && 2*len(dirty) < nchunks
		most = most || 2*len(dirty) >= nchunks
		s := eng.PublishSnapshot()
		for i := 0; i < s.NumNodes(); i++ {
			if !s.Row(i).Equal(eng.Output().Row(i)) {
				t.Fatalf("publish %d: row %d differs from engine output", p, i)
			}
		}
	}
	if len(chunks) < 3 || !few || !most {
		t.Fatalf("dirty rows spanned %d chunks (want >= 3); a publish with few dirty chunks %v, with most %v", len(chunks), few, most)
	}
	if held.NumNodes() != len(want) {
		t.Fatalf("held snapshot rows %d, want %d", held.NumNodes(), len(want))
	}
	for i, w := range want {
		if !held.Row(i).Equal(w) {
			t.Fatalf("held snapshot row %d changed after later publishes", i)
		}
	}
}

// TestSnapshotPublishAllocs pins publication cost to the dirty rows: on a
// 3.7 k-row engine, publishing 5 dirty rows that sit in 5 different chunks
// allocates the chunk table, 5 chunks and 5 rows — well under what one
// n-entry row-pointer array (~90 KB) would cost. Publishing with every row
// dirty allocates a constant number of objects: the snapshot, its chunk
// table, one flat array of row headers and one copy of the output.
func TestSnapshotPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	eng := newSnapEngine(t, 3700)
	eng.PublishSnapshot()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < 5; k++ {
				eng.markDirty(graph.NodeID(k * 700))
			}
			eng.PublishSnapshot()
		}
	})
	if got := res.AllocedBytesPerOp(); got > 12<<10 {
		t.Fatalf("5-dirty-row publish allocates %d B/op, want <= %d", got, 12<<10)
	}
	allDirty := testing.AllocsPerRun(20, func() {
		for k := 0; k < 3700; k++ {
			eng.markDirty(graph.NodeID(k))
		}
		eng.PublishSnapshot()
	})
	if allDirty > 4 {
		t.Fatalf("all-dirty publish makes %g allocations, want <= 4", allDirty)
	}
}
