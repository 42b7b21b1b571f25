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

// freshBlocks returns which blocks a publish after the first, from a
// snapshot of from rows to one of n rows, with dirty the rows written
// since, re-copies: those that hold a dirty row or a row past from.
func freshBlocks(dirty []graph.NodeID, from, n int) map[int]bool {
	fresh := map[int]bool{}
	for i := from; i < n; i++ {
		fresh[i>>blockShift] = true
	}
	for _, id := range dirty {
		fresh[int(id)>>blockShift] = true
	}
	return fresh
}

// freshHalf reports whether such a publish re-copies at least half of the
// n rows' blocks, and so takes one copy of the output for all its rows.
func freshHalf(dirty []graph.NodeID, from, n int) bool {
	return 2*len(freshBlocks(dirty, from, n)) >= (n+blockRows-1)>>blockShift
}

// sharedBelowHalf checks a publish that stayed below half: every group of
// s that holds no fresh block is old's group itself, every group that holds
// one is a private copy, and every block that is not fresh is old's storage
// while every fresh one is new storage.
func sharedBelowHalf(t *testing.T, what string, old, s *Snapshot, fresh map[int]bool) {
	t.Helper()
	for gi, g := range s.root {
		touched := false
		for k := range groupBlocks {
			touched = touched || fresh[gi<<groupShift+k]
		}
		if gi < len(old.root) && (g == old.root[gi]) == touched {
			t.Errorf("%s: group %d holds a fresh block %v, yet is the previous snapshot's own %v", what, gi, touched, g == old.root[gi])
		}
	}
	for b := 0; b<<blockShift < old.NumNodes(); b++ {
		cur := unsafe.SliceData(s.root[b>>groupShift][b&(groupBlocks-1)])
		prev := unsafe.SliceData(old.root[b>>groupShift][b&(groupBlocks-1)])
		if (cur == prev) == fresh[b] {
			t.Errorf("%s: block %d is fresh %v, yet shares the previous snapshot's storage %v", what, b, fresh[b], cur == prev)
		}
	}
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
	const n = 400
	eng := newSnapEngine(t, n)
	if eng.Snapshot() != nil {
		t.Fatal("snapshot before first publish")
	}
	if rows := eng.DirtyRows(); rows != nil {
		t.Fatalf("dirty rows before tracking: %v", rows)
	}

	s1 := eng.PublishSnapshot()
	if s1.Epoch != 1 || s1.NumNodes() != n {
		t.Fatalf("first snapshot epoch=%d nodes=%d", s1.Epoch, s1.NumNodes())
	}
	if s1.Nodes != n || s1.Edges != eng.Graph().NumEdges() {
		t.Fatalf("snapshot graph summary %d/%d", s1.Nodes, s1.Edges)
	}
	epoch1 := make([]tensor.Vector, n)
	for i := 0; i < n; i++ {
		if !s1.Row(i).Equal(eng.Output().Row(i)) {
			t.Fatalf("row %d differs from engine output", i)
		}
		epoch1[i] = s1.Row(i).Clone()
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
	for i := 0; i < n; i++ {
		changed := !s1.Row(i).Equal(eng.Output().Row(i))
		if changed && !dirtySet[graph.NodeID(i)] {
			t.Errorf("row %d changed but not marked dirty", i)
		}
	}

	if freshHalf(dirty, n, n) {
		t.Fatalf("%d of %d rows dirty: the copy-on-write publish below needs fewer than half the blocks", len(dirty), n)
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
	fresh := freshBlocks(dirty, n, n)
	for i := 0; i < n; i++ {
		if !s2.Row(i).Equal(eng.Output().Row(i)) {
			t.Fatalf("row %d stale in new snapshot", i)
		}
		// Copy-on-write: rows of clean blocks share storage with the
		// previous epoch, rows of blocks holding a dirty row were re-copied.
		shared := len(s1.Row(i)) > 0 && &s1.Row(i)[0] == &s2.Row(i)[0]
		if dirtySet[graph.NodeID(i)] && shared {
			t.Errorf("dirty row %d shares storage across epochs", i)
		}
		if !fresh[i>>blockShift] && !shared {
			t.Errorf("row %d of a clean block was needlessly re-copied", i)
		}
	}
	sharedBelowHalf(t, "copy-on-write publish", s1, s2, fresh)
	// The old snapshot is immutable: it still reflects epoch 1.
	for i := 0; i < n; i++ {
		if !s1.Row(i).Equal(epoch1[i]) {
			t.Fatalf("row %d of the epoch-1 snapshot changed after the next publish", i)
		}
	}

	// A batch that dirties at least half the blocks: the publish copies the
	// output once, and no row shares storage with the previous epoch.
	if err := eng.Update(graph.RandomDelta(rng, eng.Graph(), 40)); err != nil {
		t.Fatal(err)
	}
	if dirty := eng.DirtyRows(); !freshHalf(dirty, n, n) {
		t.Fatalf("%d of %d rows dirty: the one-copy publish below needs at least half the blocks", len(dirty), n)
	}
	s3 := eng.PublishSnapshot()
	for i := 0; i < n; i++ {
		if !s3.Row(i).Equal(eng.Output().Row(i)) {
			t.Fatalf("row %d stale in the one-copy snapshot", i)
		}
		if &s2.Row(i)[0] == &s3.Row(i)[0] {
			t.Errorf("row %d shares storage with the previous epoch after a one-copy publish", i)
		}
	}
	oneCopy(t, "one-copy publish", s3, eng.Output())

	// One marked row copies its block and group only: every other group
	// is the previous snapshot's own, also when that one was a single copy.
	eng.markDirty(3)
	s4 := eng.PublishSnapshot()
	if len(s4.root) < 2 {
		t.Fatalf("%d rows fill %d group, want several", n, len(s4.root))
	}
	sharedBelowHalf(t, "one-row publish", s3, s4, map[int]bool{3 >> blockShift: true})
}

// TestSnapshotAddNodeGrowth grows the snapshot across block and group
// boundaries: a partial last block that fills up and spills into a new one
// (63 → 65), a full last block followed by a fresh one (120 → 121,
// 128 → 129), a partial last group that spills into a new group
// (groupRows−1 → groupRows+1) and a full last group followed by a fresh one
// (groupRows → groupRows+1). Every row reads back as the engine's output and
// the superseded snapshot keeps its old row count. Below half the blocks
// fresh, clean blocks and groups stay shared; at or above it, every row lies
// in one copy of the output. The new node's features decide which: zero
// features leave few rows dirty, others most of them.
func TestSnapshotAddNodeGrowth(t *testing.T) {
	const groupRows = blockRows * groupBlocks
	var below, above bool
	for _, tc := range []struct {
		from, to int
		feat     float32
	}{
		{120, 121, 0}, {63, 65, 0}, {128, 129, 0}, {120, 121, 1}, {63, 65, 1}, {128, 129, 1},
		{groupRows - 1, groupRows + 1, 0}, {groupRows, groupRows + 1, 0},
		{groupRows - 1, groupRows + 1, 1}, {groupRows, groupRows + 1, 1},
	} {
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
		fresh := freshBlocks(eng.DirtyRows(), tc.from, tc.to)
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
			if !half && i < tc.from && !fresh[i>>blockShift] && &s1.Row(i)[0] != &s2.Row(i)[0] {
				t.Errorf("%d→%d: row %d of a clean block was re-copied", tc.from, tc.to, i)
			}
			if dirty[graph.NodeID(i)] && i < tc.from && &s1.Row(i)[0] == &s2.Row(i)[0] {
				t.Errorf("%d→%d: dirty row %d shares storage across epochs", tc.from, tc.to, i)
			}
		}
		what := fmt.Sprintf("%d→%d", tc.from, tc.to)
		if half {
			oneCopy(t, what, s2, eng.Output())
		} else {
			sharedBelowHalf(t, what, s1, s2, fresh)
		}
	}
	if !below || !above {
		t.Fatalf("a publish below half the rows fresh %v, at or above it %v; want both", below, above)
	}
}

// TestSnapshotHeldAcrossPublishes: a snapshot a reader holds is never
// written by later publications, however many of its blocks they copy —
// one at a time (few dirty blocks) or all at once (at least half dirty).
func TestSnapshotHeldAcrossPublishes(t *testing.T) {
	eng := newSnapEngine(t, 1000)
	held := eng.PublishSnapshot()
	want := make([]tensor.Vector, held.NumNodes())
	for i := range want {
		want[i] = held.Row(i).Clone()
	}
	nchunks := (held.NumNodes() + blockRows - 1) / blockRows
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
			dirty[int(id)>>blockShift] = true
			chunks[int(id)>>blockShift] = true
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
// 3.7 k-row engine, publishing 5 dirty rows that sit in 5 different groups
// allocates the snapshot, its root, 5 groups and 5 blocks — well under what
// one n-entry row-pointer array (~90 KB) would cost. Publishing with every
// row dirty allocates the snapshot, its root, one copy of the output and
// the groups; a first publish one block at a time, the groups and a
// constant: the snapshot, its root and the two mark arrays.
func TestSnapshotPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const n = 3700
	groups := (n + blockRows*groupBlocks - 1) / (blockRows * groupBlocks)
	eng := newSnapEngine(t, n)
	first := testing.AllocsPerRun(5, func() {
		eng.snap = snapState{}
		eng.PublishSnapshot()
	})
	if want := float64((n+blockRows-1)/blockRows + groups + 4); first > want {
		t.Fatalf("first publish of %d rows makes %g allocations, want <= %g", n, first, want)
	}
	rows := []graph.NodeID{0, 700, 1400, 2100, 2800}
	seen := map[int]bool{}
	for _, id := range rows {
		seen[int(id)>>rootShift] = true
	}
	if len(seen) != len(rows) {
		t.Fatalf("rows %v fall in %d groups, want %d", rows, len(seen), len(rows))
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, id := range rows {
				eng.markDirty(id)
			}
			eng.PublishSnapshot()
		}
	})
	if got := res.AllocedBytesPerOp(); got > 12<<10 {
		t.Fatalf("5-dirty-row publish allocates %d B/op, want <= %d", got, 12<<10)
	}
	if got, want := res.AllocsPerOp(), int64(2+2*len(rows)); got != want {
		t.Fatalf("5-dirty-row publish makes %d allocations, want %d (snapshot, root, 5 groups, 5 blocks)", got, want)
	}
	allDirty := testing.AllocsPerRun(20, func() {
		for k := 0; k < n; k++ {
			eng.markDirty(graph.NodeID(k))
		}
		eng.PublishSnapshot()
	})
	if want := float64(3 + groups); allDirty > want {
		t.Fatalf("all-dirty publish makes %g allocations, want <= %g", allDirty, want)
	}
}

// TestSnapshotRowCapped: a row's capacity ends at its width, so appending
// to it reallocates instead of writing over the next row — in a block
// copied on its own, in a copy-on-write publish and in one copy of the
// output.
func TestSnapshotRowCapped(t *testing.T) {
	eng := newSnapEngine(t, 200)
	check := func(what string, s *Snapshot) {
		t.Helper()
		for i := 0; i+1 < s.NumNodes(); i++ {
			next := s.Row(i + 1).Clone()
			_ = append(s.Row(i), 42)
			if !s.Row(i + 1).Equal(next) {
				t.Fatalf("%s: appending to row %d changed row %d", what, i, i+1)
			}
		}
	}
	check("first publish", eng.PublishSnapshot())
	rng := rand.New(rand.NewSource(9))
	if err := eng.Update(graph.RandomDelta(rng, eng.Graph(), 1)); err != nil {
		t.Fatal(err)
	}
	check("copy-on-write publish", eng.PublishSnapshot())
	for k := 0; k < 200; k++ {
		eng.markDirty(graph.NodeID(k))
	}
	s := eng.PublishSnapshot()
	oneCopy(t, "all-dirty publish", s, eng.Output())
	check("one-copy publish", s)
}

// BenchmarkPublishSnapshot times one publish at each serving workload's
// node count and dirty rows per publish: YP ×1/8 (3 734 nodes) at
// single-max's 5, batch-max's 320 and batch-mean-read's 3 586; PD ×1/2
// (25 520) at shard2-scatter's 20, 85 and 220; and 2^20 nodes at 20 and 85.
// The engine holds only its output, 32 wide as the workloads' GCN, over a
// graph with no edges, and the same uniformly drawn rows are marked dirty
// before every publish. blockShift and groupShift were chosen on it
// (EXPERIMENTS.md).
func BenchmarkPublishSnapshot(b *testing.B) {
	for _, p := range []struct{ n, dirty int }{
		{3734, 5}, {3734, 320}, {3734, 3586},
		{25520, 20}, {25520, 85}, {25520, 220},
		{1 << 20, 20}, {1 << 20, 85},
	} {
		b.Run(fmt.Sprintf("n=%d/dirty=%d", p.n, p.dirty), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			out := tensor.NewMatrix(p.n, 32)
			for i := range out.Data {
				out.Data[i] = rng.Float32()
			}
			e := &Engine{g: graph.New(p.n), state: &gnn.State{H: []*tensor.Matrix{out}}}
			ids := rng.Perm(p.n)[:p.dirty]
			e.PublishSnapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					e.markDirty(graph.NodeID(id))
				}
				e.PublishSnapshot()
			}
		})
	}
}
