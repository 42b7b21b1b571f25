package inkstream

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// fakeRowStore is a resident in-memory RowStore used to test the engine's
// publication seam without pulling in the real paged store.
type fakeRowStore struct {
	rows     map[int]tensor.Vector
	writes   []int
	seals    []uint64
	released []uint64
	failRow  int // Row(failRow) errors when >= 0
}

type fakeRowView struct {
	st    *fakeRowStore
	epoch uint64
	rows  map[int]tensor.Vector
	n     int
}

func newFakeRowStore() *fakeRowStore {
	return &fakeRowStore{rows: make(map[int]tensor.Vector), failRow: -1}
}

func (f *fakeRowStore) WriteRow(id int, row tensor.Vector) {
	f.rows[id] = row.Clone()
	f.writes = append(f.writes, id)
}

func (f *fakeRowStore) Seal(epoch uint64) RowView {
	f.seals = append(f.seals, epoch)
	n := 0
	snap := make(map[int]tensor.Vector, len(f.rows))
	for id, v := range f.rows {
		snap[id] = v
		if id+1 > n {
			n = id + 1
		}
	}
	return &fakeRowView{st: f, epoch: epoch, rows: snap, n: n}
}

func (v *fakeRowView) Row(id int) (tensor.Vector, error) {
	if id == v.st.failRow {
		return nil, errFault
	}
	return v.rows[id], nil
}

func (v *fakeRowView) NumRows() int { return v.n }
func (v *fakeRowView) Release()     { v.st.released = append(v.st.released, v.epoch) }

var errFault = errors.New("row unavailable")

func TestSetRowStoreAfterPublishFails(t *testing.T) {
	eng := newSnapEngine(t, 120)
	eng.PublishSnapshot()
	if err := eng.SetRowStore(newFakeRowStore()); err == nil {
		t.Fatal("SetRowStore after PublishSnapshot should fail")
	}
}

func TestTieredPublishWritesDirtyRowsOnly(t *testing.T) {
	eng := newSnapEngine(t, 120)
	st := newFakeRowStore()
	if err := eng.SetRowStore(st); err != nil {
		t.Fatal(err)
	}

	s1 := eng.PublishSnapshot()
	if s1.Epoch != 1 || s1.NumNodes() != 120 {
		t.Fatalf("first snapshot epoch=%d nodes=%d", s1.Epoch, s1.NumNodes())
	}
	if len(st.writes) != 120 {
		t.Fatalf("first publish wrote %d rows, want all 120", len(st.writes))
	}
	for i := 0; i < 120; i++ {
		if !s1.Row(i).Equal(eng.Output().Row(i)) {
			t.Fatalf("row %d differs from engine output", i)
		}
	}

	rng := rand.New(rand.NewSource(6))
	delta := graph.RandomDelta(rng, eng.Graph(), 5)
	if err := eng.Update(delta); err != nil {
		t.Fatal(err)
	}
	dirty := eng.DirtyRows()
	st.writes = nil
	s2 := eng.PublishSnapshot()
	if s2.Epoch != 2 {
		t.Fatalf("second snapshot epoch %d", s2.Epoch)
	}
	if len(st.writes) != len(dirty) {
		t.Fatalf("incremental publish wrote %d rows, want the %d dirty rows", len(st.writes), len(dirty))
	}
	for i := 0; i < 120; i++ {
		if !s2.Row(i).Equal(eng.Output().Row(i)) {
			t.Fatalf("row %d stale in tiered snapshot", i)
		}
	}
	// Superseding epoch 1 released its view.
	if len(st.released) != 1 || st.released[0] != 1 {
		t.Fatalf("released views %v, want [1]", st.released)
	}
	if len(st.seals) != 2 || st.seals[0] != 1 || st.seals[1] != 2 {
		t.Fatalf("seal epochs %v", st.seals)
	}
}

func TestTieredPublishAddNodeGrowth(t *testing.T) {
	eng := newSnapEngine(t, 120)
	st := newFakeRowStore()
	if err := eng.SetRowStore(st); err != nil {
		t.Fatal(err)
	}
	eng.PublishSnapshot()
	x := make(tensor.Vector, 8)
	x[0] = 1
	id, err := eng.AddNode(x)
	if err != nil {
		t.Fatal(err)
	}
	s := eng.PublishSnapshot()
	if s.NumNodes() != int(id)+1 {
		t.Fatalf("snapshot rows %d, want %d", s.NumNodes(), id+1)
	}
	if !s.Row(int(id)).Equal(eng.Output().Row(int(id))) {
		t.Error("new node row missing from tiered snapshot")
	}
}

func TestTieredRowFaultReturnsNil(t *testing.T) {
	eng := newSnapEngine(t, 120)
	st := newFakeRowStore()
	if err := eng.SetRowStore(st); err != nil {
		t.Fatal(err)
	}
	st.failRow = 7
	s := eng.PublishSnapshot()
	if row := s.Row(7); row != nil {
		t.Fatalf("faulting row returned %v, want nil", row)
	}
	if s.Row(8) == nil {
		t.Fatal("healthy row returned nil")
	}
}

func TestTieredRefreshRewritesAllRows(t *testing.T) {
	eng := newSnapEngine(t, 120)
	st := newFakeRowStore()
	if err := eng.SetRowStore(st); err != nil {
		t.Fatal(err)
	}
	eng.PublishSnapshot()
	if err := eng.Refresh(); err != nil {
		t.Fatal(err)
	}
	st.writes = nil
	eng.PublishSnapshot()
	if len(st.writes) != 120 {
		t.Fatalf("publish after Refresh wrote %d rows, want all 120", len(st.writes))
	}
}
