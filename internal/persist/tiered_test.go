package persist

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/tensor"
)

func newTestStore(t *testing.T, cfg TieredConfig) *TieredStore {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	st, err := NewTieredStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// uniformRow returns a row whose channels all hold the same value — any
// reader that ever observes a mixed row caught a torn read.
func uniformRow(dim int, v float32) tensor.Vector {
	row := make(tensor.Vector, dim)
	for i := range row {
		row[i] = v
	}
	return row
}

// maxAbsDiff is the largest per-channel distance between two rows of equal
// length.
func maxAbsDiff(a, b tensor.Vector) float32 {
	var m float32
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

func TestTieredRoundTrip(t *testing.T) {
	const dim, n = 8, 100
	st := newTestStore(t, TieredConfig{Dim: dim, PageBytes: 4 * dim * 4}) // 4 rows/page
	if st.PageRows() != 4 {
		t.Fatalf("PageRows = %d, want 4", st.PageRows())
	}
	rng := rand.New(rand.NewSource(1))
	want := make([]tensor.Vector, n)
	for i := range want {
		want[i] = tensor.RandVector(rng, dim, 1)
		st.WriteRow(i, want[i])
	}
	view := st.Seal(1)
	if view.NumRows() != n {
		t.Fatalf("NumRows = %d, want %d", view.NumRows(), n)
	}
	for i := range want {
		got, err := view.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want[i]) {
			t.Fatalf("row %d not bit-exact", i)
		}
	}
	if _, err := view.Row(n); err == nil {
		t.Error("out-of-range row served")
	}
	if _, err := view.Row(-1); err == nil {
		t.Error("negative row served")
	}
}

func TestTieredEvictionAndFault(t *testing.T) {
	const dim, n = 8, 256
	rowB := 4 * dim
	// Cap fits only 2 of the 64 pages.
	st := newTestStore(t, TieredConfig{
		Dim: dim, PageBytes: 4 * rowB, MemCap: int64(2 * 4 * rowB),
		FaultLatency: obs.NewLatencyHistogram(),
	})
	rng := rand.New(rand.NewSource(2))
	want := make([]tensor.Vector, n)
	for i := range want {
		want[i] = tensor.RandVector(rng, dim, 1)
		st.WriteRow(i, want[i])
	}
	view := st.Seal(1)

	// Deterministically run the background duties: persist, then evict.
	st.writebackDirty()
	st.evictToCap()
	s := st.Stats()
	if s.Writebacks == 0 {
		t.Fatal("no writebacks recorded")
	}
	if s.Evictions == 0 {
		t.Fatal("nothing evicted despite cap pressure")
	}
	if s.HotBytes > s.CapBytes {
		t.Fatalf("hot bytes %d above cap %d after evict", s.HotBytes, s.CapBytes)
	}

	// Every row still reads back bit-exactly; cold pages fault from disk.
	for i := range want {
		got, err := view.Row(i)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if !got.Equal(want[i]) {
			t.Fatalf("row %d corrupted by spill round trip", i)
		}
	}
	s = st.Stats()
	if s.Misses == 0 {
		t.Fatal("full scan over a cold store recorded no faults")
	}
	if s.Hits == 0 {
		t.Fatal("no hits recorded")
	}
	if s.TotalPages != 64 {
		t.Fatalf("TotalPages = %d, want 64", s.TotalPages)
	}
}

func TestTieredCOWAcrossEpochs(t *testing.T) {
	const dim, n = 4, 40
	st := newTestStore(t, TieredConfig{Dim: dim, PageBytes: 10 * 4 * dim}) // 10 rows/page
	for i := 0; i < n; i++ {
		st.WriteRow(i, uniformRow(dim, float32(i)))
	}
	v1 := st.Seal(1)
	pages := *st.pages.Load()
	frameBefore := make([]*frame, len(pages))
	for i, p := range pages {
		frameBefore[i] = p.cur.Load()
	}

	// Touch only rows 0 and 1 (page 0); pages 1..3 must keep their frames.
	st.WriteRow(0, uniformRow(dim, 100))
	st.WriteRow(1, uniformRow(dim, 101))
	v2 := st.Seal(2)
	for i, p := range pages {
		f := p.cur.Load()
		if i == 0 && f == frameBefore[i] {
			t.Error("touched page kept its old generation")
		}
		if i != 0 && f != frameBefore[i] {
			t.Errorf("untouched page %d was re-sealed", i)
		}
	}
	for i := 0; i < n; i++ {
		wantV := float32(i)
		if i == 0 {
			wantV = 100
		} else if i == 1 {
			wantV = 101
		}
		got, err := v2.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(uniformRow(dim, wantV)) {
			t.Fatalf("row %d = %v, want all %g", i, got, wantV)
		}
	}
	_ = v1
}

func TestTieredQuantizedWithinBound(t *testing.T) {
	for _, q := range []tensor.Quant{tensor.QuantF16, tensor.QuantI8} {
		t.Run(q.String(), func(t *testing.T) {
			const dim, n = 16, 64
			st := newTestStore(t, TieredConfig{Dim: dim, Quant: q, PageBytes: 8 * q.RowBytes(dim)})
			rng := rand.New(rand.NewSource(3))
			want := make([]tensor.Vector, n)
			for i := range want {
				want[i] = tensor.RandVector(rng, dim, 1)
				st.WriteRow(i, want[i])
			}
			view := st.Seal(1)
			for i := range want {
				got, err := view.Row(i)
				if err != nil {
					t.Fatal(err)
				}
				if d, bound := maxAbsDiff(got, want[i]), q.ErrorBound(want[i]); d > bound {
					t.Fatalf("row %d: %v is %g from %v, bound %g", i, got, d, want[i], bound)
				}
			}
		})
	}
}

// Untouched rows keep their encoded bytes verbatim across seals, so
// quantization error must not compound no matter how many generations the
// page goes through.
func TestTieredQuantNoErrorCompounding(t *testing.T) {
	const dim = 8
	st := newTestStore(t, TieredConfig{Dim: dim, Quant: tensor.QuantI8, PageBytes: 2 * tensor.QuantI8.RowBytes(dim)})
	rng := rand.New(rand.NewSource(4))
	keep := tensor.RandVector(rng, dim, 1)
	st.WriteRow(0, keep)
	st.WriteRow(1, uniformRow(dim, 1))
	first, err := st.Seal(1).Row(0)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(2); e <= 30; e++ {
		st.WriteRow(1, uniformRow(dim, float32(e))) // same page, different row
		view := st.Seal(e)
		got, err := view.Row(0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(first) {
			t.Fatalf("epoch %d: untouched row drifted (%v vs %v)", e, got, first)
		}
	}
}

// Satellite: crash safety. A slot torn mid-writeback (simulated by
// truncating the spill file) must never surface as a torn row — reads
// error out, and recovery goes through the authoritative bundle + WAL
// replay path exactly like the WAL tests.
func TestTieredCrashSafetyTornSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 60, 180)
	x := tensor.RandMatrix(rng, 60, 6, 1)
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

	storeDir := filepath.Join(dir, "store")
	rowB := 4 * 8 // f32 × hidden dim 8
	st := newTestStore(t, TieredConfig{Dir: storeDir, Dim: 8, PageBytes: 4 * rowB, MemCap: int64(4 * rowB)})
	if err := eng.SetRowStore(st); err != nil {
		t.Fatal(err)
	}
	eng.PublishSnapshot()
	for batch := 0; batch < 3; batch++ {
		delta := graph.RandomDelta(rng, eng.Graph(), 6)
		if err := wal.Append(delta, nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.Apply(delta, nil); err != nil {
			t.Fatal(err)
		}
		eng.PublishSnapshot()
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	// Persist and evict, then tear the last slot as if the process died
	// mid-writeback.
	st.writebackDirty()
	st.evictToCap()
	path := filepath.Join(storeDir, tieredFile)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	lastPage := (snap.NumNodes() - 1) / st.PageRows()
	sawError := false
	for i := 0; i < snap.NumNodes(); i++ {
		row, rerr := st.readRow(i)
		if i/st.PageRows() == lastPage && rerr != nil {
			sawError = true // torn slot must fail, not serve garbage
			continue
		}
		if rerr != nil {
			// Resident or intact pages must still read, and bit-exactly.
			t.Fatalf("row %d on intact page errored: %v", i, rerr)
		}
		if !row.Equal(eng.Output().Row(i)) {
			t.Fatalf("row %d served stale/torn data after truncation", i)
		}
	}
	if !sawError {
		// The torn page might still be resident; force it cold and retry.
		st.evictToCap()
		if _, rerr := st.readRow(lastPage * st.PageRows()); rerr == nil {
			t.Log("torn slot page stayed resident; fault never exercised")
		}
	}

	// Corrupt (rather than truncate) an interior slot: checksum must
	// reject it instead of decoding torn bytes.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xee, 0xdd}, st.slotSize+int64(slotHeaderBytes)+2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := st.readSlot(1, (*st.pages.Load())[1].cur.Load().epoch); err == nil {
		t.Error("corrupted slot passed verification")
	}

	// Recovery: bundle + WAL replay into a fresh engine and a fresh store
	// over the same directory (the dead cache file is truncated on open).
	g2, m2, s2, err := LoadBundleFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := inkstream.NewFromState(m2, g2, s2, nil, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches, torn, err := ReadWAL(walPath)
	if err != nil || torn {
		t.Fatalf("ReadWAL: %v torn=%v", err, torn)
	}
	if rej := Replay(recovered, batches); len(rej) > 0 {
		t.Fatalf("replay refused %d records, first: %+v", len(rej), rej[0])
	}
	st2 := newTestStore(t, TieredConfig{Dir: storeDir, Dim: 8, PageBytes: 4 * rowB})
	if err := recovered.SetRowStore(st2); err != nil {
		t.Fatal(err)
	}
	rsnap := recovered.PublishSnapshot()
	if rsnap.NumNodes() != eng.Output().Rows {
		t.Fatalf("recovered %d rows, want %d", rsnap.NumNodes(), eng.Output().Rows)
	}
	for i := 0; i < rsnap.NumNodes(); i++ {
		if !rsnap.Row(i).Equal(eng.Output().Row(i)) {
			t.Fatalf("recovered row %d differs from the live engine", i)
		}
	}
}

// Torn reads are impossible even under cap pressure with a concurrent
// writer: every row is uniform per generation, so any mixed vector is a
// torn read.
func TestTieredConcurrentReadersNoTearing(t *testing.T) {
	const dim, n = 8, 128
	rowB := 4 * dim
	st := newTestStore(t, TieredConfig{Dim: dim, PageBytes: 4 * rowB, MemCap: int64(8 * 4 * rowB)})
	for i := 0; i < n; i++ {
		st.WriteRow(i, uniformRow(dim, float32(i)))
	}
	view := st.Seal(1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 16)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := rng.Intn(n)
				row, err := view.Row(id)
				if err != nil {
					errs <- err.Error()
					return
				}
				for c := 1; c < dim; c++ {
					if row[c] != row[0] {
						errs <- "torn row"
						return
					}
				}
			}
		}(int64(r))
	}
	for epoch := uint64(2); epoch < 40; epoch++ {
		for k := 0; k < 16; k++ {
			id := int(epoch*7+uint64(k)*11) % n
			st.WriteRow(id, uniformRow(dim, float32(epoch)*1000+float32(id)))
		}
		// The readers keep the epoch-1 view (reassigning the variable they
		// captured would be this test's own race): a superseded view keeps
		// resolving through the page table, which is what is under test.
		st.Seal(epoch)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// End-to-end against the engine, through a store capped below the
// footprint: across update cycles the tiered fp32 path serves exactly the
// rows of the default resident snapshots, and an int8 one stays inside the
// codec bound of the resident row at every read — the engine computes from
// its own fp32 state, so streaming updates cannot compound the rounding.
func TestTieredEngineBitExactVsResident(t *testing.T) {
	for _, q := range []tensor.Quant{tensor.QuantF32, tensor.QuantI8} {
		t.Run(q.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(6))
			g := randomGraph(rng, 80, 240)
			x := tensor.RandMatrix(rng, 80, 6, 1)
			model := gnn.NewGCN(rng, 6, 8, gnn.NewAggregator(gnn.AggSum))

			resident, err := inkstream.New(model, g.Clone(), x, nil, inkstream.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tiered, err := inkstream.New(model, g.Clone(), x, nil, inkstream.Options{})
			if err != nil {
				t.Fatal(err)
			}
			pageB := 4 * q.RowBytes(8)
			st := newTestStore(t, TieredConfig{Dim: 8, Quant: q, PageBytes: pageB, MemCap: int64(5 * pageB)})
			if err := tiered.SetRowStore(st); err != nil {
				t.Fatal(err)
			}

			for batch := 0; batch < 5; batch++ {
				delta := graph.RandomDelta(rng, resident.Graph(), 10)
				if err := resident.Apply(delta, nil); err != nil {
					t.Fatal(err)
				}
				if err := tiered.Apply(append(graph.Delta(nil), delta...), nil); err != nil {
					t.Fatal(err)
				}
				rs := resident.PublishSnapshot()
				ts := tiered.PublishSnapshot()
				if rs.NumNodes() != ts.NumNodes() {
					t.Fatalf("node counts diverge: %d vs %d", rs.NumNodes(), ts.NumNodes())
				}
				st.writebackDirty()
				st.evictToCap()
				for i := 0; i < rs.NumNodes(); i++ {
					want, got := rs.Row(i), ts.Row(i)
					if q == tensor.QuantF32 {
						if !want.Equal(got) {
							t.Fatalf("batch %d row %d: tiered differs from resident", batch, i)
						}
					} else if d, bound := maxAbsDiff(got, want), q.ErrorBound(want); d > bound {
						t.Fatalf("batch %d row %d: %v is %g from %v, %s bound %g", batch, i, got, d, want, q, bound)
					}
				}
			}
			if st.Stats().Evictions == 0 {
				t.Error("the cap never evicted a page: the reads did not cross the fault path")
			}
		})
	}
}

func TestTieredStatsHitRate(t *testing.T) {
	var s obs.PageCacheStats
	if s.HitRate() != 1 {
		t.Error("empty stats hit rate should be 1")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate %v, want 0.75", s.HitRate())
	}
}

func TestTieredRejectsBadConfig(t *testing.T) {
	if _, err := NewTieredStore(TieredConfig{Dim: 0, Dir: t.TempDir()}); err == nil {
		t.Error("dim 0 accepted")
	}
}
