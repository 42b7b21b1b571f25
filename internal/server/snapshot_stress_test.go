package server

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/tensor"
)

// newBenchEngine builds a bare engine over an RMAT graph for pipeline
// tests and benchmarks.
func newBenchEngine(t testing.TB, seed int64, nodes, edges int) *inkstream.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := dataset.GenerateRMAT(rng, nodes, edges, dataset.DefaultRMAT)
	feats := dataset.NewFeatures(rng, nodes, 8)
	model := gnn.NewGCN(rng, 8, 16, gnn.NewAggregator(gnn.AggMax))
	eng, err := inkstream.New(model, g, feats.X, nil, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// newPipelineServer builds a server without the HTTP layer, for tests that
// exercise the pipeline and snapshot API directly.
func newPipelineServer(t testing.TB, seed int64, nodes, edges int) (*Server, *inkstream.Engine) {
	t.Helper()
	eng := newBenchEngine(t, seed, nodes, edges)
	s := New(eng, nil)
	t.Cleanup(s.Close)
	return s, eng
}

// observation is one reader-side sample: the epoch a read reported and the
// row it returned for a probe node.
type observation struct {
	probe graph.NodeID
	epoch uint64
	row   tensor.Vector
}

// TestSnapshotEpochConsistencyRace runs concurrent readers against one
// sustained update stream and afterwards checks that every returned
// embedding is bit-identical to the row the published snapshot of its
// reported epoch held — i.e. readers only ever see fully published,
// immutable states, never a half-applied one. Run with -race; skipped in
// -short mode because the interleaving needs some volume to be meaningful.
func TestSnapshotEpochConsistencyRace(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot stress test skipped in -short mode")
	}
	s, eng := newPipelineServer(t, 11, 150, 600)
	const (
		readers  = 4
		updates  = 60
		probeCnt = 5
	)
	probes := make([]graph.NodeID, probeCnt)
	for i := range probes {
		probes[i] = graph.NodeID(i * 29 % 150)
	}

	// truth[epoch] is the snapshot published at that epoch. The single
	// update stream below is the only mutator, so it sees every epoch: one
	// publish per applied batch, observed right after Apply returns
	// (publish-before-ack) and before the next batch is submitted.
	truth := map[uint64]*inkstream.Snapshot{1: eng.Snapshot()}
	if truth[1].Epoch != 1 {
		t.Fatalf("initial epoch %d", truth[1].Epoch)
	}

	// Every reader finishes one read (ready) before the stream starts, so
	// reads overlap the stream however the scheduler places the goroutines.
	// That first read only shows the reader runs and is not kept.
	stop := make(chan struct{})
	var obsMu sync.Mutex
	var observed []observation
	var wg, ready sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		ready.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var local []observation
			for first := true; ; first = false {
				select {
				case <-stop:
					obsMu.Lock()
					observed = append(observed, local...)
					obsMu.Unlock()
					return
				default:
				}
				p := probes[rng.Intn(probeCnt)]
				row, epoch, ok := s.ReadEmbedding(int(p))
				if first {
					ready.Done()
				}
				if !ok {
					t.Errorf("reader %d: probe %d rejected", r, p)
					return
				}
				// Rows are immutable once published; keeping the reference
				// (not a copy) makes the check strict: if the engine ever
				// scribbled on a published row, the comparison would catch
				// the corruption. The sample cap bounds memory; reads keep
				// flowing (and racing) beyond it either way.
				if !first && len(local) < 20_000 {
					local = append(local, observation{probe: p, epoch: epoch, row: row})
				}
			}
		}(r)
	}

	// The update stream: generate deltas against a shadow graph (the
	// engine's own graph is concurrently mutated by the writer, so it
	// cannot be read here), submit, and record the snapshot each publish
	// produced.
	shadow := eng.Graph().Clone()
	rng := rand.New(rand.NewSource(42))
	ready.Wait()
	for i := 0; i < updates; i++ {
		delta := graph.RandomDelta(rng, shadow, 6)
		if err := delta.Apply(shadow); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(delta, nil); err != nil {
			t.Fatal(err)
		}
		snap := eng.Snapshot()
		truth[snap.Epoch] = snap
	}
	close(stop)
	wg.Wait()

	if len(truth) != updates+1 {
		t.Fatalf("update stream saw %d epochs, want %d", len(truth), updates+1)
	}
	checked := 0
	for _, o := range observed {
		snap, ok := truth[o.epoch]
		if !ok {
			t.Fatalf("reader observed epoch %d never published", o.epoch)
		}
		if !o.row.Equal(snap.Row(int(o.probe))) {
			t.Fatalf("probe %d at epoch %d: returned row differs from the published snapshot",
				o.probe, o.epoch)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no reads completed during the update stream")
	}
	t.Logf("verified %d reads against %d epochs", checked, len(truth))
}
