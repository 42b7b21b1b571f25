package server

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// coalesceOf reads the coalescing counters behind the
// inkstream_coalesced_batch_size and inkstream_coalesce_stalls_total
// families and /v1/stats coalesce.fallbacks.
func coalesceOf(s *Server) (c struct{ Requests, Batches, Stalls, Fallbacks int64 }) {
	h := s.coSize.Snapshot()
	c.Requests, c.Batches = h.Sum, h.Count
	c.Stalls, c.Fallbacks = s.coStalls.Load(), s.coFallbacks.Load()
	return c
}

// newCoalesceServer builds a server over a deterministic engine (AggMax, so
// every comparison below may demand bit-exactness: the maintained state of
// a monotonic model is a pure function of graph + features).
func newCoalesceServer(t *testing.T) *Server { return newCoalesceServerOn(t, false) }

// newCoalesceServerOn is newCoalesceServer over the same RMAT graph, or over
// a directed graph holding the same arcs (so (u,v) and (v,u) are two edges).
func newCoalesceServerOn(t *testing.T, directed bool) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := dataset.GenerateRMAT(rng, 300, 1200, dataset.DefaultRMAT)
	if directed {
		d := graph.New(g.NumNodes())
		for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
			for _, v := range g.OutNeighbors(u) {
				if err := d.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		g = d
	}
	feats := dataset.NewFeatures(rng, 300, 8)
	model := gnn.NewGCN(rng, 8, 16, gnn.NewAggregator(gnn.AggMax))
	var c metrics.Counters
	eng, err := inkstream.New(model, g, feats.X, &c, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, &c)
	t.Cleanup(s.Close)
	return s
}

// quiesce closes the server, so no caller becomes the writer again and a
// test can drive the writer's steps (applyCoalesced) deterministically from
// its own goroutine — the only way to pin down which requests share a fused
// batch.
func quiesce(s *Server) { s.Close() }

// applyCoalesced coalesces one group and closes the window: every request
// is acknowledged (behind a covering snapshot) before it returns.
func (s *Server) applyCoalesced(group []*updateReq, f *fused) {
	s.coalesceGroup(group, f)
	s.flushFused(f)
}

func mutReq(delta graph.Delta, vups []inkstream.VertexUpdate) *updateReq {
	return &updateReq{delta: delta, vups: vups, done: make(chan error, 1)}
}

// freshEdges returns n edges not present in g, mutually distinct.
func freshEdges(t *testing.T, g *graph.Graph, rng *rand.Rand, n int) []graph.EdgeChange {
	t.Helper()
	seen := map[[2]graph.NodeID]bool{}
	var out []graph.EdgeChange
	for len(out) < n {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if u > v {
			u, v = v, u
		}
		if u == v || g.HasEdge(u, v) || seen[[2]graph.NodeID{u, v}] {
			continue
		}
		seen[[2]graph.NodeID{u, v}] = true
		out = append(out, graph.EdgeChange{U: u, V: v, Insert: true})
	}
	return out
}

// TestCoalesceEquivalence: N compatible single-change updates applied as
// one fused batch must produce bit-identical final embeddings and the same
// per-request acks as applying them one at a time.
func TestCoalesceEquivalence(t *testing.T) {
	fusedSrv := newCoalesceServer(t)
	singleSrv := newCoalesceServer(t)
	quiesce(fusedSrv)
	quiesce(singleSrv)
	rng := rand.New(rand.NewSource(2))
	edges := freshEdges(t, fusedSrv.engine().Graph(), rng, 16)

	mkGroup := func() []*updateReq {
		group := make([]*updateReq, len(edges))
		for i, ch := range edges {
			group[i] = mutReq(graph.Delta{ch}, nil)
		}
		return group
	}
	fusedGroup, singleGroup := mkGroup(), mkGroup()
	fusedSrv.applyCoalesced(fusedGroup, newFused())
	// The reference arm is the same code with nothing queued behind the
	// in-flight request: every group holds one request.
	for _, r := range singleGroup {
		singleSrv.applyCoalesced([]*updateReq{r}, newFused())
	}

	for i := range edges {
		if err := <-fusedGroup[i].done; err != nil {
			t.Fatalf("fused request %d: %v", i, err)
		}
		if err := <-singleGroup[i].done; err != nil {
			t.Fatalf("single request %d: %v", i, err)
		}
	}
	if !fusedSrv.engine().Output().Equal(singleSrv.engine().Output()) {
		t.Fatalf("fused embeddings not bit-identical to one-at-a-time (max diff %g)",
			fusedSrv.engine().Output().MaxAbsDiff(singleSrv.engine().Output()))
	}
	st := coalesceOf(fusedSrv)
	if st.Requests != int64(len(edges)) || st.Batches != 1 || st.Stalls != 0 || st.Fallbacks != 0 {
		t.Fatalf("coalesce stats = %+v, want all %d requests in 1 batch", st, len(edges))
	}
	if st := coalesceOf(singleSrv); st.Batches != st.Requests || st.Requests != int64(len(edges)) {
		t.Fatalf("reference stats = %+v, want %d batches of one request", st, len(edges))
	}
	if err := fusedSrv.engine().Verify(0); err != nil {
		t.Fatal(err)
	}
}

// TestCoalesceConflictStall: a request touching an edge of the open batch
// must flush the batch first, and then get exactly the outcome it would have
// had applied alone. Which requests touch the same edge depends on the
// graph: on an undirected one (u,v) and (v,u) are one edge, so the reversed
// insert stalls and is then refused as a duplicate; on a directed one they
// are two edges and fuse into one batch.
func TestCoalesceConflictStall(t *testing.T) {
	for _, tc := range []struct {
		name     string
		directed bool
		stalls   int64
		batches  int64
	}{
		{"undirected", false, 1, 2},
		{"directed", true, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newCoalesceServerOn(t, tc.directed)
			quiesce(s)
			rng := rand.New(rand.NewSource(3))
			e := freshEdges(t, s.engine().Graph(), rng, 1)[0]

			first := mutReq(graph.Delta{e}, nil)
			second := mutReq(graph.Delta{{U: e.V, V: e.U, Insert: true}}, nil)
			s.applyCoalesced([]*updateReq{first, second}, newFused())

			if err := <-first.done; err != nil {
				t.Fatalf("first request: %v", err)
			}
			if err := <-second.done; (err == nil) != tc.directed {
				t.Fatalf("reversed insert: %v (directed=%v)", err, tc.directed)
			}
			st := coalesceOf(s)
			if st.Stalls != tc.stalls || st.Batches != tc.batches || st.Fallbacks != 0 {
				t.Fatalf("coalesce stats = %+v, want %d stall(s) and %d batch(es), no fallback", st, tc.stalls, tc.batches)
			}
			g := s.engine().Graph()
			if !g.HasEdge(e.U, e.V) || !g.HasEdge(e.V, e.U) {
				t.Fatal("an arc of the pair is missing")
			}
			if err := s.engine().Verify(0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCoalesceFallbackRouting: when a fused apply fails validation (the
// conflict check cannot see that a lone removal targets an edge that never
// existed), the per-request replay must route the error to exactly the
// invalid request while the compatible ones still apply.
func TestCoalesceFallbackRouting(t *testing.T) {
	s := newCoalesceServer(t)
	quiesce(s)
	rng := rand.New(rand.NewSource(4))
	edges := freshEdges(t, s.engine().Graph(), rng, 3)

	good1 := mutReq(graph.Delta{edges[0]}, nil)
	bad := mutReq(graph.Delta{{U: edges[1].U, V: edges[1].V, Insert: false}}, nil)
	good2 := mutReq(graph.Delta{edges[2]}, nil)
	s.applyCoalesced([]*updateReq{good1, bad, good2}, newFused())

	if err := <-good1.done; err != nil {
		t.Fatalf("first valid request: %v", err)
	}
	if err := <-bad.done; err == nil {
		t.Fatal("removal of a non-existent edge acknowledged without error")
	}
	if err := <-good2.done; err != nil {
		t.Fatalf("second valid request: %v", err)
	}
	st := coalesceOf(s)
	if st.Fallbacks != 1 || st.Stalls != 0 || st.Batches != 1 {
		t.Fatalf("coalesce stats = %+v, want 1 fallback, 0 stalls, 1 batch", st)
	}
	g := s.engine().Graph()
	if !g.HasEdge(edges[0].U, edges[0].V) || !g.HasEdge(edges[2].U, edges[2].V) {
		t.Fatal("valid requests' edges missing after fallback replay")
	}
	if err := s.engine().Verify(0); err != nil {
		t.Fatal(err)
	}
}

// TestCoalesceVertexConflict: two feature rewrites of one node must not
// fuse (last-writer-wins is order-dependent and fused validation would
// reject the duplicate); the second lands in the next batch and wins.
func TestCoalesceVertexConflict(t *testing.T) {
	s := newCoalesceServer(t)
	quiesce(s)
	dim := s.engine().State().H[0].Cols
	vup := func(val float32) []inkstream.VertexUpdate {
		x := make(tensor.Vector, dim)
		for i := range x {
			x[i] = val
		}
		return []inkstream.VertexUpdate{{Node: 5, X: x}}
	}
	first := mutReq(nil, vup(1))
	second := mutReq(nil, vup(2))
	s.applyCoalesced([]*updateReq{first, second}, newFused())
	if err := <-first.done; err != nil {
		t.Fatalf("first rewrite: %v", err)
	}
	if err := <-second.done; err != nil {
		t.Fatalf("second rewrite: %v", err)
	}
	if st := coalesceOf(s); st.Stalls != 1 || st.Batches != 2 {
		t.Fatalf("coalesce stats = %+v, want 1 stall and 2 batches", st)
	}
	if got := s.engine().State().H[0].Row(5)[0]; got != 2 {
		t.Fatalf("node 5 feature = %g, want the last writer's 2", got)
	}
	if err := s.engine().Verify(0); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescePipelineEquivalence exercises coalescing through the live
// concurrent pipeline: the same conflict-free update set pushed through one
// server by racing workers (whatever queues behind the in-flight request
// fuses; the factor is timing-dependent and not asserted) and through another
// by one closed-loop writer (each Apply waits for its ack, so nothing can
// queue behind it and every batch covers one request) must converge to
// bit-identical embeddings.
func TestCoalescePipelineEquivalence(t *testing.T) {
	coalesced := newCoalesceServer(t)
	sequential := newCoalesceServer(t)
	rng := rand.New(rand.NewSource(6))
	const workers, perWorker = 8, 8
	edges := freshEdges(t, coalesced.engine().Graph(), rng, workers*perWorker)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		pool := edges[w*perWorker : (w+1)*perWorker]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ch := range pool {
				if err := coalesced.Apply(graph.Delta{ch}, nil); err != nil {
					t.Errorf("apply %v: %v", ch, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, ch := range edges {
		if err := sequential.Apply(graph.Delta{ch}, nil); err != nil {
			t.Fatalf("apply %v: %v", ch, err)
		}
	}
	quiesce(coalesced)
	quiesce(sequential)
	if st := coalesceOf(sequential); st.Batches != st.Requests || st.Requests != int64(len(edges)) {
		t.Fatalf("closed-loop reference stats = %+v, want %d batches of one request", st, len(edges))
	}
	if !coalesced.engine().Output().Equal(sequential.engine().Output()) {
		t.Fatalf("coalesced pipeline diverged from sequential (max diff %g)",
			coalesced.engine().Output().MaxAbsDiff(sequential.engine().Output()))
	}
	if err := coalesced.engine().Verify(0); err != nil {
		t.Fatal(err)
	}
}

// TestCoalesceStress hammers a coalescing server with racing writers —
// including same-edge insert/remove races that force conflict stalls and
// fallback replays — and racing readers, then checks the maintained state
// against a from-scratch recomputation. Load-bearing under -race
// (scripts/check.sh).
func TestCoalesceStress(t *testing.T) {
	s := newCoalesceServer(t)
	rng := rand.New(rand.NewSource(8))
	const workers = 8
	perWorker := 24
	if testing.Short() {
		perWorker = 6
	}
	own := make([][]graph.EdgeChange, workers)
	for w := range own {
		own[w] = freshEdges(t, s.engine().Graph(), rng, 4)
	}
	// One shared edge toggled by every worker: its insert/remove requests
	// interleave arbitrarily, so many are invalid — the acks must simply be
	// consistent, and the state must stay convergent.
	shared := freshEdges(t, s.engine().Graph(), rng, 1)[0]

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ch := own[w][i%len(own[w])]
				ch.Insert = (i/len(own[w]))%2 == 0
				_ = s.Apply(graph.Delta{ch}, nil) // own-edge toggles may collide across rounds
				sh := shared
				sh.Insert = i%2 == 0
				_ = s.Apply(graph.Delta{sh}, nil) // racing toggles: errors expected
				if _, _, ok := s.ReadEmbedding(int(ch.U)); !ok {
					t.Errorf("read of node %d failed", ch.U)
					return
				}
			}
		}()
	}
	wg.Wait()
	quiesce(s)
	if err := s.engine().Verify(0); err != nil {
		t.Fatal(err)
	}
	if st := coalesceOf(s); st.Requests == 0 {
		t.Fatal("no requests went through the coalescing stage")
	}
}
