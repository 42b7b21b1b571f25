// Frauddetect: BRIGHT-style real-time fraud scoring on a transaction
// graph (Sec. IV-B motivates this workload). Accounts are nodes, observed
// transactions are edges; a 2-layer GraphSAGE embeds every account and a
// fixed scoring vector turns the embedding into a fraud score. New
// transactions must update scores in milliseconds.
//
// The example also demonstrates the user-hook extension interface
// (Sec. II-D): a wrapping hook taps event propagation to maintain a
// "touched accounts" watchlist — exactly the kind of per-model extension
// the paper's user_propagate enables, in a handful of lines.
//
// Run with: go run ./examples/frauddetect
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/tensor"
)

// watchlistHooks wraps the engine's built-in hooks and records every
// account whose next-layer message changed — the accounts whose scores
// must be re-examined downstream.
type watchlistHooks struct {
	inkstream.UserHooks
	mu      sync.Mutex
	touched map[graph.NodeID]int
}

func (w *watchlistHooks) Propagate(l int, u graph.NodeID, oldM, newM tensor.Vector, dst []inkstream.UserEvent) []inkstream.UserEvent {
	w.mu.Lock()
	w.touched[u]++
	w.mu.Unlock()
	return w.UserHooks.Propagate(l, u, oldM, newM, dst)
}

func main() {
	rng := rand.New(rand.NewSource(2024))
	accounts := 5000
	g := dataset.GenerateRMAT(rng, accounts, 20000, dataset.DefaultRMAT)
	feats := dataset.NewFeatures(rng, accounts, 24) // account profile features

	model := gnn.NewSAGE(rng, feats.Dim(), 32, gnn.NewAggregator(gnn.AggMax))
	engine, err := inkstream.New(model, g, feats.X, nil, inkstream.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Install the watchlist hook on top of the built-in self-dependence
	// hooks GraphSAGE needs.
	hooks := &watchlistHooks{
		UserHooks: inkstream.SelfHooks{SelfDependent: func(l int) bool {
			return l < model.NumLayers() && model.Layers[l].SelfDependent()
		}},
		touched: make(map[graph.NodeID]int),
	}
	engine.SetHooks(hooks)

	// A fixed scoring head: score = w · embedding.
	scoreW := tensor.RandVector(rng, model.OutDim(), 1)
	score := func(u graph.NodeID) float32 {
		return tensor.Dot(engine.Output().Row(int(u)), scoreW)
	}

	fmt.Printf("transaction graph: %d accounts, %d transactions\n",
		engine.Graph().NumNodes(), engine.Graph().NumEdges())

	// Stream transaction batches; each is a mix of new transactions and
	// expired ones rolling out of the scoring window.
	var total time.Duration
	for batch := 0; batch < 6; batch++ {
		delta := graph.RandomDelta(rng, engine.Graph(), 16)
		t0 := time.Now()
		if err := engine.Update(delta); err != nil {
			log.Fatal(err)
		}
		total += time.Since(t0)
	}
	fmt.Printf("6 transaction batches scored in %v total\n", total.Round(time.Microsecond))

	// Report the hottest accounts on the watchlist with their scores.
	type hot struct {
		acct graph.NodeID
		hits int
	}
	var hots []hot
	for u, hits := range hooks.touched {
		hots = append(hots, hot{u, hits})
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].hits != hots[j].hits {
			return hots[i].hits > hots[j].hits
		}
		return hots[i].acct < hots[j].acct
	})
	fmt.Printf("%d accounts touched; top 5 by activity:\n", len(hots))
	for i := 0; i < 5 && i < len(hots); i++ {
		fmt.Printf("  account %-6d updates=%-3d fraud score %+.3f\n",
			hots[i].acct, hots[i].hits, score(hots[i].acct))
	}

	// Sanity: maintained scores match a from-scratch inference.
	want, err := gnn.Infer(model, engine.Graph(), feats.X, nil)
	if err != nil {
		log.Fatal(err)
	}
	if !engine.Output().Equal(want.Output()) {
		log.Fatal("BUG: incremental scores diverged")
	}
	fmt.Println("verified: incremental scores match full recomputation")
}
