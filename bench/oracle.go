package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// modelSeed is inkserve's default -seed; it builds its model from
// rand.NewSource(seed+100), and so does the oracle.
const modelSeed = 1

// inputs are the generated inputs of one run and the oracle's view of them.
type inputs struct {
	file  string // the snapshot inkserve loads
	g     *graph.Graph
	x     *tensor.Matrix
	model *gnn.Model
	boot  *tensor.Matrix // bootstrap embeddings, from in-process full inference
}

// makeInputs generates the workload's graph and features from seed, writes
// them to dir for the server, and runs the bootstrap inference in-process.
func makeInputs(w workload, seed int64, dir string) (*inputs, error) {
	spec, err := dataset.ByName(w.profile)
	if err != nil {
		return nil, err
	}
	spec.Scale *= w.scale
	g, feats := dataset.Generate(spec, seed)
	in := &inputs{file: filepath.Join(dir, "graph.inks")}
	if err := dataset.SaveFile(in.file, g, feats); err != nil {
		return nil, err
	}
	// Loading the file back gives the adjacency order the server will have,
	// which accumulative aggregators are sensitive to.
	if g, feats, err = dataset.LoadFile(in.file); err != nil {
		return nil, err
	}
	in.g, in.x = g, feats.X
	agg, err := gnn.ParseAggKind(w.agg)
	if err != nil {
		return nil, err
	}
	in.model = gnn.NewGCN(rand.New(rand.NewSource(modelSeed+100)), feats.Dim(), 32, gnn.NewAggregator(agg))
	st, err := gnn.Infer(in.model, g, in.x, nil)
	if err != nil {
		return nil, err
	}
	in.boot = st.Output()
	return in, nil
}

// tolerance is the largest difference from full inference a served value
// may show: monotonic aggregators are bit-exact, accumulative ones reorder
// floating-point sums.
func (w workload) tolerance() float64 {
	if w.agg == "max" || w.agg == "min" {
		return 0
	}
	return 2e-3
}

// checkRows reads count sampled rows from the server and fails when a read
// fails or a value differs from want by more than tol.
func checkRows(client *http.Client, addr string, want *tensor.Matrix, count int, seed int64, tol float64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		node := rng.Intn(want.Rows)
		resp, err := client.Get(fmt.Sprintf("http://%s/v1/embedding?node=%d", addr, node))
		if err != nil {
			return err
		}
		var body struct {
			Embedding []float32 `json:"embedding"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("reading node %d: status %d, %v", node, resp.StatusCode, err)
		}
		row := want.Row(node)
		if len(body.Embedding) != len(row) {
			return fmt.Errorf("node %d: %d values served, want %d", node, len(body.Embedding), len(row))
		}
		for j, v := range body.Embedding {
			if d := math.Abs(float64(v) - float64(row[j])); d > tol || math.IsNaN(d) {
				return fmt.Errorf("node %d channel %d: served %g, full inference gives %g", node, j, v, row[j])
			}
		}
	}
	return nil
}

// verifyFinal checks a quiesced server against the oracle: its own
// /v1/verify where the deployment has one, and 256 sampled rows against
// full inference over the bench's copy of the final graph and features.
func verifyFinal(client *http.Client, srv *server, w workload, in *inputs, streams []*stream, seed int64) error {
	if w.shards == 1 {
		resp, err := client.Post("http://"+srv.addr+"/v1/verify", "application/json", nil)
		if err != nil {
			return err
		}
		var v struct {
			Status     string  `json:"status"`
			Error      string  `json:"error"`
			MaxAbsDiff float64 `json:"max_abs_diff"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("/v1/verify: %w", err)
		}
		if v.Status != "verified" || v.MaxAbsDiff > w.tolerance() {
			return fmt.Errorf("/v1/verify: status %q, max_abs_diff %g, %s", v.Status, v.MaxAbsDiff, v.Error)
		}
	}
	g, x := in.g.Clone(), in.x.Clone()
	if err := finalState(streams, g, x); err != nil {
		return fmt.Errorf("replaying the stream on the oracle's graph: %w", err)
	}
	st, err := gnn.Infer(in.model, g, x, nil)
	if err != nil {
		return err
	}
	if err := checkRows(client, srv.addr, st.Output(), 256, seed+2, w.tolerance()); err != nil {
		return fmt.Errorf("final state: %w", err)
	}
	return nil
}
