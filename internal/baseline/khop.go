package baseline

import (
	"fmt"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// KHop is the affected-area baseline built on the core idea of DyGNN
// (Sec. III-A): between timestamps it recomputes only the theoretical
// k-hop neighborhood of the changed edges, but — taking "the latest
// snapshot of graph structure as input without knowledge of previous
// timestamps" — it rebuilds those embeddings from the input features,
// fetching the in-neighborhood closure of the affected area at every
// layer (up to 2k-hop data in total).
type KHop struct {
	Model *gnn.Model
	C     *metrics.Counters
	// Obs, when set, records per-update latency and affected-area size
	// into the same histograms the InkStream engine feeds, so serving and
	// benchmark comparisons observe both methods like-for-like (nil
	// disables recording; baselines carry no per-layer trace).
	Obs *obs.Observer

	g   *graph.Graph
	x   *tensor.Matrix
	out *tensor.Matrix
	// scratch holds the per-layer recomputation buffers. Rows outside the
	// current closure hold stale data and are never read.
	scratch *gnn.State

	// LastAffected reports the size of the theoretical affected area of
	// the most recent Update, for the Fig. 1a experiment.
	LastAffected int
}

// NewKHop bootstraps the baseline with one (untimed) full inference.
func NewKHop(model *gnn.Model, g *graph.Graph, x *tensor.Matrix, c *metrics.Counters) (*KHop, error) {
	for l := range model.Layers {
		if n := model.Norm(l); n != nil && !n.IsFrozen {
			return nil, fmt.Errorf("baseline: k-hop requires frozen GraphNorm")
		}
	}
	s, err := gnn.Infer(model, g, x, nil)
	if err != nil {
		return nil, err
	}
	k := &KHop{Model: model, C: c, g: g, x: x, out: s.Output().Clone()}
	k.scratch = gnn.NewState(model, g.NumNodes())
	copy(k.scratch.H[0].Data, x.Data)
	return k, nil
}

// Graph exposes the maintained graph.
func (k *KHop) Graph() *graph.Graph { return k.g }

// Output returns the maintained final-layer embeddings.
func (k *KHop) Output() *tensor.Matrix { return k.out }

// Update applies ΔG and recomputes the affected area from scratch.
func (k *KHop) Update(delta graph.Delta) error {
	var t0 time.Time
	if k.Obs != nil {
		t0 = time.Now()
	}
	if err := delta.Validate(k.g); err != nil {
		return err
	}
	if err := delta.Apply(k.g); err != nil {
		return err
	}
	L := k.Model.NumLayers()
	seeds := delta.Touched(k.g.Undirected)
	aff := graph.KHopOut(k.g, seeds, L-1)
	k.LastAffected = aff.Size()
	sets := aff.ExpandIn(k.g, L)

	// Fetch input features for the outermost closure (sets[0]): the
	// paper's "neighbor loader" cost.
	for range sets[0] {
		k.C.FetchVec(k.Model.InDim())
	}

	// Recompute layer by layer. Layer l computes m_l for the closure
	// sets[l] and α_l / h_{l+1} for the next tighter set sets[l+1].
	for l, layer := range k.Model.Layers {
		gnn.ComputeMessages(layer, sets[l], k.scratch.H[l], k.scratch.M[l], k.C)
		if err := gnn.InferSubset(layer, k.Model.Norm(l), k.g, sets[l+1],
			k.scratch.M[l], k.scratch.Alpha[l], k.scratch.H[l+1], k.C); err != nil {
			return err
		}
	}
	// Publish the affected area's final embeddings.
	for _, u := range sets[L] {
		copy(k.out.Row(int(u)), k.scratch.H[L].Row(int(u)))
		k.C.StoreVec(k.Model.OutDim())
	}
	if k.Obs != nil {
		k.Obs.RecordLatency(time.Since(t0))
	}
	return nil
}
