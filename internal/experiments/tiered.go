package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/tensor"
)

// TieredPoint is one point of the working-set sweep: the full embedding
// footprint served at Factor× the memory cap (Factor 0 is the all-resident
// baseline).
type TieredPoint struct {
	Factor    int // working set as a multiple of the cap; 0 = resident
	CapBytes  int64
	UpdPerSec float64
	ReadP50   time.Duration
	ReadP99   time.Duration
	HitRate   float64 // cumulative over the point's run; 1 for resident
	FaultP99  time.Duration
	Evictions uint64
	HotBytes  int64
	// Exact is the row-accuracy audit verdict against the resident
	// reference: "bit-exact" (fp32 pages) or "within-tol" (quantized pages,
	// every channel inside the codec's error bound). Any violation aborts
	// the sweep with an error instead of degrading this field.
	Exact string
}

// TieredResult is the tiered-store working-set sweep (DESIGN.md §14).
type TieredResult struct {
	Dataset   string
	Nodes     int
	Dim       int
	Footprint int64 // encoded bytes of the full embedding set
	Quant     string
	Updates   int
	Reads     int // audited reads per sweep point
	Points    []TieredPoint
}

// Render prints one machine-parsable line per sweep point.
func (r TieredResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tiered working-set sweep (%s): %d nodes × dim %d = %d KiB encoded, quant=%s, %d update batches, %d reads/point\n",
		r.Dataset, r.Nodes, r.Dim, r.Footprint>>10, r.Quant, r.Updates, r.Reads)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "tiered-sweep: factor=%d cap-kb=%d upd/s=%.1f read-p50=%v read-p99=%v hit=%.3f fault-p99=%v evictions=%d hot-kb=%d quant=%s %s\n",
			p.Factor, p.CapBytes>>10, p.UpdPerSec, p.ReadP50, p.ReadP99,
			p.HitRate, p.FaultP99, p.Evictions, p.HotBytes>>10, r.Quant, p.Exact)
	}
	b.WriteString("  (factor 0 = resident baseline; every read audited against it)")
	return b.String()
}

// TieredSweep measures the tiered row store against the resident baseline:
// for each working-set factor F the full embedding footprint is served
// under a cap of footprint/F, a mixed stream of update batches and
// Zipf-skewed reads runs to completion, and every read is audited against
// the resident reference state of the same batch (bit-exact for fp32
// pages, within the codec error bound when quantized).
func TieredSweep(c Config) (TieredResult, error) {
	c = c.normalize()
	inst := c.build(c.Datasets[0])
	quant, err := tensor.ParseQuant(c.TieredQuant)
	if err != nil {
		return TieredResult{}, err
	}
	model := c.model(modelGCN, inst.X.Cols, gnn.AggMax)

	// Pre-draw the update stream once so every point replays identical work.
	srng := rand.New(rand.NewSource(c.Seed + 9))
	shadow := inst.G.Clone()
	deltas := make([]graph.Delta, c.MixedUpdates)
	for i := range deltas {
		deltas[i] = graph.RandomDelta(srng, shadow, 8)
		if err := deltas[i].Apply(shadow); err != nil {
			return TieredResult{}, err
		}
	}

	// The resident reference replays the stream once up front, keeping the
	// COW snapshot of every batch (unchanged rows are shared between
	// snapshots, so this retains roughly the touched rows per batch).
	ref, err := inkstream.New(model, inst.G.Clone(), inst.X, nil, inkstream.Options{})
	if err != nil {
		return TieredResult{}, err
	}
	refSnaps := make([]*inkstream.Snapshot, len(deltas))
	for i, d := range deltas {
		if err := ref.Apply(append(graph.Delta(nil), d...), nil); err != nil {
			return TieredResult{}, err
		}
		refSnaps[i] = ref.PublishSnapshot()
	}

	dim := ref.Output().Cols
	nodes := inst.G.NumNodes()
	res := TieredResult{
		Dataset: inst.Spec.Name, Nodes: nodes, Dim: dim,
		Footprint: int64(nodes) * int64(quant.RowBytes(dim)),
		Quant:     quant.String(),
		Updates:   len(deltas), Reads: c.TieredReadsPerBatch * len(deltas),
	}
	for _, factor := range append([]int{0}, c.TieredFactors...) {
		pt, err := c.runTieredPoint(model, inst, refSnaps, deltas, quant, factor, res.Footprint)
		if err != nil {
			return TieredResult{}, fmt.Errorf("factor %d: %w", factor, err)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// runTieredPoint replays the prepared stream through a fresh engine at one
// cap factor, interleaving Zipf-skewed audited reads after every
// publication.
func (c Config) runTieredPoint(model *gnn.Model, inst instance, refSnaps []*inkstream.Snapshot,
	deltas []graph.Delta, quant tensor.Quant, factor int, footprint int64) (pt TieredPoint, err error) {
	eng, err := inkstream.New(model, inst.G.Clone(), inst.X, nil, inkstream.Options{})
	if err != nil {
		return TieredPoint{}, err
	}
	pt = TieredPoint{Factor: factor, HitRate: 1, Exact: "bit-exact"}
	if quant != tensor.QuantF32 {
		pt.Exact = "within-tol"
	}
	if factor > 0 {
		memCap := footprint / int64(factor)
		pageBytes := 4 << 10
		if memCap < int64(pageBytes) {
			pageBytes = int(memCap)
		}
		dir, derr := os.MkdirTemp("", "inkbench-tiered-")
		if derr != nil {
			return TieredPoint{}, derr
		}
		defer os.RemoveAll(dir)
		faultLat := obs.NewLatencyHistogram()
		store, serr := persist.NewTieredStore(persist.TieredConfig{
			Dir: dir, Dim: eng.Output().Cols,
			PageBytes: pageBytes, MemCap: memCap, Quant: quant, FaultLatency: faultLat,
		})
		if serr != nil {
			return TieredPoint{}, serr
		}
		defer store.Close()
		if err := eng.SetRowStore(store); err != nil {
			return TieredPoint{}, err
		}
		pt.CapBytes = memCap
		defer func() {
			s := store.Stats()
			pt.HitRate = s.HitRate()
			pt.Evictions = s.Evictions
			pt.HotBytes = s.HotBytes
			pt.FaultP99 = time.Duration(faultLat.Snapshot().P99())
		}()
	}

	// Zipf-skewed touch pattern scattered over the node range so the hot
	// set spans many pages (the hard case for the clock cache).
	rng := rand.New(rand.NewSource(c.Seed + 31))
	nodes := uint64(inst.G.NumNodes())
	zipf := rand.NewZipf(rng, 1.3, 4, nodes-1)
	pick := func() int { return int((zipf.Uint64() * 2654435761) % nodes) }

	readLats := make([]time.Duration, 0, c.TieredReadsPerBatch*len(deltas))
	var updTime time.Duration
	for i, delta := range deltas {
		u0 := time.Now()
		if err := eng.Apply(append(graph.Delta(nil), delta...), nil); err != nil {
			return TieredPoint{}, err
		}
		snap := eng.PublishSnapshot()
		updTime += time.Since(u0)
		for r := 0; r < c.TieredReadsPerBatch; r++ {
			node := pick()
			t0 := time.Now()
			row := snap.Row(node)
			readLats = append(readLats, time.Since(t0))
			if row == nil {
				return TieredPoint{}, fmt.Errorf("row %d unavailable at batch %d", node, i)
			}
			want := refSnaps[i].Row(node)
			if quant == tensor.QuantF32 {
				if !row.Equal(want) {
					return TieredPoint{}, fmt.Errorf("row %d not bit-exact at batch %d", node, i)
				}
			} else if !withinQuantBound(row, want, quant) {
				return TieredPoint{}, fmt.Errorf("row %d outside the %s error bound at batch %d", node, quant, i)
			}
		}
	}
	if updTime > 0 {
		pt.UpdPerSec = float64(len(deltas)) / updTime.Seconds()
	}
	sort.Slice(readLats, func(i, j int) bool { return readLats[i] < readLats[j] })
	if len(readLats) > 0 {
		pt.ReadP50 = readLats[len(readLats)/2]
		pt.ReadP99 = readLats[int(0.99*float64(len(readLats)-1))]
	}
	return pt, nil
}

// withinQuantBound checks every channel of got against want within the
// codec's worst-case error for want.
func withinQuantBound(got, want tensor.Vector, q tensor.Quant) bool {
	if len(got) != len(want) {
		return false
	}
	bound := q.ErrorBound(want)
	for i := range want {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		if d > bound {
			return false
		}
	}
	return true
}
