package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/gnn"
	"repro/internal/metrics"
)

// MemCostRow reports the additional memory InkStream keeps for one dataset
// (Sec. III-E): the two per-layer checkpoints (m and α) relative to the
// dataset size (features + edges), at two hidden-state widths. An arc is
// modelled at 8 B, which is what graph.Graph stores: one 4-byte NodeID in
// each direction's adjacency list and no arc index. Each checkpoint is
// reported both modeled (summed slice lengths) and measured (heap-in-use
// growth around the allocation) — a persistent gap between the two means
// the model under-counts allocator overhead.
type MemCostRow struct {
	Dataset       string
	DatasetBytes  int64
	CheckpointH   int64   // modeled checkpoint bytes at cfg.Hidden
	MeasuredH     int64   // HeapInuse growth while allocating that checkpoint
	RatioH        float64 // CheckpointH / DatasetBytes
	CheckpointH32 int64   // modeled checkpoint bytes at width 32 (paper's small case)
	MeasuredH32   int64
	RatioH32      float64
}

// measureHeap reports alloc's result alongside the heap-in-use growth its
// allocation caused: a GC settles the heap, HeapInuse is read, alloc runs,
// a second GC sweeps alloc's temporaries (the returned state stays live),
// and HeapInuse is read again. The delta floor is 0 — concurrent frees can
// shrink unrelated spans below the start point.
func measureHeap(alloc func() *gnn.State) (st *gnn.State, measured int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st = alloc()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	if measured = int64(after.HeapInuse) - int64(before.HeapInuse); measured < 0 {
		measured = 0
	}
	return st, measured
}

// MemCostResult reproduces the Sec. III-E analysis (GCN).
type MemCostResult struct {
	Hidden int
	Rows   []MemCostRow
}

// MemCost runs the analysis.
func MemCost(cfg Config) (*MemCostResult, error) {
	cfg = cfg.normalize()
	res := &MemCostResult{Hidden: cfg.Hidden}
	for _, spec := range cfg.Datasets {
		inst := cfg.build(spec)
		dataBytes := int64(4*len(inst.X.Data)) + int64(8*inst.G.NumArcs())
		row := MemCostRow{Dataset: spec.Name, DatasetBytes: dataBytes}

		model := cfg.model(modelGCN, inst.X.Cols, gnn.AggMax)
		st, measured := measureHeap(func() *gnn.State { return gnn.NewState(model, inst.G.NumNodes()) })
		row.CheckpointH = st.MemoryBytes()
		row.MeasuredH = measured
		row.RatioH = float64(row.CheckpointH) / float64(dataBytes)

		small := cfg
		small.Hidden = 32
		model32 := small.model(modelGCN, inst.X.Cols, gnn.AggMax)
		st32, measured32 := measureHeap(func() *gnn.State { return gnn.NewState(model32, inst.G.NumNodes()) })
		row.CheckpointH32 = st32.MemoryBytes()
		row.MeasuredH32 = measured32
		row.RatioH32 = float64(row.CheckpointH32) / float64(dataBytes)

		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (r *MemCostResult) Render() string {
	t := newTable("Sec. III-E — additional memory for saved checkpoints (GCN)",
		"dataset", "dataset size", "ckpt(hidden)", "resident", "ratio", "ckpt(h=32)", "resident", "ratio")
	for _, row := range r.Rows {
		t.addRow(row.Dataset,
			metrics.HumanBytes(row.DatasetBytes),
			metrics.HumanBytes(row.CheckpointH), metrics.HumanBytes(row.MeasuredH), fmtRatio(row.RatioH),
			metrics.HumanBytes(row.CheckpointH32), metrics.HumanBytes(row.MeasuredH32), fmtRatio(row.RatioH32))
	}
	return t.String() + "\n  (resident = heap-in-use growth measured around the checkpoint allocation; ckpt = modeled from slice lengths)"
}

func fmtRatio(f float64) string {
	switch {
	case f >= 10:
		return fmt.Sprintf("%.0fx", f)
	case f >= 1:
		return fmt.Sprintf("%.2fx", f)
	default:
		return fmt.Sprintf("%.3fx", f)
	}
}
