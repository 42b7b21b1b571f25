package experiments

import (
	"strconv"

	"repro/internal/gnn"
	"repro/internal/inkstream"
)

// Fig4Row compares, on one dataset, the work InkStream-m does with event
// grouping (the full method) and without it (each native event applied on
// its own, in arrival order): exposed-reset recomputes and bytes fetched,
// summed over the dataset's scenarios.
type Fig4Row struct {
	Dataset                          string
	ExposedGrouped, ExposedUngrouped int64
	FetchedGrouped, FetchedUngrouped int64
}

// Fig4Result reproduces the event-grouping argument of Fig. 4 as counts, on
// Table VI's setup (GCN, max, ΔG=100): a lone deletion that resets a channel
// forces a neighbourhood rebuild that the additions grouped with it would
// have covered.
type Fig4Result struct {
	Rows []Fig4Row
}

// Fig4 runs the grouping ablation.
func Fig4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.normalize()
	res := &Fig4Result{}
	for _, spec := range cfg.Datasets {
		inst := cfg.build(spec)
		model := cfg.model(modelGCN, inst.X.Cols, gnn.AggMax)
		base, err := gnn.Infer(model, inst.G, inst.X, nil)
		if err != nil {
			return nil, err
		}
		row := Fig4Row{Dataset: spec.Name}
		for _, d := range cfg.scenarioDeltas(inst.G, 100, cfg.scenariosFor(100)) {
			g, err := runInk(model, inst, base, d, inkstream.Options{})
			if err != nil {
				return nil, err
			}
			u, err := runInk(model, inst, base, d, inkstream.Options{DisableGrouping: true})
			if err != nil {
				return nil, err
			}
			row.ExposedGrouped += g.Stats.Counts[inkstream.CondExposedReset]
			row.ExposedUngrouped += u.Stats.Counts[inkstream.CondExposedReset]
			row.FetchedGrouped += g.Snap.BytesFetched
			row.FetchedUngrouped += u.Snap.BytesFetched
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (r *Fig4Result) Render() string {
	t := newTable("Fig. 4 — event grouping ablation for InkStream-m (GCN, dG=100)",
		"dataset", "exposed resets (grouped)", "(ungrouped)", "bytes fetched (grouped)", "(ungrouped)")
	for _, row := range r.Rows {
		t.addRow(row.Dataset,
			strconv.FormatInt(row.ExposedGrouped, 10), strconv.FormatInt(row.ExposedUngrouped, 10),
			strconv.FormatInt(row.FetchedGrouped, 10), strconv.FormatInt(row.FetchedUngrouped, 10))
	}
	return t.String()
}
