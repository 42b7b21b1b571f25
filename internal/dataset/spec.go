// Package dataset synthesises benchmark graphs standing in for the six
// datasets of the paper's evaluation (Table II). The real datasets are not
// available offline, so each profile records the published statistics
// (|V|, |E|, feature length) and a scale factor; the generator produces an
// RMAT power-law graph matching the *scaled* statistics. Scaling preserves
// the properties the experiments depend on — the density ordering across
// datasets and the growth of k-hop neighborhoods — while keeping CPU-only
// full-graph baselines tractable. See DESIGN.md §1.
package dataset

import "fmt"

// Spec describes one benchmark dataset profile.
type Spec struct {
	// Name is the paper's dataset name; Abbrev the two-letter code used in
	// its tables (PM, CA, YP, RD, PD, PP).
	Name   string
	Abbrev string

	// PaperNodes/PaperEdges/PaperFeat are the published statistics
	// (Table II), after the paper's snapshotting (latest n edges).
	PaperNodes int64
	PaperEdges int64
	PaperFeat  int

	// Scale divides the published node count for synthetic generation;
	// edge count is divided by the same factor so that average degree —
	// the property governing affected-area growth — is preserved.
	Scale int64

	// FeatScale divides the feature length (combination cost only).
	FeatScale int

	// Class is the paper's size class: Small, Medium or Large.
	Class string
}

// Nodes returns the synthetic node count.
func (s Spec) Nodes() int { return int(s.PaperNodes / s.Scale) }

// Edges returns the synthetic edge count.
func (s Spec) Edges() int { return int(s.PaperEdges / s.Scale) }

// FeatLen returns the synthetic input feature length.
func (s Spec) FeatLen() int {
	f := s.PaperFeat / s.FeatScale
	if f < 4 {
		f = 4
	}
	return f
}

// Scaled returns the profile down-scaled by a further factor by (≥ 1), the
// -scale flag of the commands that generate a profile.
func (s Spec) Scaled(by int64) (Spec, error) {
	if by < 1 {
		return Spec{}, fmt.Errorf("dataset: scale %d: need a down-scaling factor of at least 1", by)
	}
	s.Scale *= by
	return s, nil
}

// AvgDegree returns the synthetic (≈ published) average degree.
func (s Spec) AvgDegree() float64 { return float64(s.Edges()) / float64(s.Nodes()) }

func (s Spec) String() string {
	return fmt.Sprintf("%s(%s): %d nodes, %d edges, feat %d (paper %d/%d/%d, scale 1/%d)",
		s.Name, s.Abbrev, s.Nodes(), s.Edges(), s.FeatLen(),
		s.PaperNodes, s.PaperEdges, s.PaperFeat, s.Scale)
}

// The six profiles. Published statistics follow Table II of the paper
// (after its edge-snapshotting: n = 15M edges for ogbn-products, 500M for
// ogbn-papers100M, 5M for the rest — hence Yelp's 114M published edges are
// capped differently from raw GraphSAINT Yelp). Scale factors are chosen so
// each synthetic graph runs full-graph inference on one CPU in at most a
// few seconds while keeping the paper's size and density *ordering*:
// papers100M > products > Yelp ≈ Reddit > Cora > PubMed by nodes, and
// Yelp ≫ products > Reddit > Cora > PubMed by density.
var (
	PubMed = Spec{
		Name: "PubMed", Abbrev: "PM", Class: "Small",
		PaperNodes: 20_000, PaperEdges: 89_000, PaperFeat: 500,
		Scale: 2, FeatScale: 8,
	}
	Cora = Spec{
		Name: "Cora", Abbrev: "CA", Class: "Small",
		PaperNodes: 20_000, PaperEdges: 127_000, PaperFeat: 8710,
		Scale: 2, FeatScale: 128,
	}
	Yelp = Spec{
		Name: "Yelp", Abbrev: "YP", Class: "Medium",
		PaperNodes: 717_000, PaperEdges: 114_000_000, PaperFeat: 300,
		Scale: 24, FeatScale: 8,
	}
	Reddit = Spec{
		Name: "Reddit", Abbrev: "RD", Class: "Medium",
		PaperNodes: 233_000, PaperEdges: 14_000_000, PaperFeat: 602,
		Scale: 8, FeatScale: 16,
	}
	Products = Spec{
		Name: "ogbn-products", Abbrev: "PD", Class: "Medium",
		PaperNodes: 2_450_000, PaperEdges: 15_000_000, PaperFeat: 100,
		Scale: 48, FeatScale: 4,
	}
	Papers100M = Spec{
		Name: "ogbn-papers100M", Abbrev: "PP", Class: "Large",
		PaperNodes: 111_000_000, PaperEdges: 500_000_000, PaperFeat: 172,
		Scale: 1200, FeatScale: 4,
	}
)

// All lists the six profiles in the paper's table order.
var All = []Spec{PubMed, Cora, Yelp, Reddit, Products, Papers100M}

// ByName returns the profile with the given Name or Abbrev
// (case-sensitive), or an error listing valid names.
func ByName(name string) (Spec, error) {
	for _, s := range All {
		if s.Name == name || s.Abbrev == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q (want one of PM, CA, YP, RD, PD, PP or full names)", name)
}
