package gnn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func newTestRng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestActKindString(t *testing.T) {
	for k, want := range map[ActKind]string{ActIdentity: "identity", ActReLU: "relu", 7: "ActKind(7)"} {
		if got := k.String(); got != want {
			t.Errorf("ActKind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestActKindFn(t *testing.T) {
	x := tensor.Vector{-1, 2}
	out := tensor.NewVector(2)
	ActReLU.Fn()(out, x)
	if !out.Equal(tensor.Vector{0, 2}) {
		t.Errorf("relu = %v", out)
	}
	ActIdentity.Fn()(out, x)
	if !out.Equal(x) {
		t.Errorf("identity = %v", out)
	}
}

func TestLayerActAccessors(t *testing.T) {
	rng := newTestRng()
	agg := NewAggregator(AggMax)
	if NewGCNLayer(rng, "g", 2, 2, agg, ActReLU).Act() != ActReLU {
		t.Error("GCN Act")
	}
	if NewSAGELayer(rng, "s", 2, 2, agg, ActIdentity).Act() != ActIdentity {
		t.Error("SAGE Act")
	}
	if NewGINLayer(rng, "i", 2, 2, agg, ActReLU).Act() != ActReLU {
		t.Error("GIN Act")
	}
	if NewGraphConvLayer(rng, "c", 2, 2, agg, ActReLU).Act() != ActReLU {
		t.Error("GraphConv Act")
	}
}

// Restore constructors rebuild layers that infer identically.
func TestRestoreConstructors(t *testing.T) {
	rng := newTestRng()
	g := lineGraph(t, 8)
	x := tensor.RandMatrix(rng, 8, 4, 1)
	orig := NewGCN(rng, 4, 6, NewAggregator(AggMax))
	l0 := orig.Layers[0].(*GCNLayer)
	l1 := orig.Layers[1].(*GCNLayer)
	rebuilt := &Model{Name: "GCN", Layers: []Layer{
		RestoreGCNLayer(l0.Name(), l0.W, l0.B, l0.Agg(), l0.Act()),
		RestoreGCNLayer(l1.Name(), l1.W, l1.B, l1.Agg(), l1.Act()),
	}}
	a, err := Infer(orig, g, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(rebuilt, g, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("restored model infers differently")
	}
}
