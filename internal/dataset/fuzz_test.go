package dataset

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzLoad exercises the binary parser with arbitrary bytes: it must
// either return an error or a structurally consistent snapshot — never
// panic and never allocate unboundedly from a corrupt header.
func FuzzLoad(f *testing.F) {
	// Seed with a valid snapshot and several truncations/mutations of it.
	rng := rand.New(rand.NewSource(1))
	g := GenerateRMAT(rng, 32, 64, DefaultRMAT)
	feats := NewFeatures(rng, 32, 4)
	var buf bytes.Buffer
	if err := Save(&buf, g, feats); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:20])
	f.Add([]byte("INKS"))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[10] = 0xFF // blow up the node count (header bytes 8–11)
	f.Add(mutated)
	for _, c := range corruptSnapshots() {
		f.Add(c.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, feats, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.NumNodes() < 0 || feats.X.Rows != g.NumNodes() {
			t.Fatalf("inconsistent snapshot accepted: %d nodes, %d feature rows",
				g.NumNodes(), feats.X.Rows)
		}
	})
}
