package server

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/persist"
)

// BenchmarkApplyWriters measures Server.Apply throughput with a WAL on the
// test's temp directory (a real fsync per group commit) at one and at eight
// concurrent writers, each toggling its own one-edge request. ns/op is wall
// time per request over all writers. The eight-writer row is where the
// journal of one group could overlap the apply of the one before it; the
// one-writer row is every benchmark workload's shape (EXPERIMENTS.md).
func BenchmarkApplyWriters(b *testing.B) {
	const n = 2048
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			s, eng := newPipelineServer(b, 23, n, 4*n)
			wal, err := persist.OpenWAL(filepath.Join(b.TempDir(), "bench.wal"))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { wal.Close() })
			s.SetJournal(wal)
			g := eng.Graph()
			rng := rand.New(rand.NewSource(24))
			seen := map[[2]graph.NodeID]bool{}
			var own []graph.EdgeChange
			for len(own) < writers {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if u == v || g.HasEdge(u, v) || seen[[2]graph.NodeID{u, v}] || seen[[2]graph.NodeID{v, u}] {
					continue
				}
				seen[[2]graph.NodeID{u, v}] = true
				own = append(own, graph.EdgeChange{U: u, V: v})
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for w, e := range own {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < b.N; i += writers {
						e.Insert = (i/writers)%2 == 0
						if err := s.Apply(graph.Delta{e}, nil); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
