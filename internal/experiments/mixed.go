package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/server"
)

// MixedResult reports the mixed read/write workload: read latency
// quantiles observed by concurrent paced readers while one update stream
// drives the server's single-writer pipeline flat out.
type MixedResult struct {
	Dataset    string
	Readers    int
	Updates    int
	Duration   time.Duration
	UpdateMean time.Duration
	UpdateP99  time.Duration
	Reads      int
	ReadP50    time.Duration
	ReadP99    time.Duration
	ReadMax    time.Duration
	FinalEpoch uint64
}

// Render formats the mixed-workload report.
func (r MixedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mixed workload (%s): %d readers vs 1 update stream, %v\n",
		r.Dataset, r.Readers, r.Duration.Round(time.Millisecond))
	fmt.Fprintf(&b, "  updates: %d applied, mean %v, p99 %v (final snapshot epoch %d)\n",
		r.Updates, r.UpdateMean.Round(time.Microsecond), r.UpdateP99.Round(time.Microsecond),
		r.FinalEpoch)
	fmt.Fprintf(&b, "  reads:   %d served (%.0f/s), p50 %v, p99 %v, max %v\n",
		r.Reads, float64(r.Reads)/r.Duration.Seconds(),
		r.ReadP50, r.ReadP99, r.ReadMax)
	b.WriteString("  (lock-free snapshot path: read tail stays flat regardless of update cost)")
	return b.String()
}

// Mixed runs the mixed-workload benchmark on the first configured dataset:
// c.Readers goroutines issue paced embedding reads against the published
// snapshot while the main goroutine streams c.MixedUpdates ΔG batches
// through the server pipeline. The paper's serving claim is exactly this
// shape — instantaneous reads concurrent with incremental updates.
func Mixed(c Config) (MixedResult, error) {
	c = c.normalize()
	inst := c.build(c.Datasets[0])
	rng := rand.New(rand.NewSource(c.Seed))
	model := c.model(modelGCN, inst.X.Cols, gnn.AggMax)
	eng, err := inkstream.New(model, inst.G, inst.X, nil, inkstream.Options{})
	if err != nil {
		return MixedResult{}, err
	}
	srv := server.New(eng, nil)
	defer srv.Close()

	const readPace = 100 * time.Microsecond
	const maxSamples = 100_000
	nodes := inst.G.NumNodes()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	readLats := make([][]time.Duration, c.Readers)
	readCounts := make([]int, c.Readers)
	for r := 0; r < c.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(c.Seed + int64(r) + 1000))
			// The stop check follows the read, so every reader reports at
			// least one sample even if a short update stream finishes before
			// the scheduler first runs this goroutine.
			for {
				time.Sleep(readPace)
				node := rng.Intn(nodes)
				t0 := time.Now()
				if _, _, ok := srv.ReadEmbedding(node); !ok {
					return
				}
				lat := time.Since(t0)
				readCounts[r]++
				if len(readLats[r]) < maxSamples {
					readLats[r] = append(readLats[r], lat)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}

	// The update stream: deltas are generated against a shadow clone (the
	// engine's graph is mutated concurrently by the pipeline's apply
	// stage, so it must not be read here).
	shadow := eng.Graph().Clone()
	updLats := make([]time.Duration, 0, c.MixedUpdates)
	t0 := time.Now()
	for i := 0; i < c.MixedUpdates; i++ {
		delta := graph.RandomDelta(rng, shadow, 16)
		if err := delta.Apply(shadow); err != nil {
			return MixedResult{}, err
		}
		u0 := time.Now()
		if err := srv.Apply(delta, nil); err != nil {
			return MixedResult{}, err
		}
		updLats = append(updLats, time.Since(u0))
	}
	dur := time.Since(t0)
	close(stop)
	wg.Wait()

	var all []time.Duration
	reads := 0
	for r := range readLats {
		all = append(all, readLats[r]...)
		reads += readCounts[r]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(updLats, func(i, j int) bool { return updLats[i] < updLats[j] })
	q := func(l []time.Duration, p float64) time.Duration {
		if len(l) == 0 {
			return 0
		}
		return l[int(p*float64(len(l)-1))]
	}
	var updSum time.Duration
	for _, d := range updLats {
		updSum += d
	}
	var updMean time.Duration
	if len(updLats) > 0 {
		updMean = updSum / time.Duration(len(updLats))
	}
	res := MixedResult{
		Dataset:    inst.Spec.Name,
		Readers:    c.Readers,
		Updates:    len(updLats),
		Duration:   dur,
		UpdateMean: updMean,
		UpdateP99:  q(updLats, 0.99),
		Reads:      reads,
		ReadP50:    q(all, 0.50),
		ReadP99:    q(all, 0.99),
		ReadMax:    q(all, 1.0),
		FinalEpoch: srv.Stats().Epoch,
	}
	return res, nil
}
