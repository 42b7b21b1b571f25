package server

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/inkstream"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/persist"
)

// newTieredServer builds a server whose engine publishes through a
// TieredStore with a cap far below the embedding footprint, so reads
// exercise eviction and faulting.
func newTieredServer(t *testing.T) (*httptest.Server, *Server, *persist.TieredStore) {
	t.Helper()
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(7))
	g := dataset.GenerateRMAT(rng, 200, 800, dataset.DefaultRMAT)
	feats := dataset.NewFeatures(rng, 200, 8)
	model := gnn.NewGCN(rng, 8, 16, gnn.NewAggregator(gnn.AggMax))
	var c metrics.Counters
	eng, err := inkstream.New(model, g, feats.X, &c, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	faultLat := obs.NewLatencyHistogram()
	rowB := 4 * 16
	st, err := persist.NewTieredStore(persist.TieredConfig{
		Dir: t.TempDir(), Dim: 16,
		PageBytes:    4 * rowB,
		MemCap:       int64(8 * 4 * rowB), // 8 of 50 pages resident
		FaultLatency: faultLat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetRowStore(st); err != nil {
		t.Fatal(err)
	}
	s := New(eng, &c)
	s.EnablePageCache(st.Stats, faultLat, st.Quant().String())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		st.Close()
	})
	return ts, s, st
}

func TestPageCacheStatsAndMetrics(t *testing.T) {
	ts, s, _ := newTieredServer(t)

	// Read every node through the public read path so hits and (after the
	// cap bites) faults accumulate.
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 200; i++ {
			row, _, ok := s.ReadEmbedding(i)
			if !ok || len(row) != 16 {
				t.Fatalf("pass %d: read %d failed (ok=%v len=%d)", pass, i, ok, len(row))
			}
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats := decode[StatsResponse](t, resp)
	if stats.PageCache == nil {
		t.Fatal("tiered server reported no page_cache section")
	}
	pc := stats.PageCache
	if pc.Hits+pc.Misses == 0 {
		t.Error("no page-cache activity recorded")
	}
	if pc.TotalPages == 0 || pc.CapBytes == 0 {
		t.Errorf("page table not reflected: pages=%d cap=%d", pc.TotalPages, pc.CapBytes)
	}
	if pc.Quant != "f32" {
		t.Errorf("quant = %q, want f32", pc.Quant)
	}
	if pc.HitRate < 0 || pc.HitRate > 1 {
		t.Errorf("hit rate %v out of range", pc.HitRate)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, fam := range []string{
		"inkstream_page_cache_hits_total",
		"inkstream_page_cache_misses_total",
		"inkstream_page_cache_hot_pages",
		"inkstream_page_cache_pages",
		"inkstream_page_fault_latency_seconds",
	} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
}

func TestResidentServerHasNoPageCacheSection(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stats := decode[StatsResponse](t, resp)
	if stats.PageCache != nil {
		t.Error("resident server exported a page_cache section")
	}
}
