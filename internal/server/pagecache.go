package server

import (
	"time"

	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// PageCacheSection is the /v1/stats block describing the tiered row
// store's cache behaviour; present only when the server was started with
// a tiered store (EnablePageCache).
type PageCacheSection struct {
	obs.PageCacheStats
	// HitRate is hits/(hits+misses) cumulatively since start.
	HitRate float64 `json:"hit_rate"`
	// Quant names the on-page row encoding ("f32", "f16" or "int8").
	Quant string `json:"quant"`
	// FaultP99Ms is the p99 page-fault latency in milliseconds.
	FaultP99Ms float64 `json:"fault_p99_ms"`
}

// EnablePageCache registers the tiered store's page-cache metric families
// (the inkstat -watch cache=/fault-p99=/hot= columns) and the /v1/stats
// page_cache section. stats samples the store's counters
// (persist.TieredStore.Stats fits); faultLat must be the same histogram the
// store observes fault latency into; quant names the on-page encoding. Like the other configuration methods it must be
// called before serving. The server stays decoupled from the storage
// package: everything crosses this boundary as obs types, the same way
// the journal crosses as an interface. New servers only: the tiered store is
// one engine's row store.
func (s *Server) EnablePageCache(stats func() obs.PageCacheStats, faultLat *obs.Histogram, quant string) {
	e := s.engine()
	e.pageStats = stats
	e.pageFaultLat = faultLat
	e.pageQuant = quant
	r := s.reg
	r.CounterFunc("inkstream_page_cache_hits_total",
		"Row reads served from a resident page payload (no disk access).",
		func() float64 { return float64(stats().Hits) })
	r.CounterFunc("inkstream_page_cache_misses_total",
		"Row reads that faulted their page in from the spill file.",
		func() float64 { return float64(stats().Misses) })
	r.GaugeFunc("inkstream_page_cache_hot_pages",
		"Pages whose current generation is resident.",
		func() float64 { return float64(stats().HotPages) })
	r.GaugeFunc("inkstream_page_cache_pages",
		"Total pages in the store.",
		func() float64 { return float64(stats().TotalPages) })
	if faultLat != nil {
		r.Histogram("inkstream_page_fault_latency_seconds",
			"Latency of faulting one page back from the spill file (slot read, verify, decode-ready).",
			1e-9, faultLat)
	}
}

// readTieredRow reads one row from a tiered snapshot under the flight
// recorder: a read whose page faulted in from the spill file gets a trace ID
// and, when sampled, slow or failed, a "read"-kind entry in /v1/traces (which
// inkstat -postmortem renders). Attribution is by miss-count delta around
// the row fetch, so under concurrent faulting reads a trace may adopt a
// neighbour's fault; the linkage is a debugging breadcrumb, not an
// accounting invariant.
func (e *engineBackend) readTieredRow(snap *inkstream.Snapshot, node int) tensor.Vector {
	f := e.s.flight
	missesBefore := e.pageStats().Misses
	t0 := time.Now()
	row := snap.Row(node)
	if e.pageStats().Misses == missesBefore {
		return row // served resident: stay off the trace machinery
	}
	d := time.Since(t0)
	id := f.NextID()
	sampled, slow := f.SampledID(id), f.IsSlow(d)
	if sampled || slow || row == nil {
		t := &obs.ReqTrace{
			ID:      id,
			Kind:    "read",
			Start:   t0,
			Total:   d,
			Sampled: sampled,
			Slow:    slow,
		}
		t.Marks[obs.StageAck] = d
		if row == nil {
			t.Err = "tiered row unavailable (page fault failed)"
		}
		t.GCPause = e.s.runtime.GCPauseOverlap(t0, t0.Add(d))
		f.Record(t)
	}
	return row
}
