package server

import (
	"net/http"

	"repro/internal/obs"
)

// Incident black box wiring (DESIGN.md §9.5). EnableBlackBox arms automatic
// post-mortem capture on the incident signal the pipeline has — a burn-rate
// alert transitioning to firing — plus whatever the backend arms itself (a
// drift audit failure, a sharded round fail-stop), and exposes the same
// snapshot on demand at GET /debug/bundle.

// BlackBoxInfo is the deployment-shape block written into each bundle's
// config.json; inkstat -postmortem prints it as the incident header.
type BlackBoxInfo struct {
	Deployment  string  `json:"deployment"`
	Shards      int     `json:"shards"`
	SLOMS       float64 `json:"slo_ms,omitempty"`
	SampleEvery int     `json:"trace_sample_every,omitempty"`
}

// EnableBlackBox arms the incident black box: cfg.Dir names the dump
// directory; cfg.Source is filled in by the server (any caller-provided
// Config payload is kept). Automatic captures trigger on alert
// pending→firing and on the backend's own incidents (Backend.ArmBlackBox: a
// drift-audit failure, a sharded round fail-stop), debounced per cfg. Call
// before serving; captured bundles are read back with obs.LoadDump or
// inkstat -postmortem.
func (s *Server) EnableBlackBox(cfg obs.BlackBoxConfig) *obs.BlackBox {
	cfg.Source.Flight = s.flight
	cfg.Source.Sampler = s.sampler
	cfg.Source.Alerts = s.alerts
	cfg.Source.Runtime = s.runtime
	if cfg.Source.Config == nil {
		info := BlackBoxInfo{
			Deployment: "single-engine",
			Shards:     s.backend.Shape().Shards,
			SLOMS:      float64(s.sloNS.Load()) / 1e6,
		}
		if info.Shards > 1 {
			info.Deployment = "sharded"
		}
		if s.flight != nil {
			info.SampleEvery = s.flight.SampleEvery()
		}
		cfg.Source.Config = info
	}
	bb := obs.NewBlackBox(cfg)
	s.blackbox = bb
	s.alerts.OnFiring(func(name, reason string) {
		bb.Trigger("alert-"+name, reason)
	})
	s.backend.ArmBlackBox(bb)
	return bb
}

// handleBundle serves GET /debug/bundle: an on-demand tar.gz capture of the
// full observability state.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	if s.blackbox == nil {
		httpError(w, http.StatusNotImplemented, "black box not enabled")
		return
	}
	s.blackbox.ServeHTTP(w, r)
}
