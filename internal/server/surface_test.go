package server_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// The telemetry surface (DESIGN.md §9.1, §9.3): every metric family on
// GET /metrics and every series on GET /v1/timeseries, each with the one
// place that reads it — an inkstat -watch column or sparkline, an inkstat
// -postmortem section, the burn-rate alert rule, /healthz or a bench/
// metric. A signal is exported only with a reader; a new one joins this
// table with its reader.

// Where a signal is exported.
const (
	everywhere = iota // every deployment
	oneEngine         // server.New, with or without a black box
	sharded           // server.NewOn over a 2-shard router
)

type signal struct {
	name  string
	where int
	// reader is "file:function", the file relative to the repository root:
	// the function names the signal in its source.
	reader string
}

const (
	watch      = "cmd/inkstat/watch.go:"
	postmortem = "cmd/inkstat/postmortem.go:"
)

var families = []signal{
	{"inkstream_updates_total", everywhere, watch + "watchLine"},
	{"inkstream_update_latency_seconds", everywhere, watch + "watchLine"},
	{"inkstream_snapshot_epoch", everywhere, watch + "watchLine"},
	{"inkstream_snapshot_lag_batches", everywhere, watch + "watchLine"},
	{"inkstream_reads_total", everywhere, watch + "watchLine"},
	{"inkstream_group_commit_batch_size", everywhere, watch + "watchLine"},
	{"inkstream_coalesced_batch_size", everywhere, watch + "watchLine"},
	{"inkstream_coalesce_stalls_total", everywhere, watch + "watchLine"},
	{"inkstream_events_processed_total", everywhere, watch + "watchLine"},
	{"inkstream_node_visits_total", everywhere, watch + "visitRatio"},
	{"inkstream_router_shards", everywhere, watch + "shardSuffix"},
	{"inkstream_router_epoch_skew", everywhere, watch + "shardSuffix"},
	{"inkstream_runtime_heap_inuse_bytes", everywhere, watch + "runtimeSuffix"},
	{"inkstream_runtime_goroutines", everywhere, watch + "runtimeSuffix"},
	{"inkstream_runtime_gc_cpu_fraction", everywhere, watch + "runtimeSuffix"},
	{"inkstream_runtime_gc_pause_seconds", everywhere, watch + "runtimeSuffix"},
	{"inkstream_wal_append_latency_seconds", everywhere, "bench/trace.go:metricsMetrics"},

	{"inkstream_router_cut_fraction", sharded, watch + "shardSuffix"},
	{"inkstream_boundary_records_total", sharded, watch + "shardSuffix"},
	{"inkstream_ghost_rows_total", sharded, watch + "shardSuffix"},
	{"inkstream_round_barrier_wait_seconds_total", sharded, watch + "shardSuffix"},
	{"inkstream_round_compute_seconds_total", sharded, watch + "shardSuffix"},
	{"inkstream_shard_straggler_rounds_total", sharded, watch + "topStraggler"},
}

var series = []signal{
	{"upd_per_s", everywhere, watch + "sparklines"},
	{"ack_p99_ms", everywhere, "internal/server/server.go:SetHealthSLO"},
	{"lag_batches", everywhere, postmortem + "renderSeries"},
	{"heap_mb", everywhere, postmortem + "renderSeries"},
	{"goroutines", everywhere, postmortem + "renderSeries"},
	{"gc_cpu_pct", everywhere, postmortem + "renderSeries"},
	{"gc_pause_ms", everywhere, postmortem + "renderSeries"},
	{"sched_p99_ms", everywhere, postmortem + "renderSeries"},
	{"drift_max_abs", oneEngine, watch + "sparklines"},
	{"barrier_share", sharded, postmortem + "renderSeries"},
}

// statsKeys is the GET /v1/stats body: the deployment's shape and the
// counts no other surface carries. An object's keys are listed as
// "key.sub", per_shard's as those of one slice. fail_stop appears only after
// a fail-stop (internal/shard TestFailStopForensics). A row with a reader
// is a key something outside the server decodes by name.
var statsKeys = []signal{
	{"nodes", everywhere, ""},
	{"edges", everywhere, ""},
	{"shards", everywhere, ""},
	{"updates_served", everywhere, ""},
	{"slow_updates", everywhere, ""},
	{"coalesce.fallbacks", everywhere, ""},
	{"bytes_fetched", everywhere, ""},

	{"partition_strategy", sharded, ""},
	{"cut_fraction", sharded, "bench/trace.go:collectTraced"},
	{"boundary_bytes", sharded, ""},
	{"filtered_records", sharded, ""},
	{"per_shard.shard", sharded, ""},
	{"per_shard.epoch", sharded, ""},
	{"per_shard.rounds", sharded, ""},
	{"per_shard.owned_nodes", sharded, ""},
	{"per_shard.arcs", sharded, ""},
	{"per_shard.events_processed", sharded, ""},
	{"per_shard.nodes_visited", sharded, ""},
}

// TestTelemetrySurface pins the surface on the three deployments: the
// families a scrape of /metrics declares, the series /v1/timeseries serves
// and the keys of /v1/stats are exactly the tables', and every reader named
// in a table names its signal.
func TestTelemetrySurface(t *testing.T) {
	for _, sig := range slices.Concat(families, series) {
		if !readerNames(t, sig) {
			t.Errorf("%s: %s does not read it", sig.name, sig.reader)
		}
	}
	for _, sig := range statsKeys {
		if sig.reader != "" && !readerNames(t, sig) {
			t.Errorf("%s: %s does not read it", sig.name, sig.reader)
		}
	}
	for _, d := range []struct {
		name   string
		deploy func(t *testing.T) *server.Server
		where  []int
	}{
		{"engine", func(t *testing.T) *server.Server { srv, _ := deploy(t, 1); return srv }, []int{everywhere, oneEngine}},
		{"engine+black-box", func(t *testing.T) *server.Server {
			srv, _ := deploy(t, 1)
			srv.EnableBlackBox(obs.BlackBoxConfig{Dir: t.TempDir(), Debounce: -1})
			return srv
		}, []int{everywhere, oneEngine}},
		{"2-shard", func(t *testing.T) *server.Server { srv, _ := deploy(t, 2); return srv }, []int{everywhere, sharded}},
	} {
		t.Run(d.name, func(t *testing.T) {
			ts := httptest.NewServer(d.deploy(t).Handler())
			defer ts.Close()
			want := func(table []signal) []string {
				var out []string
				for _, sig := range table {
					if slices.Contains(d.where, sig.where) {
						out = append(out, sig.name)
					}
				}
				slices.Sort(out)
				return out
			}

			_, text := get(t, ts.URL+"/metrics", nil)
			var gotFamilies []string
			for _, line := range strings.Split(text, "\n") {
				if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
					gotFamilies = append(gotFamilies, f[2])
				}
			}
			slices.Sort(gotFamilies)
			if w := want(families); !slices.Equal(gotFamilies, w) {
				t.Errorf("/metrics families\n got %v\nwant %v", gotFamilies, w)
			}

			var snap obs.TSSnapshot
			get(t, ts.URL+"/v1/timeseries", &snap)
			var gotSeries []string
			for _, s := range snap.Series {
				gotSeries = append(gotSeries, s.Name)
			}
			slices.Sort(gotSeries)
			if w := want(series); !slices.Equal(gotSeries, w) {
				t.Errorf("/v1/timeseries series\n got %v\nwant %v", gotSeries, w)
			}

			var stats map[string]any
			get(t, ts.URL+"/v1/stats", &stats)
			var gotKeys []string
			for k, v := range stats {
				if list, ok := v.([]any); ok && len(list) > 0 {
					v = list[0]
				}
				if obj, ok := v.(map[string]any); ok {
					for sub := range obj {
						gotKeys = append(gotKeys, k+"."+sub)
					}
					continue
				}
				gotKeys = append(gotKeys, k)
			}
			slices.Sort(gotKeys)
			if w := want(statsKeys); !slices.Equal(gotKeys, w) {
				t.Errorf("/v1/stats keys\n got %v\nwant %v", gotKeys, w)
			}
		})
	}
}

// readerNames reports whether the function sig.reader names holds the
// signal's name as the start of a string literal (histogram readers append
// _count, _sum or _bucket).
func readerNames(t *testing.T, sig signal) bool {
	t.Helper()
	file, fn, _ := strings.Cut(sig.reader, ":")
	path := filepath.Join("..", "..", filepath.FromSlash(file))
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok && d.Name.Name == fn {
			body := src[fset.Position(d.Pos()).Offset:fset.Position(d.End()).Offset]
			return strings.Contains(string(body), `"`+sig.name)
		}
	}
	t.Fatalf("%s: no function %s in %s", sig.name, fn, file)
	return false
}
