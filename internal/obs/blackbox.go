package obs

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Incident black box (DESIGN.md §9.5). Every observability ring in this repo
// — flight traces, round traces, the sampler window, alert state — is
// volatile: the moment a fail-stopped router or an OOM-killed server exits,
// the evidence explaining *why* exits with it. BlackBox is the flight
// recorder's crash-survivable half: on an incident trigger (alert
// pending→firing, drift-audit failure, router/WAL fail-stop) it serializes
// the full observability state into a versioned on-disk bundle, debounced
// so an alert storm produces one dump rather than hundreds, and size-capped
// so a flapping deployment cannot fill the disk. The same snapshot is
// served on demand as a tar.gz from GET /debug/bundle, and LoadDump reads a
// bundle back for offline analysis (inkstat -postmortem).

// BlackBoxVersion is the bundle format version stamped into MANIFEST.json;
// readers reject bundles from a future format.
const BlackBoxVersion = 1

// manifestName is the bundle's index file, written last so a partially
// captured bundle (process killed mid-write) is recognisably incomplete.
const manifestName = "MANIFEST.json"

// FailStopInfo is the forensics record of a fail-stop: which round failed,
// with what error, when. The shard router publishes one when it trips its
// corrupt latch; bundles carry it as failstop.json so a post-mortem names
// the exact round instead of a bare "corrupt" bool.
type FailStopInfo struct {
	Round uint64    `json:"round"`
	Err   string    `json:"error"`
	Time  time.Time `json:"time"`
}

// BlackBoxSource is the observability state every deployment wires into its
// black box; any nil field is omitted from bundles. What only one backend
// has (the router's rounds.json and failstop.json) it registers through
// AddFile, so both shapes share one capture path.
type BlackBoxSource struct {
	Flight  *FlightRecorder
	Sampler *Sampler
	Alerts  *AlertEngine
	Runtime *Runtime
	// Config is marshaled as config.json — the deployment shape (shards,
	// coalescing, SLO target) a post-mortem needs to interpret the numbers.
	Config any
}

// BlackBoxConfig configures capture behaviour.
type BlackBoxConfig struct {
	// Dir is the dump directory; bundles are subdirectories named
	// bundle-<seq>-<trigger>. Created on first capture.
	Dir string
	// MaxBundles caps retained bundles (oldest pruned first; default 8).
	MaxBundles int
	// MaxTotalBytes caps the dump directory's total size (default 64 MiB);
	// oldest bundles are pruned until under the cap. The newest bundle is
	// never pruned.
	MaxTotalBytes int64
	// Debounce suppresses automatic (Trigger) captures arriving within the
	// window after the previous one — an alert storm or cascading fail-stop
	// yields one bundle, not hundreds. Default 30s; negative disables
	// debouncing (tests). On-demand Capture calls are never debounced.
	Debounce time.Duration
	// Profiles includes pprof heap (binary) and goroutine (text) profiles in
	// each bundle.
	Profiles bool
	Source   BlackBoxSource
}

// DumpManifest is a bundle's MANIFEST.json.
type DumpManifest struct {
	Version    int       `json:"version"`
	Seq        uint64    `json:"seq"`
	Trigger    string    `json:"trigger"`
	Reason     string    `json:"reason"`
	CapturedAt time.Time `json:"captured_at"`
	Files      []string  `json:"files"`
}

type bbEvent struct{ trigger, reason string }

// BlackBox captures incident bundles. Construct with NewBlackBox, trigger
// automatically with Trigger (non-blocking, debounced, captured on a
// background worker) or synchronously with Capture, and Close before
// process exit — Close drains queued triggers first, so a fail-stop
// immediately followed by shutdown still leaves its bundle on disk.
type BlackBox struct {
	cfg BlackBoxConfig

	seq      atomic.Uint64
	lastUnix atomic.Int64 // end of the last capture to disk, unix ns (the debounce origin)

	// extraMu guards extra: named JSON payload providers (e.g. the router's
	// failstop.json) registered at wiring time.
	extraMu sync.Mutex
	extra   []extraFile

	events    chan bbEvent
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

type extraFile struct {
	name string
	// fn returns the payload to marshal; returning nil skips the file.
	fn func() any
}

// NewBlackBox builds a black box and starts its capture worker. The seq
// counter resumes above any bundle already in cfg.Dir, so restarts never
// overwrite earlier incidents.
func NewBlackBox(cfg BlackBoxConfig) *BlackBox {
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 8
	}
	if cfg.MaxTotalBytes <= 0 {
		cfg.MaxTotalBytes = 64 << 20
	}
	if cfg.Debounce == 0 {
		cfg.Debounce = 30 * time.Second
	}
	b := &BlackBox{
		cfg:    cfg,
		events: make(chan bbEvent, 8),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	b.seq.Store(scanSeq(cfg.Dir))
	go b.worker()
	return b
}

// scanSeq returns the highest bundle sequence number already in dir.
func scanSeq(dir string) uint64 {
	var max uint64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "bundle-%d-", &n); err == nil && n > max {
			max = n
		}
	}
	return max
}

// Trigger requests an automatic capture: non-blocking (the incident path —
// an alert eval or the writer tripping fail-stop — never waits on
// disk), debounced, executed on the worker. A trigger that finds the queue
// full, or arrives inside the debounce window, is dropped: a capture for the
// same incident is already queued or on disk.
func (b *BlackBox) Trigger(trigger, reason string) {
	if b == nil {
		return
	}
	select {
	case b.events <- bbEvent{trigger, reason}:
	default:
	}
}

// Close drains queued triggers, captures them, and stops the worker.
// Idempotent.
func (b *BlackBox) Close() {
	if b == nil {
		return
	}
	b.closeOnce.Do(func() { close(b.quit) })
	<-b.done
}

func (b *BlackBox) worker() {
	defer close(b.done)
	for {
		select {
		case ev := <-b.events:
			b.auto(ev)
		case <-b.quit:
			for {
				select {
				case ev := <-b.events:
					b.auto(ev)
				default:
					return
				}
			}
		}
	}
}

// auto runs one debounced automatic capture on the worker goroutine.
func (b *BlackBox) auto(ev bbEvent) {
	if d := b.cfg.Debounce; d > 0 {
		if last := b.lastUnix.Load(); last != 0 && time.Since(time.Unix(0, last)) < d {
			return
		}
	}
	if _, err := b.Capture(ev.trigger, ev.reason); err != nil {
		log.Printf("%v", err)
	}
}

type dumpFile struct {
	name string
	data []byte
}

// collect serializes the source into the bundle's file set (manifest last).
func (b *BlackBox) collect(trigger, reason string) (DumpManifest, []dumpFile, error) {
	man := DumpManifest{
		Version:    BlackBoxVersion,
		Seq:        b.seq.Add(1),
		Trigger:    trigger,
		Reason:     reason,
		CapturedAt: time.Now(),
	}
	var files []dumpFile
	addJSON := func(name string, v any) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fmt.Errorf("blackbox: marshal %s: %w", name, err)
		}
		files = append(files, dumpFile{name, data})
		return nil
	}
	src := b.cfg.Source
	if src.Flight != nil {
		if err := addJSON("traces.json", src.Flight.Traces()); err != nil {
			return man, nil, err
		}
	}
	if src.Sampler != nil {
		if err := addJSON("timeseries.json", src.Sampler.Snapshot()); err != nil {
			return man, nil, err
		}
	}
	if src.Alerts != nil {
		if err := addJSON("alerts.json", src.Alerts.Status()); err != nil {
			return man, nil, err
		}
	}
	if src.Runtime != nil {
		if err := addJSON("runtime.json", src.Runtime.Stats()); err != nil {
			return man, nil, err
		}
	}
	if src.Config != nil {
		if err := addJSON("config.json", src.Config); err != nil {
			return man, nil, err
		}
	}
	b.extraMu.Lock()
	extra := append([]extraFile(nil), b.extra...)
	b.extraMu.Unlock()
	for _, ef := range extra {
		v := ef.fn()
		if v == nil {
			continue
		}
		if err := addJSON(ef.name, v); err != nil {
			return man, nil, err
		}
	}
	if b.cfg.Profiles {
		var heap strings.Builder
		if p := pprof.Lookup("heap"); p != nil && p.WriteTo(&heap, 0) == nil {
			files = append(files, dumpFile{"heap.pprof", []byte(heap.String())})
		}
		var gor strings.Builder
		if p := pprof.Lookup("goroutine"); p != nil && p.WriteTo(&gor, 2) == nil {
			files = append(files, dumpFile{"goroutines.txt", []byte(gor.String())})
		}
	}
	for _, f := range files {
		man.Files = append(man.Files, f.name)
	}
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return man, nil, fmt.Errorf("blackbox: marshal manifest: %w", err)
	}
	files = append(files, dumpFile{manifestName, manData})
	return man, files, nil
}

// AddFile registers an extra JSON payload captured into every bundle under
// the given file name (e.g. the router's failstop.json). fn runs at capture
// time; returning nil skips the file. Register at wiring time.
func (b *BlackBox) AddFile(name string, fn func() any) {
	b.extraMu.Lock()
	defer b.extraMu.Unlock()
	b.extra = append(b.extra, extraFile{name, fn})
}

// sanitizeTrigger turns a trigger tag into a directory-name suffix.
func sanitizeTrigger(s string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			sb.WriteRune(r)
		default:
			sb.WriteRune('-')
		}
		if sb.Len() >= 32 {
			break
		}
	}
	if sb.Len() == 0 {
		return "manual"
	}
	return sb.String()
}

// Capture synchronously serializes one bundle into the dump directory and
// prunes old bundles past the caps. Safe from any goroutine; never
// debounced (the HTTP endpoint and tests call it directly).
func (b *BlackBox) Capture(trigger, reason string) (DumpManifest, error) {
	man, files, err := b.collect(trigger, reason)
	if err != nil {
		return man, err
	}
	dir := filepath.Join(b.cfg.Dir, fmt.Sprintf("bundle-%06d-%s", man.Seq, sanitizeTrigger(trigger)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return man, fmt.Errorf("blackbox: %w", err)
	}
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return man, fmt.Errorf("blackbox: write %s: %w", f.name, err)
		}
	}
	// Every capture to disk (automatic or on-demand) stamps the debounce
	// window.
	b.lastUnix.Store(time.Now().UnixNano())
	b.prune()
	return man, nil
}

// prune removes the oldest bundles beyond MaxBundles / MaxTotalBytes. The
// newest bundle always survives.
func (b *BlackBox) prune() {
	entries, err := os.ReadDir(b.cfg.Dir)
	if err != nil {
		return
	}
	var bundles []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			bundles = append(bundles, e.Name())
		}
	}
	// Zero-padded seq makes lexicographic order chronological.
	sort.Strings(bundles)
	sizes := make([]int64, len(bundles))
	var total int64
	for i, name := range bundles {
		sizes[i] = dirSize(filepath.Join(b.cfg.Dir, name))
		total += sizes[i]
	}
	for i := 0; i < len(bundles)-1; i++ {
		if len(bundles)-i <= b.cfg.MaxBundles && total <= b.cfg.MaxTotalBytes {
			break
		}
		if os.RemoveAll(filepath.Join(b.cfg.Dir, bundles[i])) == nil {
			total -= sizes[i]
		}
	}
}

func dirSize(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// WriteTarGZ captures a fresh bundle and streams it as a tar.gz to w
// without touching the dump directory — the GET /debug/bundle body.
func (b *BlackBox) WriteTarGZ(w io.Writer, trigger, reason string) (DumpManifest, error) {
	man, files, err := b.collect(trigger, reason)
	if err != nil {
		return man, err
	}
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	prefix := fmt.Sprintf("bundle-%06d-%s/", man.Seq, sanitizeTrigger(trigger))
	for _, f := range files {
		hdr := &tar.Header{
			Name:    prefix + f.name,
			Mode:    0o644,
			Size:    int64(len(f.data)),
			ModTime: man.CapturedAt,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return man, fmt.Errorf("blackbox: tar %s: %w", f.name, err)
		}
		if _, err := tw.Write(f.data); err != nil {
			return man, fmt.Errorf("blackbox: tar %s: %w", f.name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return man, err
	}
	return man, gz.Close()
}

// ServeHTTP serves GET /debug/bundle: an on-demand tar.gz capture.
func (b *BlackBox) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	seq := b.seq.Load() + 1 // name the attachment after the seq Capture will take
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="inkstream-bundle-%06d.tar.gz"`, seq))
	// Too late for a status change: a failed capture truncates the stream,
	// which the client's gzip reader reports.
	_, _ = b.WriteTarGZ(w, "on-demand", "GET /debug/bundle")
}

// ---------------------------------------------------------------------------
// Offline loading (inkstat -postmortem)

// Dump is one loaded bundle. Sections missing from the bundle are nil.
type Dump struct {
	Dir        string
	Manifest   DumpManifest
	Traces     []TraceJSON
	Rounds     []RoundJSON
	Timeseries *TSSnapshot
	Alerts     *AlertsResponse
	Runtime    *RuntimeStats
	FailStop   *FailStopInfo
	Config     json.RawMessage
}

// LoadDump reads a bundle for offline analysis. dir may be a bundle
// directory (contains MANIFEST.json) or a dump root, in which case the
// newest complete bundle inside it is loaded.
func LoadDump(dir string) (*Dump, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		// Dump root: pick the newest bundle that finished its manifest.
		entries, rerr := os.ReadDir(dir)
		if rerr != nil {
			return nil, fmt.Errorf("blackbox: %w", rerr)
		}
		var bundles []string
		for _, e := range entries {
			if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
				if _, merr := os.Stat(filepath.Join(dir, e.Name(), manifestName)); merr == nil {
					bundles = append(bundles, e.Name())
				}
			}
		}
		if len(bundles) == 0 {
			return nil, fmt.Errorf("blackbox: no bundle with %s under %s", manifestName, dir)
		}
		sort.Strings(bundles)
		dir = filepath.Join(dir, bundles[len(bundles)-1])
	}
	d := &Dump{Dir: dir}
	if err := readJSON(dir, manifestName, &d.Manifest); err != nil {
		return nil, err
	}
	if d.Manifest.Version > BlackBoxVersion {
		return nil, fmt.Errorf("blackbox: bundle version %d newer than reader version %d",
			d.Manifest.Version, BlackBoxVersion)
	}
	for _, name := range d.Manifest.Files {
		var err error
		switch name {
		case "traces.json":
			err = readJSON(dir, name, &d.Traces)
		case "rounds.json":
			err = readJSON(dir, name, &d.Rounds)
		case "timeseries.json":
			d.Timeseries = &TSSnapshot{}
			err = readJSON(dir, name, d.Timeseries)
		case "alerts.json":
			d.Alerts = &AlertsResponse{}
			err = readJSON(dir, name, d.Alerts)
		case "runtime.json":
			d.Runtime = &RuntimeStats{}
			err = readJSON(dir, name, d.Runtime)
		case "failstop.json":
			d.FailStop = &FailStopInfo{}
			err = readJSON(dir, name, d.FailStop)
		case "config.json":
			var raw json.RawMessage
			if err = readJSON(dir, name, &raw); err == nil {
				d.Config = raw
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func readJSON(dir, name string, v any) error {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("blackbox: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("blackbox: parse %s: %w", name, err)
	}
	return nil
}

// Series returns the named timeseries of the dump (nil when absent).
func (d *Dump) Series(name string) []float64 {
	if d.Timeseries == nil {
		return nil
	}
	for _, s := range d.Timeseries.Series {
		if s.Name == name {
			return s.Samples
		}
	}
	return nil
}
