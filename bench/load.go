package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

type opKind uint8

const (
	opUpdate opKind = iota
	opFeatures
	opRead
)

// sample is one completed (or failed) operation as the client saw it.
type sample struct {
	kind    opKind
	ok      bool
	done    time.Duration // completion, since the load started
	lat     time.Duration // writes: send → ack; reads: due time → response
	server  time.Duration // writes: the latency_ms the server reported
	late    time.Duration // reads: how long after its due time it was sent
	changes int           // edge changes acknowledged
}

// loadResult is everything one load phase observed.
type loadResult struct {
	samples []sample
	// bounds are the segment boundaries since the load started: segment i
	// covers completions in [bounds[i], bounds[i+1]). bounds[0] is the end
	// of the warm-up. serverCPU and benchCPU are the processes' CPU seconds
	// at each boundary.
	bounds    []time.Duration
	serverCPU []float64
	benchCPU  []float64
}

// newClient returns a client that keeps one connection to the server, so a
// worker's requests travel one socket as a real caller's would.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// runLoad drives the workload's traffic at srv: one closed-loop writer per
// stream, each sending its next request when the previous is acknowledged,
// and one reader paced at readRate requests per second over nodes node IDs
// (Zipf). It warms up for warm, then measures segments of segLen each.
// Every worker finishes its request in flight before runLoad returns, so
// the streams' recorded state is the server's.
func runLoad(ctx context.Context, srv *server, streams []*stream, nodes int, seed int64, warm, segLen time.Duration, segments int) (*loadResult, error) {
	base := "http://" + srv.addr
	start := time.Now()
	stopAt := start.Add(warm + time.Duration(segments)*segLen)

	perWorker := make([][]sample, len(streams)+1)
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *stream) {
			defer wg.Done()
			perWorker[i] = writeLoop(ctx, newClient(), base, st, start, stopAt)
		}(i, st)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		perWorker[len(streams)] = readLoop(ctx, newClient(), base, nodes, seed, start, stopAt)
	}()

	res := &loadResult{}
	var cpuErr error
	for i := 0; i <= segments; i++ {
		at := warm + time.Duration(i)*segLen
		select {
		case <-time.After(time.Until(start.Add(at))):
		case <-ctx.Done():
		}
		res.bounds = append(res.bounds, time.Since(start))
		sc, err := srv.cpuSeconds()
		if err != nil {
			cpuErr = err
		}
		bc, err := procCPUSeconds(os.Getpid())
		if err != nil {
			cpuErr = err
		}
		res.serverCPU = append(res.serverCPU, sc)
		res.benchCPU = append(res.benchCPU, bc)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cpuErr != nil {
		return nil, fmt.Errorf("reading CPU time: %w", cpuErr)
	}
	for _, s := range perWorker {
		res.samples = append(res.samples, s...)
	}
	return res, nil
}

func writeLoop(ctx context.Context, client *http.Client, base string, st *stream, start, stopAt time.Time) []sample {
	defer client.CloseIdleConnections()
	var out []sample
	var ack struct {
		LatencyMS float64 `json:"latency_ms"`
	}
	for time.Now().Before(stopAt) && ctx.Err() == nil {
		req := st.next()
		s := sample{kind: opUpdate, changes: len(req.delta)}
		if req.vups != nil {
			s.kind = opFeatures
		}
		t0 := time.Now()
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.path, bytes.NewReader(req.body))
		if err == nil {
			hreq.Header.Set("Content-Type", "application/json")
			var resp *http.Response
			if resp, err = client.Do(hreq); err == nil {
				if resp.StatusCode == http.StatusOK {
					err = json.NewDecoder(resp.Body).Decode(&ack)
					s.ok = err == nil
				}
				_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
				resp.Body.Close()
			}
		}
		end := time.Now()
		s.lat = end.Sub(t0)
		s.done = end.Sub(start)
		s.server = time.Duration(ack.LatencyMS * float64(time.Millisecond))
		out = append(out, s)
	}
	return out
}

func readLoop(ctx context.Context, client *http.Client, base string, nodes int, seed int64, start, stopAt time.Time) []sample {
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(nodes-1))
	interval := time.Second / readRate
	var out []sample
	for k := 0; ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(stopAt) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := sample{kind: opRead}
		sent := time.Now()
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/embedding?node="+strconv.FormatUint(zipf.Uint64(), 10), nil)
		if err == nil {
			var resp *http.Response
			if resp, err = client.Do(hreq); err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				s.ok = err == nil && resp.StatusCode == http.StatusOK
				resp.Body.Close()
			}
		}
		end := time.Now()
		// Timed from the due time: a stall that delays later reads counts
		// against them.
		s.lat = end.Sub(due)
		s.late = sent.Sub(due)
		s.done = end.Sub(start)
		out = append(out, s)
	}
	return out
}

// segStats are one segment's client-side numbers.
type segStats struct {
	ackMS, readMS, featMS []float64 // latencies, ms
	overheadUS            []float64 // update latency − server-reported latency
	lateUS                []float64
	changes               int
	seconds               float64
	serverCPU, benchCPU   float64
}

// segment collects segment i of r; i = -1 collects every measured segment.
func (r *loadResult) segment(i int) segStats {
	lo, hi := i, i+1
	if i < 0 {
		lo, hi = 0, len(r.bounds)-1
	}
	st := segStats{
		seconds:   (r.bounds[hi] - r.bounds[lo]).Seconds(),
		serverCPU: r.serverCPU[hi] - r.serverCPU[lo],
		benchCPU:  r.benchCPU[hi] - r.benchCPU[lo],
	}
	for _, s := range r.samples {
		if !s.ok || s.done < r.bounds[lo] || s.done >= r.bounds[hi] {
			continue
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		switch s.kind {
		case opUpdate:
			st.ackMS = append(st.ackMS, ms)
			st.overheadUS = append(st.overheadUS, float64(s.lat-s.server)/float64(time.Microsecond))
			st.changes += s.changes
		case opFeatures:
			st.featMS = append(st.featMS, ms)
		case opRead:
			st.readMS = append(st.readMS, ms)
			st.lateUS = append(st.lateUS, float64(s.late)/float64(time.Microsecond))
		}
	}
	return st
}

// counts returns the operations attempted and failed over the whole phase,
// warm-up included.
func (r *loadResult) counts() (attempted, failed int) {
	for _, s := range r.samples {
		attempted++
		if !s.ok {
			failed++
		}
	}
	return attempted, failed
}
