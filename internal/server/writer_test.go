package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/server"
)

// The writer tests pin who writes: the caller that finds nobody writing
// journals, applies, publishes and acknowledges its request on its own
// goroutine, and a writer's turn ends with the group that holds its own
// request. scripts/check.sh runs them under the race detector at 1 and 4
// CPUs, since which caller writes depends on the scheduler.

// stubJournal is a Journal whose Commit can be held: commit k (counting
// from 1) waits until hold[k] is closed, when the test installed one.
type stubJournal struct {
	mu       sync.Mutex
	commits  int
	stack    string                // the goroutine stack of the last Commit
	entered  chan int              // receives k when commit k starts
	hold     map[int]chan struct{} // commit number → release
	appended int
}

func (j *stubJournal) AppendBuffered(graph.Delta, []inkstream.VertexUpdate) error {
	j.mu.Lock()
	j.appended++
	j.mu.Unlock()
	return nil
}

func (j *stubJournal) Commit() error {
	buf := make([]byte, 64<<10)
	stack := string(buf[:runtime.Stack(buf, false)])
	j.mu.Lock()
	j.commits++
	k := j.commits
	j.stack = stack
	release := j.hold[k]
	j.mu.Unlock()
	if j.entered != nil {
		j.entered <- k
	}
	if release != nil {
		<-release
	}
	return nil
}

// scrapeMetrics scrapes the server's /metrics without a listener.
func scrapeMetrics(t *testing.T, srv *server.Server) obs.Samples {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples, err := obs.ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestWriterIsTheCaller: a lone Apply makes its request durable on the
// calling goroutine — the journal's Commit runs with this test function on
// its stack — and no other goroutine takes part.
func TestWriterIsTheCaller(t *testing.T) {
	forEachShape(t, func(t *testing.T, shards int) {
		srv, g := deploy(t, shards)
		j := &stubJournal{}
		srv.SetJournal(j)
		if err := srv.Apply(graph.Delta{absent(t, g, 1)[0]}, nil); err != nil {
			t.Fatal(err)
		}
		if j.commits != 1 {
			t.Fatalf("%d commits, want 1", j.commits)
		}
		if !strings.Contains(j.stack, "TestWriterIsTheCaller") {
			t.Fatalf("Commit ran off the calling goroutine:\n%s", j.stack)
		}
	})
}

// TestWriterGroupCommitHandOff: while the first caller's Commit is held, n
// further callers queue. Released, the first caller's turn ends with its own
// group, and its Apply returns while the next group's Commit — all n queued
// requests under one fsync, written by one of them — is still held.
func TestWriterGroupCommitHandOff(t *testing.T) {
	const n = 8
	forEachShape(t, func(t *testing.T, shards int) {
		srv, g := deploy(t, shards)
		j := &stubJournal{
			entered: make(chan int, 2),
			hold:    map[int]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})},
		}
		srv.SetJournal(j)
		// Registered after deploy's Close, so it runs first: a failed run
		// releases every held Commit instead of leaving Close waiting on one.
		released := map[int]bool{}
		release := func(k int) {
			if !released[k] {
				released[k] = true
				close(j.hold[k])
			}
		}
		t.Cleanup(func() { release(1); release(2) })
		edges := absent(t, g, n+1)

		first := make(chan error, 1)
		go func() { first <- srv.Apply(graph.Delta{edges[0]}, nil) }()
		if k := <-j.entered; k != 1 {
			t.Fatalf("commit %d entered first", k)
		}
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for _, e := range edges[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- srv.Apply(graph.Delta{e}, nil)
			}()
		}
		// All n are queued once the lag gauge (accepted, not yet published)
		// counts them behind the held request.
		deadline := time.Now().Add(5 * time.Second)
		for {
			lag, _ := scrapeMetrics(t, srv).Get("inkstream_snapshot_lag_batches")
			if lag == n+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("lag %v, want %d queued", lag, n+1)
			}
			time.Sleep(100 * time.Microsecond)
		}

		release(1)
		if k := <-j.entered; k != 2 {
			t.Fatalf("commit %d entered second", k)
		}
		select {
		case err := <-first:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the first Apply waited on the second group's Commit")
		}
		release(2)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		if j.commits != 2 || j.appended != n+1 {
			t.Fatalf("%d commits over %d records, want 2 over %d", j.commits, j.appended, n+1)
		}
		m := scrapeMetrics(t, srv)
		count, _ := m.Get("inkstream_group_commit_batch_size_count")
		sum, _ := m.Get("inkstream_group_commit_batch_size_sum")
		ones, _ := m.Get("inkstream_group_commit_batch_size_bucket", "le", "1")
		if count != 2 || sum != n+1 || ones != 1 {
			t.Fatalf("group commits: count %v sum %v (%v of size 1), want sizes 1 and %d", count, sum, ones, n)
		}
	})
}

// TestWriterBoundedAdmission: while the writer's Commit is held, 512
// callers (four groups' worth) queue behind it. The next request is refused
// at once with 429 and never queued; released, the writer acknowledges
// every queued caller.
func TestWriterBoundedAdmission(t *testing.T) {
	const queued = 512
	forEachShape(t, func(t *testing.T, shards int) {
		srv, g := deploy(t, shards)
		hold := make(chan struct{})
		j := &stubJournal{entered: make(chan int, 8), hold: map[int]chan struct{}{1: hold}}
		srv.SetJournal(j)
		released := false
		release := func() {
			if !released {
				released = true
				close(hold)
			}
		}
		t.Cleanup(release)
		edges := absent(t, g, queued+2)

		first := make(chan error, 1)
		go func() { first <- srv.Apply(graph.Delta{edges[0]}, nil) }()
		if k := <-j.entered; k != 1 {
			t.Fatalf("commit %d entered first", k)
		}
		var wg sync.WaitGroup
		errs := make(chan error, queued)
		for _, e := range edges[1 : queued+1] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- srv.Apply(graph.Delta{e}, nil)
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			lag, _ := scrapeMetrics(t, srv).Get("inkstream_snapshot_lag_batches")
			if lag == queued+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("lag %v, want %d queued", lag, queued+1)
			}
			time.Sleep(100 * time.Microsecond)
		}

		e := edges[queued+1]
		body, err := json.Marshal(server.UpdateRequest{Changes: []server.EdgeChangeJSON{{U: int32(e.U), V: int32(e.V), Insert: true}}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body)))
		}()
		select {
		case <-answered:
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d past a full queue was queued, not refused", queued+2)
		}
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("request %d answered %d %s, want 429", queued+2, rec.Code, rec.Body)
		}
		if err := srv.Apply(graph.Delta{e}, nil); !errors.Is(err, server.ErrOverloaded) {
			t.Fatalf("Apply past a full queue: %v, want ErrOverloaded", err)
		}

		release()
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if j.appended != queued+1 {
			t.Fatalf("%d records journaled, want %d: a refused request reached the journal", j.appended, queued+1)
		}
		if lag, _ := scrapeMetrics(t, srv).Get("inkstream_snapshot_lag_batches"); lag != 0 {
			t.Fatalf("lag %v after the queue drained, want 0: a refused request was counted as accepted", lag)
		}
	})
}
