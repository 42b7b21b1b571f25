package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ErrServerClosed is returned for mutations submitted after (or racing
// with) Close.
var ErrServerClosed = errors.New("server: closed")

// ErrUnavailable marks a backend error as "writes are refused" rather than
// "this batch is invalid": handlers answer 503 instead of 422 for any error
// wrapping it (shard.ErrCorrupt does).
var ErrUnavailable = errors.New("backend refuses writes")

// maxGroup bounds how many queued requests one group commit may cover:
// large enough to amortise the fsync under load, small enough to bound
// the latency any single request waits behind the group.
const maxGroup = 128

// updateReq is one unit of work travelling the single-writer pipeline.
// Exactly one of (delta/vups) or op is used: ordinary mutations carry the
// batch and are journaled, while op requests (e.g. /v1/verify) run
// exclusively on the apply stage without touching the journal.
type updateReq struct {
	delta graph.Delta
	vups  []inkstream.VertexUpdate
	op    func() error
	err   error
	done  chan error

	// Flight-recorder state (flight.go): id 0 means tracing is disabled for
	// this request. Marks are cumulative offsets from start, each written by
	// the one pipeline goroutine owning the request at that stage. round is
	// the backend's ID for the apply that covered the request (0 when the
	// backend has none), joining its trace to /v1/rounds.
	id      uint64
	start   time.Time
	kind    string
	sampled bool
	fused   int
	round   uint64
	marks   [obs.StageCount]time.Duration
	eng     *obs.Trace
}

// Apply submits one update batch into the single-writer pipeline and waits
// until it is durable (when a journal is configured) and applied, with the
// resulting snapshot published. It is the programmatic equivalent of
// POST /v1/update + /v1/features and is safe for any number of concurrent
// callers.
func (s *Server) Apply(delta graph.Delta, vups []inkstream.VertexUpdate) error {
	return s.do(delta, vups, nil)
}

// do enqueues a request and waits for its one outcome. Every accepted
// request gets exactly one, Close included: a request Close overtakes is
// acknowledged with ErrServerClosed.
func (s *Server) do(delta graph.Delta, vups []inkstream.VertexUpdate, op func() error) error {
	r := s.newReq(delta, vups, op)
	if err := s.submit(r); err != nil {
		return err
	}
	return <-r.done
}

// submit enqueues r unless the server is closed. A full submitCh blocks
// here but never deadlocks: the journal stage keeps draining and takes no
// locks, and Close's write lock just waits.
func (s *Server) submit(r *updateReq) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrServerClosed
	}
	s.submitCh <- r
	if r.op == nil {
		s.accepted.Add(1)
	}
	return nil
}

// ReadEmbedding resolves one node against the currently published
// snapshot with zero locking. The returned row is immutable (shared with
// the snapshot) and valid indefinitely; epoch is the staleness bound the
// caller may report. ok is false only when the node is out of the
// snapshot's range.
func (s *Server) ReadEmbedding(node int) (row tensor.Vector, epoch uint64, ok bool) {
	s.reads.Add(1)
	return s.backend.ReadRow(node)
}

// Close stops the pipeline and waits for both stages to exit. Requests
// still queued are failed with ErrServerClosed rather than applied;
// anything already journaled remains durable and is recovered by WAL
// replay. Reads keep working against the last published snapshot. A
// concurrent second Close returns once the first has finished.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closeMu.Lock()
		s.closed = true
		s.closeMu.Unlock()
		close(s.quit)
		s.wg.Wait()
		s.sampler.Stop()
		// Drain queued incident captures last, so an alert, audit failure or
		// fail-stop immediately followed by shutdown still leaves its bundle.
		s.blackbox.Close()
	})
}

// journalLoop is stage 1 of the writer pipeline: it drains every request
// queued behind the first one into a group (bounded by maxGroup), makes
// the whole group durable under a single fsync (group commit), and hands
// it to the apply stage. Because applyCh is buffered, the next group's
// encode/append/fsync overlaps the engine compute of the previous one.
func (s *Server) journalLoop() {
	defer s.wg.Done()
	defer close(s.applyCh)
	// Shutdown drain: Close barred new submits before closing quit, so
	// failing what is still queued leaves no request without an outcome.
	defer func() {
		for {
			select {
			case r := <-s.submitCh:
				s.finish(r, ErrServerClosed)
			default:
				return
			}
		}
	}()
	for {
		var first *updateReq
		select {
		case first = <-s.submitCh:
		case <-s.quit:
			return
		}
		group := append(make([]*updateReq, 0, 8), first)
	drain:
		for len(group) < maxGroup {
			select {
			case r := <-s.submitCh:
				group = append(group, r)
			default:
				break drain
			}
		}
		group = s.journalGroup(group)
		if len(group) == 0 {
			continue
		}
		select {
		case s.applyCh <- group:
		case <-s.quit:
			for _, r := range group {
				s.finish(r, ErrServerClosed)
			}
			return
		}
	}
}

// journalGroup writes every journalable request of the group into the
// journal and commits once. On a journal error the whole group's
// mutations are failed and removed (the engine never sees them): a
// response only ever reports success when the batch is durable. op
// requests pass through untouched. Returns the surviving group.
func (s *Server) journalGroup(group []*updateReq) []*updateReq {
	if s.journal == nil {
		return group
	}
	var jerr error
	journaled := 0
	for _, r := range group {
		if r.op != nil || jerr != nil {
			continue
		}
		if jerr = s.journal.AppendBuffered(r.delta, r.vups); jerr == nil {
			journaled++
		}
	}
	if jerr == nil && journaled > 0 {
		jerr = s.journal.Commit()
	}
	if journaled > 0 && jerr == nil {
		s.gcSize.Observe(int64(journaled))
	}
	if jerr == nil {
		// The group commit covering each journaled request just returned:
		// its durability point.
		for _, r := range group {
			if r.op == nil {
				r.mark(obs.StageJournal)
			}
		}
		return group
	}
	out := group[:0]
	for _, r := range group {
		if r.op != nil {
			out = append(out, r)
			continue
		}
		s.processed.Add(1)
		s.finish(r, fmt.Errorf("journal: %w", jerr))
	}
	return out
}

// applyLoop is stage 2: the only goroutine that ever mutates the backend.
// It merges each group's compatible mutations into fused Backend.Apply calls
// (coalesce.go), amortising the backend's fixed per-batch costs across
// everything that queued behind the in-flight update; with nothing queued a
// batch covers one request. A snapshot covering a request is published
// before that request is acknowledged — so a successful response implies the
// served snapshot already reflects the update (read-your-writes: the paper's
// "instantaneous" availability).
func (s *Server) applyLoop() {
	defer s.wg.Done()
	f := newFused()
	for group := range s.applyCh {
		s.coalesceGroup(group, f)
		// Drain every group already journaled behind this one into the
		// open batch before flushing. The absorb never waits — it only
		// takes what the journal stage has finished — so it widens the
		// fusion window exactly when requests are queueing faster than
		// the engine applies them, and adds nothing to latency when the
		// pipeline is idle. coalesceGroup's maxGroup bound still flushes
		// oversized batches mid-absorb.
	absorb:
		for {
			select {
			case more, ok := <-s.applyCh:
				if !ok {
					break absorb
				}
				s.coalesceGroup(more, f)
			default:
				break absorb
			}
		}
		s.flushFused(f)
	}
}
