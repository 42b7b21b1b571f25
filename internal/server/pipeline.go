package server

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
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

// ErrOverloaded is returned, without queueing the request, when the write
// queue already holds maxQueued requests; handlers answer 429 for it.
var ErrOverloaded = errors.New("server: write queue full")

// maxGroup bounds how many queued requests one group commit may cover:
// large enough to amortise the fsync under load, small enough to bound
// the latency any single request waits behind the group.
const maxGroup = 128

// maxQueued bounds the write queue: four groups' worth of waiting callers,
// each one a blocked goroutine and its request.
const maxQueued = 4 * maxGroup

// yieldEvery is how often writer turns yield their P (write): a tenth of
// the scheduler's 10 ms preemption slice, so goroutines runnable on a
// closed-loop caller's P run within about a millisecond, and a serving
// writer, which parks on its socket between requests anyway, pays for at
// most one Gosched per millisecond.
const yieldEvery = time.Millisecond

// errLead is what a queued caller receives on its done channel, instead of
// an outcome, when the finishing writer hands it the writer role.
var errLead = errors.New("server: writer role handed over")

// updateReq is one unit of work on the single-writer path. Exactly one of
// (delta/vups) or op is used: ordinary mutations carry the batch and are
// journaled, while op requests (e.g. /v1/verify) run exclusively on the
// writer without touching the journal.
type updateReq struct {
	delta graph.Delta
	vups  []inkstream.VertexUpdate
	op    func() error
	err   error
	done  chan error

	// Flight-recorder state (flight.go): id 0 means tracing is disabled for
	// this request. Marks are cumulative offsets from start, each written by
	// the writer that took the request's group. round is the backend's ID
	// for the apply that covered the request (0 when the backend has none),
	// joining its trace to /v1/rounds.
	id      uint64
	start   time.Time
	kind    string
	sampled bool
	fused   int
	round   uint64
	marks   [obs.StageCount]time.Duration
	eng     *obs.Trace
}

// Apply submits one update batch to the single writer and waits until it is
// durable (when a journal is configured) and applied, with the resulting
// snapshot published. It is the programmatic equivalent of
// POST /v1/update + /v1/features and is safe for any number of concurrent
// callers.
func (s *Server) Apply(delta graph.Delta, vups []inkstream.VertexUpdate) error {
	return s.do(delta, vups, nil)
}

// do queues a request and returns its one outcome. The caller that finds
// nobody writing becomes the writer: it journals, applies, publishes and
// acknowledges one group on its own goroutine (write). Any other caller
// waits on its done channel, which brings either its outcome — another
// writer's group held its request — or errLead, the writer role, with its
// request now at the head of the queue. Every accepted request gets exactly
// one outcome, Close included: a request Close overtakes is acknowledged
// with ErrServerClosed. A request that finds maxQueued others waiting is
// refused with ErrOverloaded and never queued.
func (s *Server) do(delta graph.Delta, vups []inkstream.VertexUpdate, op func() error) error {
	r := s.newReq(delta, vups, op)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	if len(s.queue) >= maxQueued {
		s.mu.Unlock()
		return ErrOverloaded
	}
	s.queue = append(s.queue, r)
	if r.op == nil {
		s.accepted.Add(1)
	}
	lead := !s.writing
	s.writing = true
	s.mu.Unlock()
	if !lead {
		if err := <-r.done; err != errLead {
			return err
		}
	}
	s.write()
	return <-r.done
}

// write is one writer turn. The writer's own request heads the queue (it
// found the queue empty, or was handed its head), so the group it takes —
// everything queued, up to maxGroup — holds that request, and the turn ends
// with its outcome: a writer never writes past its own group. The group is
// made durable under one Commit, fused and applied, and acknowledged behind
// a published snapshot. Then the role passes to the next queued caller, if
// any; once Close has run, it passes to nobody and Close fails the rest.
func (s *Server) write() {
	defer crashOnPanic()
	s.mu.Lock()
	n := min(len(s.queue), maxGroup)
	group := append(s.group[:0], s.queue[:n]...)
	clear(s.queue[copy(s.queue, s.queue[n:]):])
	s.queue = s.queue[:len(s.queue)-n]
	s.mu.Unlock()

	s.coalesceGroup(s.journalGroup(group), s.fused)
	s.flushFused(s.fused)
	clear(group)
	s.group = group[:0]
	// A caller writing in a closed loop never parks: its turns need no
	// channel wait, so goroutines made runnable on its P (readers of the
	// snapshots it publishes) would wait for the scheduler to preempt it.
	// Yield once yieldEvery has passed since the last yield.
	if time.Since(s.yielded) >= yieldEvery {
		runtime.Gosched()
		s.yielded = time.Now()
	}

	s.mu.Lock()
	if len(s.queue) > 0 && !s.closed {
		// Never blocks: nothing has sent to a request still queued, and
		// done holds one.
		s.queue[0].done <- errLead
	} else {
		s.writing = false
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// crashOnPanic ends the process on a panic in a writer turn, as an
// unrecovered panic on a goroutine of its own would. net/http recovers a
// handler's panic, which would leave the writer role held and every later
// write waiting forever.
func crashOnPanic() {
	if p := recover(); p != nil {
		fmt.Fprintf(os.Stderr, "server: panic in the writer: %v\n%s", p, debug.Stack())
		os.Exit(2)
	}
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

// Close bars new requests, waits for the current writer's turn to end, and
// fails what is still queued with ErrServerClosed rather than applying it;
// anything already journaled remains durable and is recovered by WAL
// replay. Reads keep working against the last published snapshot. A
// concurrent second Close returns once the first has finished.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		for s.writing {
			s.idle.Wait()
		}
		queued := s.queue
		s.queue = nil
		s.mu.Unlock()
		for _, r := range queued {
			s.finish(r, ErrServerClosed)
		}
		close(s.quit)
		s.wg.Wait()
		s.sampler.Stop()
		// Drain queued incident captures last, so an alert, audit failure or
		// fail-stop immediately followed by shutdown still leaves its bundle.
		s.blackbox.Close()
	})
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
