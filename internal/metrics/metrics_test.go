package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersBasics(t *testing.T) {
	var c Counters
	c.FetchVec(10) // 40 bytes
	c.StoreVec(5)  // 20 bytes
	c.AddFLOPs(100)
	c.VisitNode()
	c.VisitNodes(4)
	c.EventsProcessed.Add(7)
	s := c.Snapshot()
	if s.BytesFetched != 40 || s.BytesWritten != 20 || s.FLOPs != 100 ||
		s.NodesVisited != 5 || s.EventsProcessed != 7 {
		t.Errorf("snapshot %+v", s)
	}
	c.Reset()
	if c.Snapshot() != (Snapshot{}) {
		t.Error("Reset incomplete")
	}
}

func TestNilCountersSafe(t *testing.T) {
	var c *Counters
	// All recording methods must be no-ops on nil receivers so engines can
	// run uninstrumented.
	c.FetchVec(1)
	c.StoreVec(1)
	c.AddFLOPs(1)
	c.VisitNode()
	c.VisitNodes(2)
}

// TestTallyFlush: a Tally records what Counters would, adds it into a
// Counters in one Flush and starts over; a nil Counters takes nothing.
func TestTallyFlush(t *testing.T) {
	var c Counters
	c.EventsProcessed.Add(1)
	var tl Tally
	tl.FetchVec(10)
	tl.StoreVec(5)
	tl.AddFLOPs(100)
	tl.VisitNode()
	tl.AddEvents(7)
	tl.Flush(&c)
	if s := c.Snapshot(); s != (Snapshot{BytesFetched: 40, BytesWritten: 20, FLOPs: 100, NodesVisited: 1, EventsProcessed: 8}) {
		t.Errorf("after flush %+v", s)
	}
	if tl != (Tally{}) {
		t.Errorf("flush left %+v", tl)
	}
	tl.VisitNode()
	tl.Flush(nil)
	tl.Flush(&c)
	if c.NodesVisited.Load() != 1 {
		t.Errorf("a flush into nil carried over: %d visits", c.NodesVisited.Load())
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.FetchVec(1)
				c.VisitNode()
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.BytesFetched != 8*1000*4 || s.NodesVisited != 8000 {
		t.Errorf("lost updates: %+v", s)
	}
}

func TestSnapshotArithmetic(t *testing.T) {
	a := Snapshot{BytesFetched: 10, BytesWritten: 4, FLOPs: 6, NodesVisited: 2, EventsProcessed: 1}
	b := Snapshot{BytesFetched: 3, BytesWritten: 1, FLOPs: 2, NodesVisited: 1, EventsProcessed: 1}
	sum := a.Add(b)
	if sum.BytesFetched != 13 || sum.EventsProcessed != 2 {
		t.Errorf("Add: %+v", sum)
	}
	diff := a.Sub(b)
	if diff.BytesFetched != 7 || diff.NodesVisited != 1 {
		t.Errorf("Sub: %+v", diff)
	}
	if !strings.Contains(a.String(), "visited=2") {
		t.Errorf("String: %s", a)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		0:          "0B",
		512:        "512B",
		2048:       "2.0KiB",
		3 << 20:    "3.0MiB",
		5 << 30:    "5.0GiB",
		1<<40 + 12: "1.0TiB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestStopwatch(t *testing.T) {
	var sw Stopwatch
	if sw.Elapsed() != 0 {
		t.Error("fresh stopwatch must read zero")
	}
	sw.Start()
	time.Sleep(5 * time.Millisecond)
	sw.Stop()
	first := sw.Elapsed()
	if first < 2*time.Millisecond {
		t.Errorf("elapsed %v too small", first)
	}
	// Accumulates across Start/Stop pairs.
	sw.Start()
	time.Sleep(2 * time.Millisecond)
	sw.Stop()
	if sw.Elapsed() <= first {
		t.Error("second interval not accumulated")
	}
	// Stop when not running is a no-op.
	before := sw.Elapsed()
	sw.Stop()
	if sw.Elapsed() != before {
		t.Error("Stop while stopped changed elapsed")
	}
	sw.Reset()
	if sw.Elapsed() != 0 {
		t.Error("Reset failed")
	}
}

func TestStopwatchRunningElapsed(t *testing.T) {
	var sw Stopwatch
	sw.Start()
	time.Sleep(2 * time.Millisecond)
	if sw.Elapsed() < time.Millisecond {
		t.Error("running stopwatch must include the live interval")
	}
}

func TestTime(t *testing.T) {
	d := Time(func() { time.Sleep(3 * time.Millisecond) })
	if d < 2*time.Millisecond {
		t.Errorf("Time = %v", d)
	}
}
