package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func mkTrace(id uint64, total time.Duration) *ReqTrace {
	t := &ReqTrace{ID: id, Kind: "update", Start: time.Unix(0, 0), Edges: 1, Fused: 1, Total: total, Sampled: true}
	t.Marks[StageJournal] = total / 4
	t.Marks[StageCoalesce] = total / 3
	t.Marks[StageApply] = 3 * total / 4
	t.Marks[StagePublish] = 4 * total / 5
	t.Marks[StageAck] = total
	return t
}

func TestReqTraceSpans(t *testing.T) {
	tr := mkTrace(1, 100*time.Microsecond)
	spans := tr.Spans()
	if len(spans) != int(StageCount) {
		t.Fatalf("got %d spans, want %d", len(spans), StageCount)
	}
	var sum time.Duration
	for _, sp := range spans {
		sum += sp.D
	}
	if sum != tr.Total {
		t.Errorf("spans sum %v, want total %v", sum, tr.Total)
	}
	if st, d := tr.SlowestStage(); st != StageApply || d != 100*time.Microsecond*3/4-100*time.Microsecond/3 {
		t.Errorf("slowest %v %v", st, d)
	}

	// An op request skips the journal: its first span starts at submit.
	op := &ReqTrace{ID: 2, Kind: "op", Total: 10 * time.Microsecond}
	op.Marks[StageCoalesce] = 2 * time.Microsecond
	op.Marks[StageApply] = 9 * time.Microsecond
	spans = op.Spans()
	if len(spans) != 3 { // coalesce, apply, ack (ack synthesised from Total)
		t.Fatalf("op spans: %v", spans)
	}
	if spans[0].Stage != StageCoalesce || spans[0].D != 2*time.Microsecond {
		t.Errorf("first op span %v", spans[0])
	}
	if spans[2].Stage != StageAck || spans[2].D != time.Microsecond {
		t.Errorf("ack span %v", spans[2])
	}
}

func TestReqTraceJSON(t *testing.T) {
	tr := mkTrace(0x2a, time.Millisecond)
	tr.Err = "boom"
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["trace_id"] != "000000000000002a" {
		t.Errorf("trace_id %v", m["trace_id"])
	}
	if m["slowest_stage"] != "apply" {
		t.Errorf("slowest_stage %v", m["slowest_stage"])
	}
	if m["error"] != "boom" {
		t.Errorf("error %v", m["error"])
	}
	if n := len(m["spans"].([]any)); n != int(StageCount) {
		t.Errorf("%d spans in JSON", n)
	}
}

func TestFlightRecorderSamplingAndRing(t *testing.T) {
	f := NewFlightRecorder(4, 8)
	if len(f.Traces()) != 0 || f.Recorded() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	if f.SampleEvery() != 8 {
		t.Fatalf("sample every %d", f.SampleEvery())
	}
	sampled := 0
	for i := 0; i < 64; i++ {
		if f.SampledID(f.NextID()) {
			sampled++
		}
	}
	if sampled != 8 {
		t.Errorf("sampled %d of 64 at 1/8", sampled)
	}

	// Ring keeps the newest 4, newest first.
	for i := 1; i <= 6; i++ {
		f.Record(mkTrace(uint64(i), time.Duration(i)*time.Microsecond))
	}
	got := f.Traces()
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	for i, want := range []uint64{6, 5, 4, 3} {
		if got[i].ID != want {
			t.Errorf("traces[%d].ID = %d, want %d", i, got[i].ID, want)
		}
	}
	if f.Recorded() != 6 {
		t.Errorf("recorded %d, want 6", f.Recorded())
	}

	// Slow threshold.
	f.SetSlowThreshold(time.Millisecond)
	if !f.IsSlow(2 * time.Millisecond) {
		t.Error("2ms not slow at 1ms threshold")
	}
	if f.IsSlow(time.Microsecond) {
		t.Error("1µs slow at 1ms threshold")
	}

	// Sampling disabled: nothing sampled, slow still detectable.
	off := NewFlightRecorder(2, 0)
	if off.SampledID(off.NextID()) {
		t.Error("sampled with sampling disabled")
	}
}

// TestFlightRecorderConcurrent hammers Record and Traces from many
// goroutines; run with -race this is the lock-freedom proof for the ring.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8, 1)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				f.Record(mkTrace(f.NextID(), time.Microsecond))
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range f.Traces() {
				if tr.ID == 0 {
					t.Error("zero trace ID read from ring")
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if f.Recorded() != 8000 {
		t.Errorf("recorded %d, want 8000", f.Recorded())
	}
}
