package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// WAL is a write-ahead log of update batches. A service that persists a
// bundle periodically and appends every applied batch to a WAL can recover
// its exact state after a crash: load the bundle, then replay the WAL
// suffix. Records are framed and length-prefixed; a torn final record
// (crash mid-write) is detected and ignored on replay.
//
// Record layout (little-endian):
//
//	magic byte 'R' | payload length u32 | payload
//	payload: nEdges u32, nEdges × (u u32, v u32, insert u8),
//	         nVerts u32, nVerts × (node u32, dim u32, dim × f32)
type WAL struct {
	f *os.File
	w *bufio.Writer
	// rec is the record being encoded, header included, reused by every
	// append: the WAL has one writer, so one buffer serves it.
	rec []byte
	// lat, when set, observes per-Append latency in nanoseconds — encode,
	// buffered write, flush and fsync together, i.e. the durability cost a
	// served update pays before it reaches the engine.
	lat *obs.Histogram
}

// SetLatencyHistogram installs a histogram observing Append latency (nil
// disables). The HTTP server injects its registered WAL histogram here so
// /metrics exposes journal fsync behaviour.
func (w *WAL) SetLatencyHistogram(h *obs.Histogram) { w.lat = h }

// OpenWAL opens (or creates) a log for appending. A torn trailing record
// left by a crash mid-write is cut off first: ReadWAL stops at it, so a
// record appended behind it would never be replayed.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := truncateTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: opening WAL %s: %w", path, err)
	}
	return &WAL{f: f, w: bufio.NewWriter(f)}, nil
}

// truncateTornTail walks the record headers and cuts the file back to the
// end of its last complete record.
func truncateTornTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	var off int64
	var hdr [5]byte
	for off+int64(len(hdr)) <= fi.Size() {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return err
		}
		if hdr[0] != 'R' {
			return fmt.Errorf("bad WAL record marker %q at offset %d", hdr[0], off)
		}
		end := off + int64(len(hdr)) + int64(binary.LittleEndian.Uint32(hdr[1:]))
		if end > fi.Size() {
			break
		}
		off = end
	}
	if off == fi.Size() {
		return nil
	}
	return f.Truncate(off)
}

// Append writes one applied batch. The record only becomes durable after
// the implicit flush+sync; Append performs both before returning, so a
// successful Append means the batch survives a crash. Callers journaling
// several batches at once should prefer AppendBuffered + one Commit
// (group commit): the fsync is by far the dominant cost and one covers
// every record buffered behind it.
func (w *WAL) Append(delta graph.Delta, vups []inkstream.VertexUpdate) error {
	var t0 time.Time
	if w.lat != nil {
		t0 = time.Now()
		defer func() { w.lat.ObserveDuration(time.Since(t0)) }()
	}
	if err := w.AppendBuffered(delta, vups); err != nil {
		return err
	}
	return w.commit()
}

// AppendBuffered encodes and writes one record into the log's buffer
// without making it durable. The record reaches the OS (and survives a
// process crash, though not a machine crash) only after a later Commit;
// a torn tail from a crash between the two is detected and dropped on
// replay, exactly like a crash mid-Append.
func (w *WAL) AppendBuffered(delta graph.Delta, vups []inkstream.VertexUpdate) error {
	w.rec = appendRecord(w.rec[:0], delta, vups)
	_, err := w.w.Write(w.rec)
	return err
}

// Commit flushes and fsyncs everything buffered by AppendBuffered since
// the previous commit — the group-commit barrier. After a nil return,
// every buffered record survives a crash.
func (w *WAL) Commit() error {
	var t0 time.Time
	if w.lat != nil {
		t0 = time.Now()
		defer func() { w.lat.ObserveDuration(time.Since(t0)) }()
	}
	return w.commit()
}

func (w *WAL) commit() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// appendRecord appends one framed record — marker, payload length, payload
// — to buf.
func appendRecord(buf []byte, delta graph.Delta, vups []inkstream.VertexUpdate) []byte {
	size := 4 + len(delta)*9 + 4
	for _, v := range vups {
		size += 8 + 4*len(v.X)
	}
	buf = slices.Grow(buf, 5+size)
	buf = append(buf, 'R')
	buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(delta)))
	for _, c := range delta {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.U))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.V))
		if c.Insert {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vups)))
	for _, v := range vups {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Node))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.X)))
		for _, x := range v.X {
			buf = binary.LittleEndian.AppendUint32(buf, float32bits(x))
		}
	}
	return buf
}

// Batch is one decoded WAL record.
type Batch struct {
	Delta graph.Delta
	Vups  []inkstream.VertexUpdate
}

// ReadWAL decodes every complete record from path. A torn trailing record
// is tolerated (reported via the second return); any other corruption is
// an error.
func ReadWAL(path string) ([]Batch, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var out []Batch
	for {
		hdr := make([]byte, 5)
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				return out, false, nil
			}
			return out, true, nil // torn header
		}
		if hdr[0] != 'R' {
			return nil, false, fmt.Errorf("persist: bad WAL record marker %q", hdr[0])
		}
		n := binary.LittleEndian.Uint32(hdr[1:])
		if n > maxElems {
			return nil, false, fmt.Errorf("persist: implausible WAL record size %d", n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return out, true, nil // torn payload
		}
		b, err := decodeBatch(payload)
		if err != nil {
			return nil, false, err
		}
		out = append(out, b)
	}
}

func decodeBatch(p []byte) (Batch, error) {
	var b Batch
	off := 0
	u32 := func() (uint32, error) {
		if off+4 > len(p) {
			return 0, fmt.Errorf("persist: truncated WAL payload")
		}
		v := binary.LittleEndian.Uint32(p[off:])
		off += 4
		return v, nil
	}
	nEdges, err := u32()
	if err != nil {
		return b, err
	}
	for i := uint32(0); i < nEdges; i++ {
		u, err := u32()
		if err != nil {
			return b, err
		}
		v, err := u32()
		if err != nil {
			return b, err
		}
		if off >= len(p) {
			return b, fmt.Errorf("persist: truncated WAL payload")
		}
		ins := p[off] == 1
		off++
		b.Delta = append(b.Delta, graph.EdgeChange{U: graph.NodeID(u), V: graph.NodeID(v), Insert: ins})
	}
	nVerts, err := u32()
	if err != nil {
		return b, err
	}
	for i := uint32(0); i < nVerts; i++ {
		node, err := u32()
		if err != nil {
			return b, err
		}
		dim, err := u32()
		if err != nil {
			return b, err
		}
		if dim > 1<<20 {
			return b, fmt.Errorf("persist: implausible WAL feature dim %d", dim)
		}
		x := make(tensor.Vector, dim)
		for j := range x {
			bits, err := u32()
			if err != nil {
				return b, err
			}
			x[j] = float32frombits(bits)
		}
		b.Vups = append(b.Vups, inkstream.VertexUpdate{Node: graph.NodeID(node), X: x})
	}
	return b, nil
}

// Applier is what a log is replayed onto: the same Apply the live write path
// offers (a server's pipeline, or an engine).
type Applier interface {
	Apply(delta graph.Delta, vups []inkstream.VertexUpdate) error
}

// Rejected is one WAL record the applier refused at replay.
type Rejected struct {
	Index int
	Err   error
}

// Replay applies every batch in order and returns the records the applier
// refused. The log holds requests as they were submitted — the journal runs
// ahead of validation, so a request that was answered "invalid" is in it —
// and Apply is deterministic and all-or-nothing: replayed onto the state the
// log was written against, such a record is refused again for the same
// reason and changes nothing, exactly as it did live. Replay therefore goes
// on past a refusal; which refusals are fatal (an applier that refuses
// writes altogether, rather than one record) is the caller's call.
func Replay(a Applier, batches []Batch) []Rejected {
	var out []Rejected
	for i, b := range batches {
		if err := a.Apply(b.Delta, b.Vups); err != nil {
			out = append(out, Rejected{Index: i, Err: err})
		}
	}
	return out
}

func float32bits(f float32) uint32     { return math.Float32bits(f) }
func float32frombits(b uint32) float32 { return math.Float32frombits(b) }
