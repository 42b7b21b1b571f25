package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// TieredStore is a paged, tiered backing store for published snapshot
// rows: embeddings are split into fixed-size row pages, hot pages stay
// resident under a configurable byte cap with clock (second-chance)
// eviction, cold pages spill to a slotted disk file and fault back on
// demand, and the on-page representation is optionally quantized (fp16 or
// int8) while the engine's write path keeps full fp32.
//
// Concurrency model: the engine is the single writer (WriteRow/Seal under
// the Apply discipline); any number of readers call Row through sealed
// views. The read hit path is lock-free — two atomic pointer loads plus a
// decode. Faults and writebacks serialize per page on page.mu; no lock is
// ever held across pages, and file I/O uses positional reads/writes so
// concurrent faults on different pages proceed in parallel.
//
// Durability model: the spill file is an ephemeral cache, not a source of
// truth. Recovery after a crash is the existing bundle + WAL replay, after
// which the rebuilt engine re-seeds a fresh store via PublishSnapshot; the
// file is truncated on open so no stale generation can ever be served. A
// torn slot (crash or concurrent overwrite) fails its checksum and the
// fault falls back to the current in-memory generation — readers can
// observe newer data through a superseded view (monotone staleness) but
// never a torn row.
type TieredStore struct {
	dim      int
	pageRows int
	rowBytes int
	slotSize int64
	memCap   int64
	quant    tensor.Quant

	f *os.File

	// pages is append-only and swapped atomically so readers can index it
	// lock-free while the writer grows it.
	pages atomic.Pointer[[]*page]
	// nrows is the writer's row high-water mark; sealedRows is the value
	// published by the latest Seal (what views report).
	nrows      int
	sealedRows atomic.Int64
	// touched lists pages with an open (staged) payload awaiting Seal.
	touched []*page

	hotBytes atomic.Int64
	hand     atomic.Uint64 // clock hand: advanced by the worker, and by tests forcing a sweep beside it

	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	writebacks  atomic.Uint64
	writeErrors atomic.Uint64

	faultLat *obs.Histogram

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// page is one fixed-size run of rows. cur is the current sealed frame
// (nil until the page is first sealed); open is the writer's staging
// payload for the next generation.
type page struct {
	id  int
	mu  sync.Mutex // serializes fault, writeback and eviction for this page
	cur atomic.Pointer[frame]
	ref atomic.Bool // clock second-chance bit, set on every read hit
	// open is writer-only: the staged payload for the next Seal, based on
	// the current generation's encoded bytes so untouched rows carry over
	// verbatim (no quantization re-encoding, error never compounds).
	open []byte
}

// frame is one immutable sealed generation of a page. The payload pointer
// is dropped on eviction and restored on fault; the encoded bytes behind a
// loaded pointer are never mutated, so readers that grabbed the pointer
// before an eviction keep a consistent view.
type frame struct {
	epoch   uint64
	payload atomic.Pointer[[]byte]
	// clean is set once the slot on disk holds exactly this generation;
	// only clean frames are evictable (their bytes are recoverable).
	clean atomic.Bool
}

// TieredConfig configures NewTieredStore.
type TieredConfig struct {
	// Dir is the directory holding the spill file (created if missing).
	Dir string
	// Dim is the embedding row dimension (required).
	Dim int
	// PageBytes is the target encoded payload size per page; the row count
	// per page is derived from it (at least one row). Default 64 KiB.
	PageBytes int
	// MemCap is the soft cap on resident payload bytes; 0 disables
	// eviction (everything stays hot).
	MemCap int64
	// Quant selects the on-page row encoding (default fp32, bit-exact).
	Quant tensor.Quant
	// FaultLatency, when non-nil, observes page-fault latency (ns).
	FaultLatency *obs.Histogram
}

const (
	tieredFile      = "pages.ink"
	slotMagic       = 0x49504731 // "IPG1"
	slotHeaderBytes = 24         // magic u32, pageID u32, epoch u64, len u32, crc u32
	defaultPageSize = 64 << 10
)

var errSlotStale = errors.New("persist: slot holds a different generation")

// NewTieredStore creates the store and starts its background
// writeback/eviction worker. The spill file is truncated: its previous
// contents are a dead cache from an earlier process (recovery is bundle +
// WAL replay, never this file).
func NewTieredStore(cfg TieredConfig) (*TieredStore, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("persist: tiered store needs a positive row dimension")
	}
	if cfg.PageBytes <= 0 {
		cfg.PageBytes = defaultPageSize
	}
	rowBytes := cfg.Quant.RowBytes(cfg.Dim)
	pageRows := cfg.PageBytes / rowBytes
	if pageRows < 1 {
		pageRows = 1
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(cfg.Dir, tieredFile), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	st := &TieredStore{
		dim:      cfg.Dim,
		pageRows: pageRows,
		rowBytes: rowBytes,
		slotSize: int64(slotHeaderBytes + pageRows*rowBytes),
		memCap:   cfg.MemCap,
		quant:    cfg.Quant,
		f:        f,
		faultLat: cfg.FaultLatency,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	empty := []*page{}
	st.pages.Store(&empty)
	st.wg.Add(1)
	go st.worker()
	return st, nil
}

// Close stops the background worker and closes the spill file. Views
// sealed earlier keep serving resident pages but faults will fail.
func (st *TieredStore) Close() error {
	close(st.done)
	st.wg.Wait()
	return st.f.Close()
}

// PageRows returns the number of rows per page (derived from PageBytes).
func (st *TieredStore) PageRows() int { return st.pageRows }

// Quant returns the configured on-page encoding.
func (st *TieredStore) Quant() tensor.Quant { return st.quant }

// Stats returns a point-in-time snapshot of the cache counters.
func (st *TieredStore) Stats() obs.PageCacheStats {
	pages := *st.pages.Load()
	hot := 0
	for _, p := range pages {
		if f := p.cur.Load(); f != nil && f.payload.Load() != nil {
			hot++
		}
	}
	return obs.PageCacheStats{
		Hits:        st.hits.Load(),
		Misses:      st.misses.Load(),
		Evictions:   st.evictions.Load(),
		Writebacks:  st.writebacks.Load(),
		WriteErrors: st.writeErrors.Load(),
		HotBytes:    st.hotBytes.Load(),
		CapBytes:    st.memCap,
		HotPages:    hot,
		TotalPages:  len(pages),
	}
}

// WriteRow stages node id's embedding for the next sealed generation
// (inkstream.RowStore). Writer goroutine only.
func (st *TieredStore) WriteRow(id int, row tensor.Vector) {
	if len(row) != st.dim {
		panic(fmt.Sprintf("persist: WriteRow dim %d, store dim %d", len(row), st.dim))
	}
	p := st.ensurePage(id / st.pageRows)
	if p.open == nil {
		p.open = st.basePayload(p)
		st.touched = append(st.touched, p)
	}
	st.quant.EncodeRow(p.open[(id%st.pageRows)*st.rowBytes:], row)
	if id >= st.nrows {
		st.nrows = id + 1
	}
}

// Seal publishes every staged page as the current generation stamped with
// epoch and returns a view of the full store (inkstream.RowStore). The
// superseded generation's payloads are dropped immediately — the engine
// releases the previous view in the same publication step, and a straggler
// reader that faults through it falls back to this (newer) generation.
func (st *TieredStore) Seal(epoch uint64) inkstream.RowView {
	for _, p := range st.touched {
		nf := &frame{epoch: epoch}
		payload := p.open
		nf.payload.Store(&payload)
		p.open = nil
		old := p.cur.Swap(nf)
		st.hotBytes.Add(int64(len(payload)))
		p.ref.Store(true)
		if old != nil {
			if b := old.payload.Swap(nil); b != nil {
				st.hotBytes.Add(-int64(len(*b)))
			}
		}
	}
	st.touched = st.touched[:0]
	st.sealedRows.Store(int64(st.nrows))
	st.maybeKick()
	return &tieredView{st: st, nrows: st.nrows}
}

// ensurePage returns page pid, growing the page table if needed
// (writer-only; readers see the table through the atomic pointer).
func (st *TieredStore) ensurePage(pid int) *page {
	pages := *st.pages.Load()
	if pid < len(pages) {
		return pages[pid]
	}
	grown := make([]*page, pid+1)
	copy(grown, pages)
	for i := len(pages); i <= pid; i++ {
		grown[i] = &page{id: i}
	}
	st.pages.Store(&grown)
	return grown[pid]
}

// basePayload returns the staging buffer for p's next generation: a copy
// of the current generation's encoded bytes (faulted back in if evicted)
// or zeros for a brand-new page. A writer-side fault failure is fail-stop,
// matching the WAL discipline: continuing would corrupt untouched rows.
func (st *TieredStore) basePayload(p *page) []byte {
	buf := make([]byte, st.pageRows*st.rowBytes)
	f := p.cur.Load()
	if f == nil {
		return buf
	}
	b := f.payload.Load()
	if b == nil {
		st.misses.Add(1)
		fb, err := st.fault(p)
		if err != nil {
			panic(fmt.Sprintf("persist: cannot stage page %d: %v", p.id, err))
		}
		b = fb
	}
	copy(buf, *b)
	return buf
}

// readRow decodes node id's embedding from the current generation of its
// page, faulting the payload back in when evicted. Lock-free on hit.
func (st *TieredStore) readRow(id int) (tensor.Vector, error) {
	if id < 0 || int64(id) >= st.sealedRows.Load() {
		return nil, fmt.Errorf("persist: row %d out of range", id)
	}
	pages := *st.pages.Load()
	pid := id / st.pageRows
	if pid >= len(pages) {
		return nil, fmt.Errorf("persist: page %d out of range", pid)
	}
	p := pages[pid]
	f := p.cur.Load()
	if f == nil {
		return nil, fmt.Errorf("persist: page %d never sealed", pid)
	}
	b := f.payload.Load()
	if b == nil {
		st.misses.Add(1)
		fb, err := st.fault(p)
		if err != nil {
			return nil, err
		}
		b = fb
	} else {
		st.hits.Add(1)
	}
	p.ref.Store(true)
	row := make(tensor.Vector, st.dim)
	st.quant.DecodeRow(row, (*b)[(id%st.pageRows)*st.rowBytes:])
	return row, nil
}

// fault restores p's current generation payload from the spill file. Only
// clean frames are ever evicted, so the slot normally holds exactly the
// evicted generation; if a newer generation replaced the frame while we
// waited (its payload is resident by construction), the read falls back to
// it — monotone, never torn.
func (st *TieredStore) fault(p *page) (*[]byte, error) {
	t0 := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for tries := 0; tries < 4; tries++ {
		f := p.cur.Load()
		if f == nil {
			return nil, fmt.Errorf("persist: page %d never sealed", p.id)
		}
		if b := f.payload.Load(); b != nil {
			return b, nil // restored by a concurrent fault or superseded by a resident seal
		}
		payload, err := st.readSlot(p.id, f.epoch)
		if err == nil {
			// A Seal may supersede f and drop its payload at any moment, so
			// return the locally read bytes (correct for f's generation)
			// rather than re-loading the pointer.
			if f.payload.CompareAndSwap(nil, &payload) {
				st.hotBytes.Add(int64(len(payload)))
				st.maybeKick()
			}
			if st.faultLat != nil {
				st.faultLat.ObserveDuration(time.Since(t0))
			}
			return &payload, nil
		}
		if !errors.Is(err, errSlotStale) {
			return nil, err
		}
		// The slot belongs to another generation (concurrent writeback of a
		// newer seal); retry against whatever is current now.
	}
	return nil, fmt.Errorf("persist: page %d unavailable after retries", p.id)
}

// readSlot reads and verifies page pid's slot, requiring generation epoch.
func (st *TieredStore) readSlot(pid int, epoch uint64) ([]byte, error) {
	buf := make([]byte, st.slotSize)
	if _, err := st.f.ReadAt(buf, int64(pid)*st.slotSize); err != nil {
		return nil, fmt.Errorf("persist: page %d slot: %w", pid, err)
	}
	if binary.LittleEndian.Uint32(buf) != slotMagic ||
		binary.LittleEndian.Uint32(buf[4:]) != uint32(pid) {
		return nil, fmt.Errorf("%w (bad header)", errSlotStale)
	}
	if binary.LittleEndian.Uint64(buf[8:]) != epoch {
		return nil, errSlotStale
	}
	n := binary.LittleEndian.Uint32(buf[16:])
	if int(n) != st.pageRows*st.rowBytes {
		return nil, fmt.Errorf("%w (bad length)", errSlotStale)
	}
	payload := buf[slotHeaderBytes:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[20:]) {
		return nil, fmt.Errorf("%w (checksum)", errSlotStale)
	}
	return payload, nil
}

// writeSlot persists one generation into page pid's slot. No fsync: the
// file is a cache, and a torn write is caught by the checksum.
func (st *TieredStore) writeSlot(pid int, epoch uint64, payload []byte) error {
	buf := make([]byte, st.slotSize)
	binary.LittleEndian.PutUint32(buf, slotMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(pid))
	binary.LittleEndian.PutUint64(buf[8:], epoch)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(payload))
	copy(buf[slotHeaderBytes:], payload)
	_, err := st.f.WriteAt(buf, int64(pid)*st.slotSize)
	return err
}

func (st *TieredStore) maybeKick() {
	select {
	case st.kick <- struct{}{}:
	default:
	}
}

// worker runs writeback and eviction off the hot path: dirty generations
// are persisted so they become evictable, then the clock sweep drops clean
// payloads until the resident set fits the cap.
func (st *TieredStore) worker() {
	defer st.wg.Done()
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-st.done:
			return
		case <-st.kick:
		case <-ticker.C:
		}
		st.writebackDirty()
		st.evictToCap()
	}
}

// writebackDirty persists every dirty current generation.
func (st *TieredStore) writebackDirty() {
	for _, p := range *st.pages.Load() {
		f := p.cur.Load()
		if f == nil || f.clean.Load() {
			continue
		}
		p.mu.Lock()
		f = p.cur.Load() // write the latest generation, not a superseded one
		if f != nil && !f.clean.Load() {
			if b := f.payload.Load(); b != nil {
				if err := st.writeSlot(p.id, f.epoch, *b); err != nil {
					st.writeErrors.Add(1)
				} else {
					f.clean.Store(true)
					st.writebacks.Add(1)
				}
			}
		}
		p.mu.Unlock()
	}
}

// evictToCap advances the clock hand, giving referenced pages a second
// chance and dropping clean resident payloads until hotBytes <= cap. At
// most two full sweeps per call: if everything left is dirty or recently
// referenced the cap is allowed to overshoot until the next writeback.
func (st *TieredStore) evictToCap() {
	if st.memCap <= 0 {
		return
	}
	pages := *st.pages.Load()
	n := len(pages)
	if n == 0 {
		return
	}
	for steps := 0; steps < 2*n && st.hotBytes.Load() > st.memCap; steps++ {
		p := pages[int((st.hand.Add(1)-1)%uint64(n))]
		f := p.cur.Load()
		if f == nil || !f.clean.Load() || f.payload.Load() == nil {
			continue
		}
		if p.ref.Swap(false) {
			continue // second chance
		}
		p.mu.Lock()
		if cur := p.cur.Load(); cur == f && f.clean.Load() {
			if b := f.payload.Swap(nil); b != nil {
				st.hotBytes.Add(-int64(len(*b)))
				st.evictions.Add(1)
			}
		}
		p.mu.Unlock()
	}
}

// tieredView is one sealed generation boundary. It intentionally holds no
// frame references: the current generation is served through the page
// table, and once superseded (Release) reads simply keep resolving through
// it — the documented monotone-staleness semantics for tiered mode.
type tieredView struct {
	st    *TieredStore
	nrows int
}

func (v *tieredView) Row(id int) (tensor.Vector, error) {
	if id < 0 || id >= v.nrows {
		return nil, fmt.Errorf("persist: row %d out of view range %d", id, v.nrows)
	}
	return v.st.readRow(id)
}

func (v *tieredView) NumRows() int { return v.nrows }

// Release is a no-op: superseding already dropped the old generation's
// payloads in Seal, and straggler reads fall back to current data.
func (v *tieredView) Release() {}

var _ inkstream.RowStore = (*TieredStore)(nil)
