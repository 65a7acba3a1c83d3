// Package smallwrite is the write half of the small-I/O tier: it
// absorbs sub-block writes into a parity-logged staging segment inside
// the erasure-coded store itself, so a 128-byte write costs its share
// of one group-committed append to a byte-granular log instead of a
// full swap+deltas round on its home block.
//
// Mechanics:
//
//   - Writers enqueue records and elect a commit leader (first waiter
//     wins): the leader encodes every pending record into one
//     checksummed batch, appends it to the staging segment, and wakes
//     the group. A batch that fits in the free bytes of the segment's
//     tail block is packed there by rewriting that one block from a
//     client-held copy (one atomic register write: a crash leaves the
//     old tail or the new one); otherwise it starts at the next block
//     boundary. No background goroutines; latency is one staging
//     append shared by the batch.
//   - Committed records live in an in-memory overlay keyed by home
//     block address; reads patch them over base-store content in
//     sequence order, so acknowledged bytes are visible immediately.
//   - When the segment fills (or on an explicit Flush barrier) the
//     tier merges the overlay into home blocks — one read-modify-write
//     per dirty block under a striped per-block lock, a bounded window
//     of them in flight — then resets the segment. Direct full-block
//     writes to a dirty address supersede
//     the staged records they overwrite and append a durable supersede
//     tombstone to the segment before they are acknowledged, so a
//     post-crash Salvage cannot replay the overwritten records over
//     the newer full-block content.
//   - The staging segment is erasure-coded like everything else, so an
//     acknowledged small write already has EC durability. After a
//     client crash, Salvage replays whole batches from the segment
//     (honoring supersede tombstones) before the tier serves traffic.
//     Batches carry their epoch's generation and Salvage starts the
//     next one past the head's, so leftovers of earlier epochs and
//     incarnations never match. A damaged batch with no intact batch
//     after it is a torn, unacknowledged append: the log ends there.
//
// The tier sits below the read cache and above the bulk engine; the
// facade's tier layer (internal/tier) wires the three together.
package smallwrite

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"

	"ecstore/internal/bulk"
	"ecstore/internal/obs"
)

// ErrClosed reports a write against a closed tier.
var ErrClosed = errors.New("smallwrite: tier closed")

// ErrCorruptSegment reports a salvage scan that found a damaged batch
// with intact batches after it (acknowledged bytes are lost), or a batch
// whose checksum holds but whose records are malformed.
var ErrCorruptSegment = errors.New("smallwrite: corrupt staging segment")

const (
	batchMagic  = 0x53575433 // "SWT3"
	headerSize  = 24         // magic u32, gen u64, count u32, payload u32, crc u32
	recHdrSize  = 24         // addr u64, seq u64, off u32, len u32
	nAddrLocks  = 64
	defMaxBatch = 256

	// supersedeOff in a record's off field marks a supersede tombstone:
	// a direct full-block write durably overwrote every record for addr
	// with sequence below the value in the seq field. Salvage must not
	// replay those records over the direct write's content.
	supersedeOff = ^uint32(0)
)

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Tier.
type Options struct {
	// Base is the erasure-coded store the tier stages into and flushes
	// onto. Required.
	Base bulk.Target
	// StagingBase is the block address of the staging segment's first
	// block. The segment must not overlap addresses served to callers.
	StagingBase uint64
	// StagingBlocks is the segment length in blocks. Required >= 4.
	StagingBlocks uint64
	// MaxBatch bounds the records one group commit may carry. Default
	// 256.
	MaxBatch int
	// MaxInFlight is the staging-append engine's window in stripes.
	// Zero takes the bulk engine default.
	MaxInFlight int
	// OnApply, when non-nil, is called with each home-block address the
	// flusher has merged staged bytes into (while the block's tier lock
	// is held). The tier layer uses it to invalidate the read cache.
	OnApply func(addr uint64)
	// Obs receives smallwrite.* metrics; nil disables them.
	Obs *obs.Registry
}

// Stats counts tier events, readable concurrently.
type Stats struct {
	Writes           atomic.Uint64 // accepted sub-block writes
	Commits          atomic.Uint64 // group commits (batches appended)
	CommitRecords    atomic.Uint64 // records across all commits
	CommitBlocks     atomic.Uint64 // staging block writes issued by commits
	Flushes          atomic.Uint64 // full overlay merges (explicit or segment-full)
	SegmentFullFlush atomic.Uint64 // flushes forced by a full segment
	FlushedBlocks    atomic.Uint64 // home blocks rewritten by flushes
	PatchedReads     atomic.Uint64 // reads that had staged bytes applied
	Supersedes       atomic.Uint64 // staged records dropped under direct writes
	SupersedeMarks   atomic.Uint64 // durable supersede tombstones appended
	Salvaged         atomic.Uint64 // records replayed from the segment
	TornTails        atomic.Uint64 // salvages that ended at a torn, unacknowledged batch
}

type record struct {
	addr uint64
	off  int
	data []byte
	seq  uint64
	// marker records are durable supersede tombstones: bound is the
	// sequence below which addr's earlier segment records are void.
	// They ride group commits but never enter the overlay.
	marker bool
	bound  uint64
	done   bool
	err    error
}

// Tier is a group-committed small-write stage. All methods are safe
// for concurrent use.
type Tier struct {
	base    bulk.Target
	eng     *bulk.Engine
	bs      int
	sBase   uint64
	sBlocks uint64
	maxRecs int
	onApply func(uint64)

	// Striped per-home-block locks serialize flush RMW against direct
	// full-block writes. Lock order everywhere: addr lock before mu.
	locks [nAddrLocks]sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint64
	pending []*record
	overlay map[uint64][]*record
	// epochFlushed marks addresses whose records a flush already merged
	// into the base store while the segment has not been reset yet: a
	// direct write to such an address still needs a durable supersede
	// marker (the merged records are still in the segment and a
	// post-crash Salvage would replay them over the direct write).
	epochFlushed map[uint64]struct{}
	// busy marks a leader commit or a flush in progress; cursor, tail
	// and gen are only touched while it is held.
	busy   bool
	closed bool
	cursor uint64 // segment bytes appended since last reset
	// tail is the client-held image of the block cursor lies in: the
	// acknowledged batches packed there so far, then zeros.
	tail        []byte
	gen         uint64
	liveBytes   atomic.Int64
	liveRecords atomic.Int64

	stats Stats
}

// New validates the options and returns a Tier.
func New(o Options) (*Tier, error) {
	if o.Base == nil {
		return nil, errors.New("smallwrite: Options.Base is required")
	}
	if o.StagingBlocks < 4 {
		return nil, fmt.Errorf("smallwrite: StagingBlocks must be >= 4, got %d", o.StagingBlocks)
	}
	if cap := o.Base.Capacity(); cap != 0 && o.StagingBase+o.StagingBlocks > cap {
		return nil, fmt.Errorf("smallwrite: staging extent [%d,%d) beyond capacity %d",
			o.StagingBase, o.StagingBase+o.StagingBlocks, cap)
	}
	maxRecs := o.MaxBatch
	if maxRecs <= 0 {
		maxRecs = defMaxBatch
	}
	t := &Tier{
		base:         o.Base,
		eng:          bulk.New(o.Base, bulk.Options{MaxInFlight: o.MaxInFlight}),
		bs:           o.Base.BlockSize(),
		sBase:        o.StagingBase,
		sBlocks:      o.StagingBlocks,
		maxRecs:      maxRecs,
		onApply:      o.OnApply,
		overlay:      make(map[uint64][]*record),
		epochFlushed: make(map[uint64]struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	if reg := o.Obs; reg != nil {
		reg.Func("smallwrite.writes", func() int64 { return int64(t.stats.Writes.Load()) })
		reg.Func("smallwrite.commits", func() int64 { return int64(t.stats.Commits.Load()) })
		reg.Func("smallwrite.commit_records", func() int64 { return int64(t.stats.CommitRecords.Load()) })
		reg.Func("smallwrite.commit_blocks", func() int64 { return int64(t.stats.CommitBlocks.Load()) })
		reg.Func("smallwrite.flushes", func() int64 { return int64(t.stats.Flushes.Load()) })
		reg.Func("smallwrite.segment_full_flushes", func() int64 { return int64(t.stats.SegmentFullFlush.Load()) })
		reg.Func("smallwrite.flushed_blocks", func() int64 { return int64(t.stats.FlushedBlocks.Load()) })
		reg.Func("smallwrite.patched_reads", func() int64 { return int64(t.stats.PatchedReads.Load()) })
		reg.Func("smallwrite.supersedes", func() int64 { return int64(t.stats.Supersedes.Load()) })
		reg.Func("smallwrite.supersede_marks", func() int64 { return int64(t.stats.SupersedeMarks.Load()) })
		reg.Func("smallwrite.salvaged", func() int64 { return int64(t.stats.Salvaged.Load()) })
		reg.Func("smallwrite.torn_tails", func() int64 { return int64(t.stats.TornTails.Load()) })
		reg.Func("smallwrite.staged_bytes", t.liveBytes.Load)
		reg.Func("smallwrite.staged_records", t.liveRecords.Load)
	}
	return t, nil
}

// Stats exposes the tier's event counters.
func (t *Tier) Stats() *Stats { return &t.stats }

// StagedRecords returns the number of committed-but-unflushed records.
func (t *Tier) StagedRecords() int { return int(t.liveRecords.Load()) }

// StagedBytes returns the payload bytes of committed-but-unflushed
// records.
func (t *Tier) StagedBytes() int64 { return t.liveBytes.Load() }

func (t *Tier) lockIdx(addr uint64) int {
	return int((addr * 0x9e3779b97f4a7c15) >> 58 & (nAddrLocks - 1))
}

// LockAddrs takes the tier locks covering the given home-block
// addresses (deduplicated, in index order — safe against concurrent
// multi-address holders) and returns a sequence snapshot: staged
// records with seq below it are the ones a direct write performed
// under this lock will supersede. Callers must invoke unlock exactly
// once.
func (t *Tier) LockAddrs(addrs ...uint64) (seq uint64, unlock func()) {
	idxSet := make(map[int]struct{}, len(addrs))
	for _, a := range addrs {
		idxSet[t.lockIdx(a)] = struct{}{}
	}
	idxs := make([]int, 0, len(idxSet))
	for i := range idxSet {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		t.locks[i].Lock()
	}
	t.mu.Lock()
	t.seq++
	seq = t.seq
	t.mu.Unlock()
	return seq, func() {
		for i := len(idxs) - 1; i >= 0; i-- {
			t.locks[idxs[i]].Unlock()
		}
	}
}

// Supersede drops staged records for addr with sequence below
// beforeSeq (a LockAddrs snapshot): a direct full-block write that
// succeeded under the tier lock has durably overwritten them. Must be
// called while holding the covering tier lock, and only after the
// direct write SUCCEEDED — a failed write leaves the staged records as
// the freshest acknowledged content.
//
// The in-memory drop alone is not crash-safe: the dropped records are
// still in the durable staging segment, and a post-crash Salvage would
// replay their stale bytes over the direct write. Supersede reports
// whether such records exist (dropped now, or merged by a flush whose
// segment reset has not happened yet); when it returns true the caller
// must append a durable supersede marker with SupersedeDurable — after
// releasing the tier locks — before acknowledging the direct write.
func (t *Tier) Supersede(addr uint64, beforeSeq uint64) (needMark bool) {
	t.mu.Lock()
	recs := t.overlay[addr]
	kept := recs[:0]
	dropped := 0
	for _, r := range recs {
		if r.seq < beforeSeq {
			t.liveBytes.Add(-int64(len(r.data)))
			t.liveRecords.Add(-1)
			dropped++
		} else {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		delete(t.overlay, addr)
	} else {
		t.overlay[addr] = kept
	}
	_, flushed := t.epochFlushed[addr]
	t.mu.Unlock()
	if dropped > 0 {
		t.stats.Supersedes.Add(uint64(dropped))
	}
	return dropped > 0 || flushed
}

// SupersedeMark identifies staged records a completed direct write
// overwrote: those for Addr with sequence below BeforeSeq (the
// LockAddrs snapshot the write ran under).
type SupersedeMark struct {
	Addr      uint64
	BeforeSeq uint64
}

// SupersedeDurable appends supersede tombstones to the staging segment
// (riding a group commit) so a post-crash Salvage does not replay the
// superseded records over the direct writes' content. Call it after
// releasing the tier locks taken for the direct write — a segment-full
// flush inside the append acquires them — and before acknowledging the
// write to the caller.
func (t *Tier) SupersedeDurable(ctx context.Context, marks []SupersedeMark) error {
	if len(marks) == 0 {
		return nil
	}
	recs := make([]*record, len(marks))
	for i, m := range marks {
		recs[i] = &record{addr: m.Addr, marker: true, bound: m.BeforeSeq}
	}
	if err := t.stage(ctx, recs); err != nil {
		return err
	}
	t.stats.SupersedeMarks.Add(uint64(len(marks)))
	return nil
}

// HasStaged reports whether addr has committed-but-unflushed bytes.
func (t *Tier) HasStaged(addr uint64) bool {
	t.mu.Lock()
	_, ok := t.overlay[addr]
	t.mu.Unlock()
	return ok
}

// Snapshot is a point-in-time copy of one address's staged records.
// Readers take it BEFORE issuing the base-store read and Apply it over
// the result: a concurrent flush may merge the records into the base
// block and drop them from the overlay mid-read, and a read that
// fetched pre-merge content but patched post-drop would silently lose
// acknowledged bytes. Because the flusher writes the merged block
// before dropping records, applying a snapshot over post-merge content
// just rewrites identical bytes.
type Snapshot struct {
	recs []*record
}

// Snapshot captures addr's staged records as they are now.
func (t *Tier) Snapshot(addr uint64) Snapshot {
	t.mu.Lock()
	recs := append([]*record(nil), t.overlay[addr]...)
	t.mu.Unlock()
	return Snapshot{recs: recs}
}

// Apply patches the snapshot's records onto blk in sequence order and
// reports whether anything was applied.
func (s Snapshot) Apply(blk []byte) bool {
	applied := false
	for _, r := range s.recs {
		if r.off+len(r.data) <= len(blk) {
			copy(blk[r.off:], r.data)
			applied = true
		}
	}
	return applied
}

// Patch applies the staged records for addr onto blk (base-store
// content) in sequence order and reports whether anything was applied.
func (t *Tier) Patch(addr uint64, blk []byte) bool {
	t.mu.Lock()
	recs := t.overlay[addr]
	if len(recs) == 0 {
		t.mu.Unlock()
		return false
	}
	for _, r := range recs {
		if r.off+len(r.data) <= len(blk) {
			copy(blk[r.off:], r.data)
		}
	}
	t.mu.Unlock()
	t.stats.PatchedReads.Add(1)
	return true
}

// Write stages a sub-block write of data at byte offset off within
// home block addr. It returns once the record is durably appended to
// the staging segment (riding a group commit shared with concurrent
// writers). The commit IO runs with cancellation stripped from ctx so
// one canceled writer cannot fail a batch other writers are riding;
// retry budgets below still bound it.
func (t *Tier) Write(ctx context.Context, addr uint64, off int, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if off < 0 || off+len(data) > t.bs {
		return fmt.Errorf("smallwrite: record [%d,%d) outside block of %d bytes", off, off+len(data), t.bs)
	}
	if err := t.checkHome(addr); err != nil {
		return err
	}
	rec := &record{addr: addr, off: off, data: append([]byte(nil), data...)}
	if err := t.stage(ctx, []*record{rec}); err != nil {
		return err
	}
	t.stats.Writes.Add(1)
	return nil
}

// checkHome rejects home-block addresses a record may not name.
func (t *Tier) checkHome(addr uint64) error {
	if addr >= t.sBase && addr < t.sBase+t.sBlocks {
		return fmt.Errorf("smallwrite: address %d lies in the staging extent", addr)
	}
	if cap := t.base.Capacity(); cap != 0 && addr >= cap {
		return fmt.Errorf("smallwrite: address %d beyond capacity %d: %w", addr, cap, bulk.ErrOutOfRange)
	}
	return nil
}

// stage enqueues recs (contiguously, in order) and rides the group
// commit until all of them are durably appended. Batches consume the
// pending queue as leading runs, so once the last of recs is done the
// earlier ones are too.
func (t *Tier) stage(ctx context.Context, recs []*record) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	for _, r := range recs {
		t.seq++
		r.seq = t.seq
		t.pending = append(t.pending, r)
	}
	last := recs[len(recs)-1]
	for !last.done {
		if t.busy {
			t.cond.Wait()
			continue
		}
		// Become the commit leader for everything pending.
		t.busy = true
		batch := t.takeBatchLocked()
		t.mu.Unlock()

		err := t.commit(ctx, batch)

		t.mu.Lock()
		for _, r := range batch {
			r.done = true
			r.err = err
			if err == nil && !r.marker {
				t.overlay[r.addr] = append(t.overlay[r.addr], r)
				t.liveBytes.Add(int64(len(r.data)))
				t.liveRecords.Add(1)
			}
		}
		t.busy = false
		t.cond.Broadcast()
	}
	var err error
	for _, r := range recs {
		if r.err != nil {
			err = r.err
			break
		}
	}
	t.mu.Unlock()
	return err
}

// takeBatchLocked removes the leading run of pending records that fits
// one batch. Caller holds mu.
func (t *Tier) takeBatchLocked() []*record {
	budget := int(t.sBlocks) * t.bs
	size := headerSize
	n := 0
	for _, r := range t.pending {
		sz := recHdrSize + len(r.data)
		if n >= t.maxRecs || (n > 0 && size+sz > budget) {
			break
		}
		size += sz
		n++
	}
	batch := t.pending[:n:n]
	t.pending = append([]*record(nil), t.pending[n:]...)
	return batch
}

// putHeader writes a batch header; count and payload both zero make
// the reset tombstone.
func putHeader(dst []byte, gen uint64, count, payload int, sum uint32) {
	binary.BigEndian.PutUint32(dst[0:], batchMagic)
	binary.BigEndian.PutUint64(dst[4:], gen)
	binary.BigEndian.PutUint32(dst[12:], uint32(count))
	binary.BigEndian.PutUint32(dst[16:], uint32(payload))
	binary.BigEndian.PutUint32(dst[20:], sum)
}

// commit encodes and appends one batch. Caller holds busy (not mu).
func (t *Tier) commit(ctx context.Context, batch []*record) error {
	if len(batch) == 0 {
		return nil
	}
	payload := 0
	for _, r := range batch {
		payload += recHdrSize + len(r.data)
	}
	bs := uint64(t.bs)
	size := uint64(headerSize + payload)
	// Pack the batch into the tail block when it fits in the bytes left
	// there; otherwise it starts at the next block boundary.
	pos := t.cursor
	if fill := pos % bs; fill == 0 || fill+size > bs {
		pos = (pos + bs - 1) / bs * bs
	}
	if pos+size > t.sBlocks*bs {
		t.stats.SegmentFullFlush.Add(1)
		if err := t.flushHeld(ctx); err != nil {
			return fmt.Errorf("smallwrite: segment-full flush: %w", err)
		}
		if pos = t.cursor; pos != 0 || size > t.sBlocks*bs {
			return fmt.Errorf("smallwrite: batch of %d bytes exceeds staging segment", size)
		}
	}

	// The image is whole blocks: what the tail block already holds, the
	// batch, then zeros, so no stale byte follows a batch inside its
	// block. A fresh buffer every time: the transport below may still
	// reference an abandoned attempt's bytes.
	fill := pos % bs
	img := make([]byte, (fill+size+bs-1)/bs*bs)
	copy(img, t.tail[:fill])
	buf := img[fill : fill+size]
	p := headerSize
	for _, r := range batch {
		binary.BigEndian.PutUint64(buf[p:], r.addr)
		if r.marker {
			binary.BigEndian.PutUint64(buf[p+8:], r.bound)
			binary.BigEndian.PutUint32(buf[p+16:], supersedeOff)
			binary.BigEndian.PutUint32(buf[p+20:], 0)
		} else {
			binary.BigEndian.PutUint64(buf[p+8:], r.seq)
			binary.BigEndian.PutUint32(buf[p+16:], uint32(r.off))
			binary.BigEndian.PutUint32(buf[p+20:], uint32(len(r.data)))
			copy(buf[p+recHdrSize:], r.data)
		}
		p += recHdrSize + len(r.data)
	}
	putHeader(buf, t.gen, len(batch), payload, crc32.Checksum(buf[headerSize:], crcTab))

	// The batch carries other writers' acknowledged-to-be bytes: strip
	// this leader's cancellation so its death cannot fail the group. A
	// one-block image is one register write — atomic; a crash can tear a
	// longer one, and Salvage ends the log there.
	wctx := context.WithoutCancel(ctx)
	first := t.sBase + (pos-fill)/bs
	var err error
	if len(img) == t.bs {
		err = t.base.WriteBlock(wctx, first, img)
	} else {
		_, err = t.eng.WriteAt(wctx, img, int64(first)*int64(t.bs))
	}
	if err != nil {
		// The image may have landed all the same, so the next batch
		// starts where this one did and overwrites it. Packed into the
		// tail bytes this one skipped, it would come first in the log
		// and Salvage would replay the two in the wrong order.
		t.cursor = pos
		return fmt.Errorf("smallwrite: staging append: %w", err)
	}
	t.tail = img[len(img)-t.bs:]
	t.cursor = pos + size
	t.stats.Commits.Add(1)
	t.stats.CommitRecords.Add(uint64(len(batch)))
	t.stats.CommitBlocks.Add(uint64(len(img) / t.bs))
	return nil
}

// gate waits out any commit in progress and takes the commit gate; the
// returned func releases it.
func (t *Tier) gate() (release func()) {
	t.mu.Lock()
	for t.busy {
		t.cond.Wait()
	}
	t.busy = true
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.busy = false
		t.cond.Broadcast()
		t.mu.Unlock()
	}
}

// Flush merges every staged record into its home block and resets the
// staging segment — the Store.Flush barrier. It holds the commit gate
// for the whole merge.
func (t *Tier) Flush(ctx context.Context) error {
	defer t.gate()()
	return t.flushHeld(ctx)
}

// flushHeld merges the overlay into home blocks. Caller holds busy
// (not mu). Commits are gated out, so the overlay only shrinks
// (Supersede under direct writes) while this runs; each block's merge
// runs under its tier lock, serializing against direct writers.
func (t *Tier) flushHeld(ctx context.Context) error {
	t.mu.Lock()
	addrs := make([]uint64, 0, len(t.overlay))
	for a := range t.overlay {
		addrs = append(addrs, a)
	}
	t.mu.Unlock()
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	// Writers wait out the whole merge, so keep the engine's window of
	// blocks in flight. Each worker holds one address lock at a time.
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	for w := min(t.eng.Window(), len(addrs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(addrs)); i = next.Add(1) - 1 {
				if err := t.flushBlock(ctx, addrs[i]); err != nil {
					errOnce.Do(func() { firstErr = err })
					next.Store(int64(len(addrs))) // stop handing out blocks
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	t.mu.Lock()
	drained := len(t.overlay) == 0
	t.mu.Unlock()
	if drained {
		if t.cursor > 0 {
			if err := t.resetSegment(ctx); err != nil {
				return err
			}
		}
		t.mu.Lock()
		t.epochFlushed = make(map[uint64]struct{})
		t.mu.Unlock()
		t.stats.Flushes.Add(1)
	}
	return nil
}

// resetSegment ends the epoch: a tombstone at the segment head keeps a
// post-crash Salvage from replaying batches already applied, and the
// generation moves past the one every batch still in the segment has.
func (t *Tier) resetSegment(ctx context.Context) error {
	blk := make([]byte, t.bs)
	putHeader(blk, t.gen, 0, 0, 0)
	if err := t.base.WriteBlock(context.WithoutCancel(ctx), t.sBase, blk); err != nil {
		return fmt.Errorf("smallwrite: segment tombstone: %w", err)
	}
	t.cursor = 0
	t.gen++
	return nil
}

// mergeHome read-modify-writes recs (in order) into home block addr.
func (t *Tier) mergeHome(ctx context.Context, addr uint64, recs []*record) error {
	blk, err := t.base.ReadBlock(ctx, addr)
	if err != nil {
		return fmt.Errorf("smallwrite: merge read block %d: %w", addr, err)
	}
	if len(blk) != t.bs {
		return fmt.Errorf("smallwrite: merge read block %d: got %d bytes, want %d", addr, len(blk), t.bs)
	}
	for _, r := range recs {
		copy(blk[r.off:], r.data)
	}
	if err := t.base.WriteBlock(ctx, addr, blk); err != nil {
		return fmt.Errorf("smallwrite: merge write block %d: %w", addr, err)
	}
	// Reconcile the cache (OnApply invalidates and poisons in-flight
	// fills) BEFORE the caller drops the overlay records: a reader that
	// finds the overlay empty must not be able to pick up pre-merge
	// cached content afterwards.
	if t.onApply != nil {
		t.onApply(addr)
	}
	return nil
}

func (t *Tier) flushBlock(ctx context.Context, addr uint64) error {
	li := t.lockIdx(addr)
	t.locks[li].Lock()
	defer t.locks[li].Unlock()

	t.mu.Lock()
	recs := append([]*record(nil), t.overlay[addr]...)
	t.mu.Unlock()
	if len(recs) == 0 {
		return nil // superseded while we walked the address list
	}
	if err := t.mergeHome(ctx, addr, recs); err != nil {
		return err
	}

	// Drop what we applied. Records newer than our snapshot cannot
	// exist (commits are gated), but Supersede may have removed some.
	// The merged records stay in the segment until the epoch resets:
	// remember the address so a direct write meanwhile still appends a
	// durable supersede marker (see Supersede).
	maxSeq := recs[len(recs)-1].seq
	t.mu.Lock()
	cur := t.overlay[addr]
	kept := cur[:0]
	for _, r := range cur {
		if r.seq <= maxSeq {
			t.liveBytes.Add(-int64(len(r.data)))
			t.liveRecords.Add(-1)
		} else {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		delete(t.overlay, addr)
	} else {
		t.overlay[addr] = kept
	}
	t.epochFlushed[addr] = struct{}{}
	t.mu.Unlock()

	t.stats.FlushedBlocks.Add(1)
	return nil
}

// Salvage replays the batches a crashed client left in the staging
// segment: every intact batch of the head's generation, packed
// back-to-back inside a block and on from each next block boundary,
// then tombstones the segment. A damaged batch ends the scan as a torn,
// never-acknowledged append (Stats.TornTails) unless intact batches
// follow it, which is ErrCorruptSegment. The tier's generation moves
// past the head's, so nothing earlier epochs and incarnations left in
// the segment can match a batch this one writes. Call it on a freshly
// constructed Tier BEFORE serving traffic. Returns the number of
// records replayed.
func (t *Tier) Salvage(ctx context.Context) (int, error) {
	defer t.gate()()
	return t.salvageHeld(ctx)
}

// segScan exposes the staging segment as one byte string, reading a
// block from the base store only when the scan first reaches it.
type segScan struct {
	ctx context.Context
	t   *Tier
	buf []byte
}

// span returns segment bytes [lo,hi), or nil when they lie beyond the
// segment.
func (s *segScan) span(lo, hi int) ([]byte, error) {
	if lo < 0 || hi < lo || uint64(hi) > s.t.sBlocks*uint64(s.t.bs) {
		return nil, nil
	}
	for len(s.buf) < hi {
		blk, err := s.t.base.ReadBlock(s.ctx, s.t.sBase+uint64(len(s.buf)/s.t.bs))
		if err != nil {
			return nil, fmt.Errorf("smallwrite: salvage read: %w", err)
		}
		if len(blk) != s.t.bs {
			return nil, fmt.Errorf("smallwrite: salvage read: got %d bytes, want %d", len(blk), s.t.bs)
		}
		s.buf = append(s.buf, blk...)
	}
	return s.buf[lo:hi], nil
}

type batchHeader struct {
	gen            uint64
	count, payload int
	sum            uint32
}

// batchAt parses the batch at byte pos. ok is false when no header
// starts there; body is nil when the batch is damaged — out of bounds
// or failing its checksum.
func (s *segScan) batchAt(pos int) (h batchHeader, body []byte, ok bool, err error) {
	b, err := s.span(pos, pos+headerSize)
	if b == nil || binary.BigEndian.Uint32(b) != batchMagic {
		return h, nil, false, err
	}
	h = batchHeader{
		gen:     binary.BigEndian.Uint64(b[4:]),
		count:   int(binary.BigEndian.Uint32(b[12:])),
		payload: int(binary.BigEndian.Uint32(b[16:])),
		sum:     binary.BigEndian.Uint32(b[20:]),
	}
	if h.payload > 0 {
		body, err = s.span(pos+headerSize, pos+headerSize+h.payload)
		if body != nil && crc32.Checksum(body, crcTab) != h.sum {
			body = nil
		}
	}
	return h, body, true, err
}

// intactAfter reports whether an intact batch of generation gen lies
// beyond the damaged batch (header h) at pos: right behind it if its
// length can be believed, or at a later block boundary. Commits are
// serialized, so such a batch proves the damaged one was acknowledged.
func (s *segScan) intactAfter(pos int, h batchHeader, gen uint64) (bool, error) {
	bs := s.t.bs
	cands := []int{pos + headerSize + h.payload}
	for c := pos - pos%bs + bs; c < int(s.t.sBlocks)*bs; c += bs {
		cands = append(cands, c)
	}
	for _, c := range cands {
		hc, body, ok, err := s.batchAt(c)
		if err != nil || (ok && hc.gen == gen && body != nil) {
			return err == nil, err
		}
	}
	return false, nil
}

// decode appends body's records to recs, voiding the ones a supersede
// tombstone in body covers.
func (t *Tier) decode(recs []*record, body []byte, count int) ([]*record, error) {
	p := 0
	for i := 0; i < count; i++ {
		if p+recHdrSize > len(body) {
			return nil, fmt.Errorf("truncated at record %d", i)
		}
		addr := binary.BigEndian.Uint64(body[p:])
		seq := binary.BigEndian.Uint64(body[p+8:])
		rawOff := binary.BigEndian.Uint32(body[p+16:])
		ln := int(binary.BigEndian.Uint32(body[p+20:]))
		if rawOff == supersedeOff {
			// Supersede tombstone: a direct write durably overwrote
			// addr's records below seq. Void the ones collected so
			// far; records appended after the marker stand.
			if ln != 0 {
				return nil, fmt.Errorf("marker %d carries payload", i)
			}
			kept := recs[:0]
			for _, r := range recs {
				if r.addr == addr && r.seq < seq {
					continue
				}
				kept = append(kept, r)
			}
			recs = kept
			p += recHdrSize
			continue
		}
		off := int(rawOff)
		if p+recHdrSize+ln > len(body) || off+ln > t.bs || t.checkHome(addr) != nil {
			return nil, fmt.Errorf("record %d out of bounds", i)
		}
		recs = append(recs, &record{addr: addr, seq: seq, off: off, data: append([]byte(nil), body[p+recHdrSize:p+recHdrSize+ln]...)})
		p += recHdrSize + ln
	}
	return recs, nil
}

func (t *Tier) salvageHeld(ctx context.Context) (int, error) {
	s := &segScan{ctx: ctx, t: t}
	head, _, ok, err := s.batchAt(0)
	if !ok {
		return 0, err // never written
	}
	// The head block is rewritten at every epoch's first append and at
	// every reset, so its generation is the largest in the segment.
	gen := head.gen
	t.gen = gen + 1
	if head.count == 0 && head.payload == 0 {
		return 0, nil // reset tombstone: a clean segment
	}
	var recs []*record
	for pos := 0; ; {
		h, body, ok, err := s.batchAt(pos)
		if err != nil {
			return 0, err
		}
		if !ok || h.gen != gen {
			// Nothing here: the log goes on at the next block boundary,
			// or ends if this is one.
			if pos%t.bs == 0 {
				break
			}
			pos += t.bs - pos%t.bs
			continue
		}
		if body == nil {
			after, err := s.intactAfter(pos, h, gen)
			if err != nil {
				return 0, err
			}
			if after {
				return 0, fmt.Errorf("%w: damaged batch at byte %d has intact batches after it", ErrCorruptSegment, pos)
			}
			t.stats.TornTails.Add(1)
			break
		}
		if recs, err = t.decode(recs, body, h.count); err != nil {
			return 0, fmt.Errorf("%w: batch at byte %d: %v", ErrCorruptSegment, pos, err)
		}
		pos += headerSize + h.payload
		if r := pos % t.bs; r != 0 && t.bs-r < headerSize {
			pos += t.bs - r // no room for a header: the tail block was full
		}
	}

	// Replay home block by home block, in append order within each.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].addr < recs[j].addr })
	for i, j := 0, 0; i < len(recs); i = j {
		for j = i; j < len(recs) && recs[j].addr == recs[i].addr; j++ {
		}
		if err := t.mergeHome(ctx, recs[i].addr, recs[i:j]); err != nil {
			return 0, err
		}
	}
	if err := t.resetSegment(ctx); err != nil {
		return len(recs), err
	}
	t.stats.Salvaged.Add(uint64(len(recs)))
	return len(recs), nil
}

// Close flushes staged records and refuses further writes.
func (t *Tier) Close(ctx context.Context) error {
	err := t.Flush(ctx)
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return err
}
