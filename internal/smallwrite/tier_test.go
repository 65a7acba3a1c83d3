package smallwrite

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/bulk"
)

// memTarget is an in-memory bulk.Target with injectable failures.
type memTarget struct {
	mu     sync.Mutex
	bs     int
	k      int
	cap    uint64
	blocks map[uint64][]byte

	reads  atomic.Uint64
	writes atomic.Uint64

	failWrites atomic.Bool
	failAddr   atomic.Uint64 // fail writes to this addr when failOne set
	failOne    atomic.Bool

	// writeGate, when set, is received from at the top of every
	// WriteBlock: tests use it to stall the commit leader so
	// followers pile onto the next batch.
	writeGate chan struct{}

	// lostAcks makes every WriteBlock land and still report failure.
	lostAcks atomic.Bool

	// crashArmed makes the client die after writesLeft more WriteBlocks:
	// every later one fails without touching the store.
	crashArmed atomic.Bool
	writesLeft atomic.Int64

	// writeDelay stretches every WriteBlock so overlapping callers are
	// observable in maxInWrite.
	writeDelay time.Duration
	inWrite    atomic.Int64
	maxInWrite atomic.Int64
}

func newMem(bs, k int, capBlocks uint64) *memTarget {
	return &memTarget{bs: bs, k: k, cap: capBlocks, blocks: make(map[uint64][]byte)}
}

func (m *memTarget) BlockSize() int      { return m.bs }
func (m *memTarget) StripeK() int        { return m.k }
func (m *memTarget) GroupBlocks() uint64 { return 0 }
func (m *memTarget) Capacity() uint64    { return m.cap }

func (m *memTarget) ReadBlock(_ context.Context, addr uint64) ([]byte, error) {
	m.reads.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, m.bs)
	copy(out, m.blocks[addr])
	return out, nil
}

func (m *memTarget) WriteBlock(_ context.Context, addr uint64, data []byte) error {
	m.writes.Add(1)
	if m.writeGate != nil {
		<-m.writeGate
	}
	if m.crashArmed.Load() && m.writesLeft.Add(-1) < 0 {
		return errors.New("memTarget: client crashed")
	}
	if m.writeDelay > 0 {
		n := m.inWrite.Add(1)
		for old := m.maxInWrite.Load(); n > old && !m.maxInWrite.CompareAndSwap(old, n); old = m.maxInWrite.Load() {
		}
		time.Sleep(m.writeDelay)
		m.inWrite.Add(-1)
	}
	if m.failWrites.Load() || (m.failOne.Load() && m.failAddr.Load() == addr) {
		return errors.New("memTarget: injected write failure")
	}
	if len(data) != m.bs {
		return fmt.Errorf("memTarget: bad block size %d", len(data))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blocks[addr] = append([]byte(nil), data...)
	if m.lostAcks.Load() {
		return errors.New("memTarget: write applied, acknowledgement lost")
	}
	return nil
}

func (m *memTarget) WriteStripes(ctx context.Context, writes []bulk.StripeWrite) ([]error, bulk.WriteStats) {
	errs := make([]error, len(writes))
	for i, w := range writes {
		for j, v := range w.Values {
			if err := m.WriteBlock(ctx, w.Addr+uint64(j), v); err != nil {
				errs[i] = err
				break
			}
		}
	}
	return errs, bulk.WriteStats{}
}

func (m *memTarget) get(addr uint64) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]byte, m.bs)
	copy(out, m.blocks[addr])
	return out
}

func newTier(t testing.TB, m *memTarget, staging uint64) *Tier {
	t.Helper()
	tr, err := New(Options{Base: m, StagingBase: m.cap - staging, StagingBlocks: staging})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

const bs = 128

func TestWriteVisibleThroughPatch(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()

	if err := tr.Write(ctx, 7, 10, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	blk := m.get(7)
	if !tr.Patch(7, blk) {
		t.Fatal("no staged bytes applied")
	}
	if string(blk[10:15]) != "hello" {
		t.Fatalf("patched block = %q", blk[8:18])
	}
	// Base untouched until flush.
	if got := m.get(7); !bytes.Equal(got, make([]byte, bs)) {
		t.Fatal("base block written before flush")
	}
	// Staged bytes durable in the segment.
	if tr.Stats().Commits.Load() == 0 || tr.StagedRecords() != 1 {
		t.Fatalf("commits=%d staged=%d", tr.Stats().Commits.Load(), tr.StagedRecords())
	}
}

func TestOverlappingRecordsApplyInOrder(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()

	must(t, tr.Write(ctx, 3, 0, []byte("aaaa")))
	must(t, tr.Write(ctx, 3, 2, []byte("bb")))
	must(t, tr.Write(ctx, 3, 1, []byte("c")))
	blk := m.get(3)
	tr.Patch(3, blk)
	if string(blk[:4]) != "acbb" {
		t.Fatalf("merged prefix = %q", blk[:4])
	}
	// Flush must produce the same merge in the base store.
	must(t, tr.Flush(ctx))
	if got := m.get(3); string(got[:4]) != "acbb" {
		t.Fatalf("flushed prefix = %q", got[:4])
	}
	if tr.StagedRecords() != 0 {
		t.Fatalf("%d records survived flush", tr.StagedRecords())
	}
}

func TestFlushResetsSegmentAndInvokesOnApply(t *testing.T) {
	m := newMem(bs, 4, 1024)
	var applied []uint64
	var amu sync.Mutex
	tr, err := New(Options{
		Base: m, StagingBase: 1024 - 16, StagingBlocks: 16,
		OnApply: func(a uint64) { amu.Lock(); applied = append(applied, a); amu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	must(t, tr.Write(ctx, 1, 0, []byte("x")))
	must(t, tr.Write(ctx, 2, 0, []byte("y")))
	must(t, tr.Flush(ctx))
	amu.Lock()
	n := len(applied)
	amu.Unlock()
	if n != 2 {
		t.Fatalf("OnApply fired %d times, want 2", n)
	}
	if tr.cursor != 0 {
		t.Fatalf("cursor %d after flush", tr.cursor)
	}
	// Tombstone: the segment head is an empty batch.
	head := m.get(1024 - 16)
	if binary.BigEndian.Uint32(head) != batchMagic || !bytes.Equal(head[12:20], make([]byte, 8)) {
		t.Fatalf("no tombstone written: head = %x", head[:headerSize])
	}
}

func TestSegmentFullTriggersFlush(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 4) // tiny segment: one batch per block or two
	ctx := context.Background()
	payload := make([]byte, 64)
	for i := 0; i < 32; i++ {
		must(t, tr.Write(ctx, uint64(i%5), 0, payload))
	}
	if tr.Stats().SegmentFullFlush.Load() == 0 {
		t.Fatal("segment never filled")
	}
	// Everything acknowledged is readable: base+patch shows the payload.
	for a := uint64(0); a < 5; a++ {
		blk := m.get(a)
		tr.Patch(a, blk)
		if !bytes.Equal(blk[:64], payload) {
			t.Fatalf("block %d lost its bytes", a)
		}
	}
}

func TestSupersedeDropsOnlyOlderRecords(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()

	must(t, tr.Write(ctx, 9, 0, []byte("old")))
	seq, unlock := tr.LockAddrs(9)
	// A record sequenced after the direct write's snapshot (concurrent
	// writer) must survive the supersede.
	done := make(chan error, 1)
	go func() { done <- tr.Write(ctx, 9, 100, []byte("new")) }()

	full := bytes.Repeat([]byte{'F'}, bs)
	must(t, m.WriteBlock(ctx, 9, full)) // the direct write, under the lock
	tr.Supersede(9, seq)
	unlock()
	must(t, <-done)

	blk := m.get(9)
	tr.Patch(9, blk)
	if string(blk[:3]) == "old" {
		t.Fatal("superseded record resurfaced")
	}
	if string(blk[100:103]) != "new" {
		t.Fatal("concurrent record lost")
	}
	if tr.Stats().Supersedes.Load() != 1 {
		t.Fatalf("supersedes=%d", tr.Stats().Supersedes.Load())
	}
}

func TestSupersedeDurableSurvivesCrash(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	must(t, tr.Write(ctx, 9, 0, []byte("old")))
	must(t, tr.Write(ctx, 6, 0, []byte("keep")))

	seq, unlock := tr.LockAddrs(9)
	full := bytes.Repeat([]byte{'F'}, bs)
	must(t, m.WriteBlock(ctx, 9, full)) // the direct write, under the lock
	needMark := tr.Supersede(9, seq)
	unlock()
	if !needMark {
		t.Fatal("supersede of staged records did not request a durable mark")
	}
	must(t, tr.SupersedeDurable(ctx, []SupersedeMark{{Addr: 9, BeforeSeq: seq}}))
	if tr.Stats().SupersedeMarks.Load() != 1 {
		t.Fatalf("marks=%d", tr.Stats().SupersedeMarks.Load())
	}

	// Client crashes: the overlay is gone, the segment survives. The
	// tombstoned record must NOT be replayed over the acknowledged
	// direct write; block 6's record must still be recovered.
	tr2 := newTier(t, m, 16)
	n, err := tr2.Salvage(ctx)
	must(t, err)
	if n != 1 {
		t.Fatalf("salvaged %d records, want 1", n)
	}
	if got := m.get(9); got[0] != 'F' {
		t.Fatalf("stale staged bytes replayed over the direct write: %q", got[:4])
	}
	if got := m.get(6); string(got[:4]) != "keep" {
		t.Fatalf("unrelated record lost: %q", got[:4])
	}
}

func TestSupersedeMarkerSparesNewerRecords(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	must(t, tr.Write(ctx, 9, 0, []byte("old")))

	seq, unlock := tr.LockAddrs(9)
	// Sequenced after the direct write's snapshot (concurrent writer):
	// staged into the segment BEFORE the marker, but must survive it.
	must(t, tr.Write(ctx, 9, 100, []byte("new")))
	full := bytes.Repeat([]byte{'F'}, bs)
	must(t, m.WriteBlock(ctx, 9, full))
	tr.Supersede(9, seq)
	unlock()
	must(t, tr.SupersedeDurable(ctx, []SupersedeMark{{Addr: 9, BeforeSeq: seq}}))

	tr2 := newTier(t, m, 16)
	n, err := tr2.Salvage(ctx)
	must(t, err)
	if n != 1 {
		t.Fatalf("salvaged %d records, want 1 (the post-snapshot one)", n)
	}
	got := m.get(9)
	if string(got[100:103]) != "new" {
		t.Fatal("post-snapshot record lost to the supersede marker")
	}
	if string(got[:3]) == "old" {
		t.Fatal("superseded record resurfaced")
	}
}

func TestSupersedeAfterFlushWindowNeedsDurableMark(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	must(t, tr.Write(ctx, 9, 0, []byte("old")))

	// Fail only the segment tombstone: the flush merges the record into
	// its home block and drops it from the overlay, but the segment
	// still holds the batch — the window in which a direct write sees
	// nothing to supersede in memory yet still needs a durable mark.
	m.failOne.Store(true)
	m.failAddr.Store(1024 - 16)
	if err := tr.Flush(ctx); err == nil {
		t.Fatal("tombstone failure did not surface")
	}
	m.failOne.Store(false)

	seq, unlock := tr.LockAddrs(9)
	full := bytes.Repeat([]byte{'F'}, bs)
	must(t, m.WriteBlock(ctx, 9, full))
	needMark := tr.Supersede(9, seq)
	unlock()
	if !needMark {
		t.Fatal("flushed-but-unreset records did not request a durable mark")
	}
	must(t, tr.SupersedeDurable(ctx, []SupersedeMark{{Addr: 9, BeforeSeq: seq}}))

	tr2 := newTier(t, m, 16)
	if n, err := tr2.Salvage(ctx); err != nil || n != 0 {
		t.Fatalf("salvage: n=%d err=%v", n, err)
	}
	if got := m.get(9); got[0] != 'F' {
		t.Fatalf("flushed record replayed over the direct write: %q", got[:4])
	}
}

func TestFailedDirectWriteKeepsStagedRecords(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	must(t, tr.Write(ctx, 9, 0, []byte("keep")))
	seq, unlock := tr.LockAddrs(9)
	m.failOne.Store(true)
	m.failAddr.Store(9)
	if err := m.WriteBlock(ctx, 9, make([]byte, bs)); err == nil {
		t.Fatal("injected failure did not fire")
	}
	// Direct write failed: caller must NOT supersede. Records stay.
	_ = seq
	unlock()
	m.failOne.Store(false)
	blk := m.get(9)
	tr.Patch(9, blk)
	if string(blk[:4]) != "keep" {
		t.Fatal("staged record lost after failed direct write")
	}
}

func TestFlushFailureKeepsUnappliedRecords(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	must(t, tr.Write(ctx, 1, 0, []byte("a")))
	must(t, tr.Write(ctx, 2, 0, []byte("b")))
	m.failWrites.Store(true)
	if err := tr.Flush(ctx); err == nil {
		t.Fatal("flush succeeded against failing base")
	}
	m.failWrites.Store(false)
	// Retry succeeds and nothing was lost.
	must(t, tr.Flush(ctx))
	if got := m.get(1); got[0] != 'a' {
		t.Fatal("record for block 1 lost")
	}
	if got := m.get(2); got[0] != 'b' {
		t.Fatal("record for block 2 lost")
	}
}

func TestSalvageReplaysAcknowledgedRecords(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	must(t, tr.Write(ctx, 5, 7, []byte("ack'd")))
	must(t, tr.Write(ctx, 6, 0, []byte("also")))
	// Client crashes: overlay is lost, the segment survives. A new
	// tier over the same base salvages before serving.
	tr2 := newTier(t, m, 16)
	n, err := tr2.Salvage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("salvaged %d records, want 2", n)
	}
	if got := m.get(5); string(got[7:12]) != "ack'd" {
		t.Fatalf("block 5 = %q", got[:16])
	}
	if got := m.get(6); string(got[:4]) != "also" {
		t.Fatalf("block 6 = %q", got[:8])
	}
	// Second salvage is a no-op (tombstoned).
	if n, err := tr2.Salvage(ctx); err != nil || n != 0 {
		t.Fatalf("re-salvage: n=%d err=%v", n, err)
	}
}

func TestSalvageIgnoresFlushedEpoch(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	must(t, tr.Write(ctx, 5, 0, []byte("flushed")))
	must(t, tr.Flush(ctx))
	// Overwrite the flushed content directly: a salvage replay of the
	// already-flushed batch would resurrect "flushed" over it.
	full := bytes.Repeat([]byte{'N'}, bs)
	must(t, m.WriteBlock(ctx, 5, full))
	tr2 := newTier(t, m, 16)
	if n, err := tr2.Salvage(ctx); err != nil || n != 0 {
		t.Fatalf("salvage after clean flush: n=%d err=%v", n, err)
	}
	if got := m.get(5); got[0] != 'N' {
		t.Fatal("salvage resurrected flushed bytes")
	}
}

func TestSalvageRejectsDamageBeforeIntactBatches(t *testing.T) {
	for _, tc := range []struct {
		name  string
		later func(ctx context.Context, tr *Tier) error // acknowledged after the damaged batch
	}{
		{"packed behind it", func(ctx context.Context, tr *Tier) error {
			return tr.Write(ctx, 6, 0, []byte("later"))
		}},
		{"at a later block boundary", func(ctx context.Context, tr *Tier) error {
			return tr.Write(ctx, 6, 0, bytes.Repeat([]byte{'L'}, 100))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMem(bs, 4, 1024)
			tr := newTier(t, m, 16)
			ctx := context.Background()
			must(t, tr.Write(ctx, 5, 0, []byte("payload")))
			must(t, tc.later(ctx, tr))
			// Flip one payload byte of the first batch.
			head := m.get(1024 - 16)
			head[headerSize+recHdrSize] ^= 0xff
			must(t, m.WriteBlock(ctx, 1024-16, head))
			tr2 := newTier(t, m, 16)
			if _, err := tr2.Salvage(ctx); !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("err = %v, want ErrCorruptSegment", err)
			}
		})
	}
}

// A multi-block batch interrupted mid-append leaves a valid header over
// stale body blocks. It was never acknowledged, so it must read as the
// end of the log, not as corruption that keeps the store from opening.
func TestSalvageEndsAtTornTail(t *testing.T) {
	m := newMem(bs, 4, 1024)
	ctx := context.Background()
	const sBase = 1024 - 16
	// Stale body: an earlier epoch fills the first blocks of the segment.
	tr0 := newTier(t, m, 16)
	for i := 0; i < 3; i++ {
		must(t, tr0.Write(ctx, 8, 0, bytes.Repeat([]byte{'s'}, 100)))
	}
	must(t, tr0.Flush(ctx))

	tr := newTier(t, m, 16)
	_, err := tr.Salvage(ctx)
	must(t, err)
	must(t, tr.Write(ctx, 5, 0, []byte("acked")))
	// The next batch starts at block 1 and needs block 2 as well; the
	// client dies with only block 1 written.
	m.failOne.Store(true)
	m.failAddr.Store(sBase + 2)
	if err := tr.Write(ctx, 6, 0, bytes.Repeat([]byte{'T'}, 110)); err == nil {
		t.Fatal("torn append was acknowledged")
	}
	m.failOne.Store(false)
	if got := m.get(sBase + 1); binary.BigEndian.Uint32(got) != batchMagic {
		t.Fatal("test setup: the torn batch's header block did not land")
	}

	tr2 := newTier(t, m, 16)
	n, err := tr2.Salvage(ctx)
	if err != nil {
		t.Fatalf("torn tail bricked the segment: %v", err)
	}
	if n != 1 || tr2.Stats().TornTails.Load() != 1 {
		t.Fatalf("salvaged %d records, torn tails %d; want 1 and 1", n, tr2.Stats().TornTails.Load())
	}
	if got := m.get(5); string(got[:5]) != "acked" {
		t.Fatalf("acknowledged record lost: %q", got[:8])
	}
	if got := m.get(6); got[0] == 'T' {
		t.Fatal("torn batch replayed")
	}
}

// Incarnation 1 leaves batches in blocks 0..3 and crashes; incarnation 2
// salvages them (tombstoning block 0 only), takes a newer full-block
// write, stages one record into block 0 and crashes. Incarnation 3 must
// replay that one record — not incarnation 1's leftovers in blocks 1..3
// over the newer write.
func TestSalvageIgnoresPreviousIncarnation(t *testing.T) {
	m := newMem(bs, 4, 1024)
	ctx := context.Background()
	tr1 := newTier(t, m, 16)
	for a := uint64(1); a <= 4; a++ {
		must(t, tr1.Write(ctx, a, 0, bytes.Repeat([]byte{'1'}, 80))) // 24+24+80: one block each
	}

	tr2 := newTier(t, m, 16)
	if n, err := tr2.Salvage(ctx); err != nil || n != 4 {
		t.Fatalf("incarnation 2 salvage: n=%d err=%v", n, err)
	}
	newer := bytes.Repeat([]byte{'N'}, bs)
	must(t, m.WriteBlock(ctx, 3, newer))
	must(t, tr2.Write(ctx, 9, 0, []byte("two")))

	tr3 := newTier(t, m, 16)
	n, err := tr3.Salvage(ctx)
	must(t, err)
	if n != 1 {
		t.Fatalf("incarnation 3 salvaged %d records, want 1", n)
	}
	if got := m.get(3); !bytes.Equal(got, newer) {
		t.Fatalf("stale bytes of incarnation 1 replayed over a newer write: %q", got[:4])
	}
	if got := m.get(9); string(got[:3]) != "two" {
		t.Fatalf("incarnation 2's record lost: %q", got[:4])
	}
}

func TestSmallBatchesPackIntoTailBlock(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	const sBase = 1024 - 16
	// 24+24+8 = 56 bytes a batch: two share a 128-byte block.
	for i := 0; i < 4; i++ {
		must(t, tr.Write(ctx, uint64(i), 0, []byte{'p', byte(i), 2, 3, 4, 5, 6, 7}))
	}
	if tr.cursor != bs+2*56 {
		t.Fatalf("cursor = %d bytes, want %d", tr.cursor, bs+2*56)
	}
	if got := m.get(sBase + 2); !bytes.Equal(got, make([]byte, bs)) {
		t.Fatal("a third staging block was written")
	}
	// A batch too big for the 16 bytes left starts at the next block, and
	// the next small one packs in behind it.
	must(t, tr.Write(ctx, 7, 0, bytes.Repeat([]byte{'B'}, 120))) // 168 bytes: blocks 2 and 3
	must(t, tr.Write(ctx, 8, 0, []byte("behind")))
	if want := uint64(3*bs + 40 + 54); tr.cursor != want {
		t.Fatalf("cursor = %d bytes, want %d", tr.cursor, want)
	}

	tr2 := newTier(t, m, 16)
	n, err := tr2.Salvage(ctx)
	must(t, err)
	if n != 6 {
		t.Fatalf("salvaged %d records, want 6", n)
	}
	for i := 0; i < 4; i++ {
		if got := m.get(uint64(i)); got[0] != 'p' || got[1] != byte(i) {
			t.Fatalf("packed record %d lost: %q", i, got[:8])
		}
	}
	if got := m.get(8); string(got[:6]) != "behind" {
		t.Fatalf("record packed behind a multi-block batch lost: %q", got[:8])
	}
}

// A boundary-crossing append fails from the client's view but lands.
// The retry is small enough for the free bytes of the tail block before
// it; packed there it would precede the stray batch in the log, and a
// salvage would replay the failed write over the acknowledged retry.
func TestFailedAppendCannotOutliveItsRetry(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	must(t, tr.Write(ctx, 5, 0, []byte("tail")))
	m.lostAcks.Store(true)
	if err := tr.Write(ctx, 6, 0, bytes.Repeat([]byte{'X'}, 100)); err == nil {
		t.Fatal("lost acknowledgement did not fail the write")
	}
	m.lostAcks.Store(false)
	must(t, tr.Write(ctx, 6, 0, []byte("retry")))

	tr2 := newTier(t, m, 16)
	_, err := tr2.Salvage(ctx)
	must(t, err)
	if got := m.get(6); string(got[:5]) != "retry" {
		t.Fatalf("failed write replayed over its acknowledged retry: %q", got[:8])
	}
	if got := m.get(5); string(got[:4]) != "tail" {
		t.Fatalf("earlier acknowledged record lost: %q", got[:4])
	}
}

func TestFlushMergesHomeBlocksInParallel(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr, err := New(Options{Base: m, StagingBase: 1024 - 64, StagingBlocks: 64, MaxInFlight: 4})
	must(t, err)
	ctx := context.Background()
	for a := uint64(0); a < 32; a++ {
		must(t, tr.Write(ctx, a, 0, []byte{byte(a) + 1}))
	}
	m.writeDelay = time.Millisecond
	must(t, tr.Flush(ctx))
	if got := m.maxInWrite.Load(); got < 2 || got > 4 {
		t.Fatalf("%d home-block writes in flight at once, want 2..4 (the engine window)", got)
	}
	for a := uint64(0); a < 32; a++ {
		if got := m.get(a); got[0] != byte(a)+1 {
			t.Fatalf("block %d not merged", a)
		}
	}
}

func TestGroupCommitBatchesConcurrentWriters(t *testing.T) {
	m := newMem(bs, 4, 4096)
	gate := make(chan struct{})
	m.writeGate = gate
	tr := newTier(t, m, 64)
	ctx := context.Background()
	const writers = 16
	const perWriter = 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				payload := []byte{byte(w), byte(i)}
				if err := tr.Write(ctx, uint64(w), (i*2)%bs, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Ration segment appends: each blocked WriteBlock is a commit
	// leader holding the door while the other writers pile onto the
	// next batch, so batching is guaranteed rather than a scheduling
	// accident.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
feed:
	for {
		time.Sleep(200 * time.Microsecond)
		select {
		case gate <- struct{}{}:
		case <-done:
			break feed
		}
	}
	close(gate) // open the gate for the final flush
	wg.Wait()
	commits := tr.Stats().Commits.Load()
	records := tr.Stats().CommitRecords.Load()
	if records != writers*perWriter {
		t.Fatalf("records=%d", records)
	}
	if commits >= records {
		t.Fatalf("no batching: %d commits for %d records", commits, records)
	}
	t.Logf("group commit: %d records in %d commits (%.1f rec/commit)",
		records, commits, float64(records)/float64(commits))
	must(t, tr.Flush(ctx))
	for w := 0; w < writers; w++ {
		got := m.get(uint64(w))
		if got[(perWriter-1)*2%bs] != byte(w) {
			t.Fatalf("writer %d bytes lost", w)
		}
	}
}

func TestWriteValidation(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	if err := tr.Write(ctx, 1, bs-1, []byte("xx")); err == nil {
		t.Fatal("accepted record past block end")
	}
	if err := tr.Write(ctx, 1024-8, 0, []byte("x")); err == nil {
		t.Fatal("accepted record inside the staging extent")
	}
	if err := tr.Write(ctx, 5000, 0, []byte("x")); !errors.Is(err, bulk.ErrOutOfRange) {
		t.Fatalf("out-of-range write: %v", err)
	}
	if err := tr.Write(ctx, 1, 0, nil); err != nil {
		t.Fatalf("empty write should be a no-op: %v", err)
	}
}

func TestCloseFlushesAndRefuses(t *testing.T) {
	m := newMem(bs, 4, 1024)
	tr := newTier(t, m, 16)
	ctx := context.Background()
	must(t, tr.Write(ctx, 1, 0, []byte("z")))
	must(t, tr.Close(ctx))
	if got := m.get(1); got[0] != 'z' {
		t.Fatal("close did not flush")
	}
	if err := tr.Write(ctx, 1, 0, []byte("w")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTierWrite128B(b *testing.B) {
	m := newMem(4096, 4, 1<<20)
	tr, err := New(Options{Base: m, StagingBase: 1<<20 - 4096, StagingBlocks: 4096})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, 128)
	b.SetBytes(128)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if err := tr.Write(ctx, uint64(i%512), (i*128)%(4096-128), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
