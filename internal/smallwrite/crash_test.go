package smallwrite

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

// crashOp is one step of the crash-point sequence: a staged sub-block
// write ('w'), a direct full-block write run the way tier.Layer runs it
// ('d'), or a Flush barrier ('f').
type crashOp struct {
	kind byte
	addr uint64
	off  int
	data []byte
}

const (
	crashStaging = 6 // blocks: 768 bytes, so the sequence fills it twice
	crashCap     = 64
	crashHomes   = 6 // home blocks 0..5
)

// crashOps covers every shape of segment write: batches packed into
// the tail, a batch crossing a block boundary with a small one packed
// behind it, supersede markers in a used and in a fresh epoch, a
// segment-full flush, an explicit flush, and the reset tombstones.
func crashOps() []crashOp {
	fill := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	ops := []crashOp{
		{'w', 0, 0, fill('a', 8)},
		{'w', 1, 4, fill('b', 8)},
		{'w', 0, 4, fill('c', 8)}, // overlaps the first: order matters
		{'w', 2, 0, fill('d', 120)},
		{'w', 2, 100, fill('e', 12)},
		{'d', 0, 0, fill('D', bs)},
		{'w', 0, 10, fill('f', 6)},
	}
	for i := 0; i < 14; i++ { // runs the segment full
		ops = append(ops, crashOp{'w', uint64(i % crashHomes), (i * 7) % (bs - 8), fill('g'+byte(i), 8)})
	}
	ops = append(ops,
		crashOp{kind: 'f'},
		crashOp{'w', 1, 0, fill('x', 20)},
		crashOp{'d', 1, 0, fill('E', bs)},
		crashOp{'w', 4, 60, fill('y', 30)},
		crashOp{'w', 1, 2, fill('z', 3)},
	)
	return ops
}

// directWrite is tier.Layer.WriteBlock's protocol against the tier.
func directWrite(ctx context.Context, tr *Tier, m *memTarget, addr uint64, blk []byte) error {
	seq, unlock := tr.LockAddrs(addr)
	err := m.WriteBlock(ctx, addr, blk)
	needMark := err == nil && tr.Supersede(addr, seq)
	unlock()
	if err != nil || !needMark {
		return err
	}
	return tr.SupersedeDurable(ctx, []SupersedeMark{{Addr: addr, BeforeSeq: seq}})
}

func (o crashOp) run(ctx context.Context, tr *Tier, m *memTarget) error {
	switch o.kind {
	case 'w':
		return tr.Write(ctx, o.addr, o.off, o.data)
	case 'd':
		return directWrite(ctx, tr, m, o.addr, o.data)
	default:
		return tr.Flush(ctx)
	}
}

// crashModel is what the home blocks must hold given the acknowledged
// ops, plus the records each address still has in the segment.
type crashModel struct {
	home   [crashHomes][]byte
	staged [crashHomes][]crashOp // since the last reset or durable marker
}

func newCrashModel() *crashModel {
	c := &crashModel{}
	for i := range c.home {
		c.home[i] = make([]byte, bs)
	}
	return c
}

func (c *crashModel) apply(o crashOp) {
	switch o.kind {
	case 'w':
		copy(c.home[o.addr][o.off:], o.data)
		c.staged[o.addr] = append(c.staged[o.addr], o)
	case 'd':
		copy(c.home[o.addr], o.data)
		c.staged[o.addr] = nil
	}
}

// TestCrashPointsSalvageAcknowledged kills the client after every base
// WriteBlock of the sequence and checks what the next incarnation
// salvages: every acknowledged write, in order, superseded records
// void, and of the op in flight either all or nothing. That
// incarnation then takes a full-block write and stages one record
// before dying too, and a third must replay exactly that record.
func TestCrashPointsSalvageAcknowledged(t *testing.T) {
	ctx := context.Background()
	ops := crashOps()

	dry := newMem(bs, 4, crashCap)
	tr := newTier(t, dry, crashStaging)
	for i, o := range ops {
		if err := o.run(ctx, tr, dry); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if tr.Stats().SegmentFullFlush.Load() == 0 || tr.Stats().SupersedeMarks.Load() != 2 {
		t.Fatalf("sequence lost its coverage: %d segment-full flushes, %d markers",
			tr.Stats().SegmentFullFlush.Load(), tr.Stats().SupersedeMarks.Load())
	}
	total := int(dry.writes.Load())

	for crashAt := 0; crashAt < total; crashAt++ {
		t.Run(fmt.Sprint(crashAt), func(t *testing.T) {
			m := newMem(bs, 4, crashCap)
			tr := newTier(t, m, crashStaging)
			m.writesLeft.Store(int64(crashAt))
			m.crashArmed.Store(true)
			model := newCrashModel()
			var inflight *crashOp
			for i := range ops {
				flushes := tr.Stats().Flushes.Load()
				if err := ops[i].run(ctx, tr, m); err != nil {
					inflight = &ops[i]
					break
				}
				if tr.Stats().Flushes.Load() != flushes {
					model.staged = [crashHomes][]crashOp{} // the segment was reset
				}
				model.apply(ops[i])
			}
			m.crashArmed.Store(false)

			tr2 := newTier(t, m, crashStaging)
			if _, err := tr2.Salvage(ctx); err != nil {
				t.Fatalf("salvage after crash: %v", err)
			}
			for a := range model.home {
				want := [][]byte{model.home[a]}
				if inflight != nil && inflight.kind != 'f' && int(inflight.addr) == a {
					after := append([]byte(nil), model.home[a]...)
					copy(after[inflight.off:], inflight.data)
					want = append(want, after)
					if inflight.kind == 'd' {
						// The block landed but its supersede marker did
						// not: the address's records replay over it.
						replayed := append([]byte(nil), after...)
						for _, r := range model.staged[a] {
							copy(replayed[r.off:], r.data)
						}
						want = append(want, replayed)
					}
				}
				got := m.get(uint64(a))
				ok := false
				for _, w := range want {
					ok = ok || bytes.Equal(got, w)
				}
				if !ok {
					t.Fatalf("block %d after salvage = %q, want one of %q", a, got, want)
				}
				model.home[a] = got
			}

			// Second incarnation: a newer full block, one staged record,
			// then it dies as well.
			newer := bytes.Repeat([]byte{'N'}, bs)
			must(t, directWrite(ctx, tr2, m, 2, newer))
			must(t, tr2.Write(ctx, 3, 5, []byte("second")))
			copy(model.home[2], newer)
			copy(model.home[3][5:], "second")

			tr3 := newTier(t, m, crashStaging)
			n, err := tr3.Salvage(ctx)
			if err != nil || n != 1 {
				t.Fatalf("third incarnation salvage: n=%d err=%v, want 1 record", n, err)
			}
			for a := range model.home {
				if got := m.get(uint64(a)); !bytes.Equal(got, model.home[a]) {
					t.Fatalf("block %d after the third incarnation = %q, want %q", a, got, model.home[a])
				}
			}
		})
	}
}

// FuzzSalvageSegment feeds arbitrary bytes to Salvage as the staging
// segment: it must replay records or return a typed error, never panic
// or reach outside the segment and the home blocks.
func FuzzSalvageSegment(f *testing.F) {
	const staging, capBlocks = 4, 32
	ctx := context.Background()
	segment := func(m *memTarget) []byte {
		var seg []byte
		for b := uint64(0); b < staging; b++ {
			seg = append(seg, m.get(capBlocks-staging+b)...)
		}
		return seg
	}
	// Seeds: an empty segment, a live one with packed batches, a
	// multi-block batch and a marker, the same damaged, and a reset one.
	f.Add([]byte{})
	m := newMem(bs, 4, capBlocks)
	tr := newTier(f, m, staging)
	must(f, tr.Write(ctx, 1, 0, []byte("one")))
	must(f, tr.Write(ctx, 2, 8, []byte("two")))
	must(f, tr.Write(ctx, 3, 0, bytes.Repeat([]byte{'3'}, 100)))
	must(f, directWrite(ctx, tr, m, 1, make([]byte, bs)))
	live := segment(m)
	f.Add(live)
	for _, at := range []int{5, 13, 17, headerSize + 3, bs + 60, 2*bs + 1} {
		bad := append([]byte(nil), live...)
		bad[at] ^= 0x5a
		f.Add(bad)
	}
	must(f, tr.Flush(ctx))
	f.Add(segment(m))

	f.Fuzz(func(t *testing.T, seg []byte) {
		m := newMem(bs, 4, capBlocks)
		for b := 0; b < staging && b*bs < len(seg); b++ {
			blk := make([]byte, bs)
			copy(blk, seg[b*bs:])
			must(t, m.WriteBlock(ctx, uint64(capBlocks-staging+b), blk))
		}
		tr := newTier(t, m, staging)
		n, err := tr.Salvage(ctx)
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("untyped salvage error: %v", err)
			}
			return
		}
		for addr := range m.blocks {
			if addr >= capBlocks {
				t.Fatalf("salvage wrote block %d beyond capacity %d", addr, capBlocks)
			}
		}
		// Whatever was replayed, the segment is clean afterwards.
		if again, err := newTier(t, m, staging).Salvage(ctx); err != nil || again != 0 {
			t.Fatalf("salvage after a salvage of %d records: n=%d err=%v", n, again, err)
		}
	})
}
