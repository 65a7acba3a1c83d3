package main

import (
	"context"
	"strings"
	"testing"
)

// memStore is a block store in memory with two faults to inject: the
// next read returns its block with one byte flipped, or the next write
// is acknowledged without being applied.
type memStore struct {
	bs       int
	blocks   map[uint64][]byte
	flipNext bool
	dropNext bool
}

func (m *memStore) ReadBlock(_ context.Context, addr uint64) ([]byte, error) {
	out := make([]byte, m.bs)
	copy(out, m.blocks[addr])
	if m.flipNext {
		m.flipNext = false
		out[m.bs/2+100] ^= 0x10
	}
	return out, nil
}

func (m *memStore) WriteBlock(ctx context.Context, addr uint64, data []byte) error {
	_, err := m.WriteAt(ctx, data, int64(addr)*int64(m.bs))
	return err
}

func (m *memStore) WriteAt(_ context.Context, p []byte, off int64) (int, error) {
	if m.dropNext {
		m.dropNext = false
		return len(p), nil
	}
	for n := 0; n < len(p); {
		addr, in := uint64(off)/uint64(m.bs), int(off)%m.bs
		blk, ok := m.blocks[addr]
		if !ok {
			blk = make([]byte, m.bs)
			m.blocks[addr] = blk
		}
		c := copy(blk[in:], p[n:])
		n += c
		off += int64(c)
	}
	return len(p), nil
}

func (m *memStore) Close() error { return nil }

func testDriver(w workload) (*blkDriver, *memStore) {
	st := &memStore{bs: w.blockSize, blocks: map[uint64][]byte{}}
	return newBlkDriver(w, st, newNoise(7, 1<<16), newVersions(w.targets*w.cells())), st
}

func TestCheckerAcceptsHonestStore(t *testing.T) {
	for _, w := range workloads {
		if w.gateway {
			continue
		}
		w.targets = 64
		d, _ := testDriver(w)
		ctx := context.Background()
		if err := d.preload(ctx, 0, w.targets); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nClients; i++ {
			g := newOpGen(w, 3, i)
			for n := 0; n < 2000; n++ {
				if err := d.do(ctx, g.next()); err != nil {
					t.Fatalf("%s: op %d on an honest store: %v", w.name, n, err)
				}
			}
		}
	}
}

func TestCheckerCountsFlippedByte(t *testing.T) {
	w, _ := findWorkload("blk_rand_rw")
	w.targets = 8
	d, st := testDriver(w)
	ctx := context.Background()
	if err := d.preload(ctx, 0, w.targets); err != nil {
		t.Fatal(err)
	}
	st.flipNext = true
	err := d.do(ctx, op{target: 3})
	if err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("a flipped payload byte went unnoticed: %v", err)
	}
	if err := d.do(ctx, op{target: 3}); err != nil {
		t.Fatalf("the same block, unflipped: %v", err)
	}
}

func TestCheckerCountsDroppedWrite(t *testing.T) {
	for _, name := range []string{"blk_rand_rw", "blk_small_hot"} {
		w, _ := findWorkload(name)
		w.targets = 8
		d, st := testDriver(w)
		ctx := context.Background()
		if err := d.preload(ctx, 0, w.targets); err != nil {
			t.Fatal(err)
		}
		// The store acknowledges the write and forgets it: the next read
		// returns the version before it, below the acknowledged floor.
		st.dropNext = true
		if err := d.do(ctx, op{write: true, target: 5, cell: 2}); err != nil {
			t.Fatal(err)
		}
		err := d.do(ctx, op{target: 5})
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("%s: a lost acknowledged write went unnoticed: %v", name, err)
		}
	}
}

func TestCheckerCountsMisdirectedBlock(t *testing.T) {
	w, _ := findWorkload("blk_rand_rw")
	w.targets = 8
	d, st := testDriver(w)
	ctx := context.Background()
	if err := d.preload(ctx, 0, w.targets); err != nil {
		t.Fatal(err)
	}
	st.blocks[2] = st.blocks[4]
	if err := d.do(ctx, op{target: 2}); err == nil || !strings.Contains(err.Error(), "holds block") {
		t.Fatalf("block 4 served as block 2 went unnoticed: %v", err)
	}
}

func TestObjectChecker(t *testing.T) {
	nz := newNoise(7, 1<<16)
	vers := newVersions(4)
	const size = 4096
	body := make([]byte, size)
	ver := vers.begin(1)
	putObject(body, nz, 1, ver)
	vers.ack(1, ver)
	if err := checkObject(body, 1, size, ver, vers); err != nil {
		t.Fatalf("intact object: %v", err)
	}
	if err := checkObject(body, 2, size, 0, vers); err == nil {
		t.Error("object 1 accepted as object 2")
	}
	if err := checkObject(body[:size-1], 1, size, ver, vers); err == nil {
		t.Error("truncated object accepted")
	}
	body[size-7] ^= 1
	if err := checkObject(body, 1, size, ver, vers); err == nil {
		t.Error("flipped byte accepted")
	}
	body[size-7] ^= 1
	// A newer version was acknowledged meanwhile: this one is stale.
	next := vers.begin(1)
	vers.ack(1, next)
	if err := checkObject(body, 1, size, next, vers); err == nil {
		t.Error("stale version accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10 shuffled], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{7, 1, 10, 4, 3, 9, 2, 8, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCoveredIsTheUnion(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 20}, {30, 40}, {32, 35}, {50, 70}}
	if got := covered(ivs, 0, 60); got != 20+10+10 {
		t.Fatalf("covered = %d, want 40", got)
	}
	if got := covered(ivs, 8, 33); got != 12+3 {
		t.Fatalf("clipped covered = %d, want 15", got)
	}
}
