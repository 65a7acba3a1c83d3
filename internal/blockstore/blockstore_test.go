package blockstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

const bs = 128

func blockOf(fill byte) []byte {
	b := make([]byte, bs)
	for i := range b {
		b[i] = fill
	}
	return b
}

func openTemp(t *testing.T, writeBack int) (*File, string) {
	t.Helper()
	dir := t.TempDir()
	f, clean, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs, WriteBackLimit: writeBack})
	if err != nil {
		t.Fatal(err)
	}
	if clean {
		t.Fatal("fresh store reported a clean previous shutdown")
	}
	return f, dir
}

func TestMemPutGet(t *testing.T) {
	m := NewMem()
	key := Key{Stripe: 3, Slot: 1}
	if _, ok := m.Get(key); ok {
		t.Fatal("empty store returned a block")
	}
	if err := m.Put(key, blockOf(7)); err != nil {
		t.Fatal(err)
	}
	got, ok := m.Get(key)
	if !ok || !bytes.Equal(got, blockOf(7)) {
		t.Fatal("round trip failed")
	}
	if len(m.Keys()) != 1 {
		t.Fatalf("keys = %v", m.Keys())
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemPutCopies(t *testing.T) {
	m := NewMem()
	b := blockOf(1)
	_ = m.Put(Key{}, b)
	b[0] = 0xFF
	got, _ := m.Get(Key{})
	if got[0] != 1 {
		t.Fatal("Put aliased the caller's buffer")
	}
}

func TestFileOptionsValidation(t *testing.T) {
	if _, _, err := OpenFile(FileOptions{Dir: t.TempDir(), BlockSize: 0}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, _, err := OpenFile(FileOptions{BlockSize: 8}); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestFilePutGetFlush(t *testing.T) {
	f, _ := openTemp(t, 0) // write-through
	key := Key{Stripe: 9, Slot: 2}
	if err := f.Put(key, blockOf(0xAB)); err != nil {
		t.Fatal(err)
	}
	got, ok := f.Get(key)
	if !ok || !bytes.Equal(got, blockOf(0xAB)) {
		t.Fatal("round trip failed")
	}
	if err := f.Put(key, blockOf(0xCD)); err != nil {
		t.Fatal(err)
	}
	got, _ = f.Get(key)
	if !bytes.Equal(got, blockOf(0xCD)) {
		t.Fatal("overwrite not visible")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileWrongBlockSizeRejected(t *testing.T) {
	f, _ := openTemp(t, 0)
	defer f.Close()
	if err := f.Put(Key{}, []byte{1, 2}); err == nil {
		t.Fatal("wrong-size block accepted")
	}
}

func TestFilePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	f, _, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs, WriteBackLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[Key][]byte)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		key := Key{Stripe: uint64(i / 4), Slot: int32(i % 4)}
		b := make([]byte, bs)
		rng.Read(b)
		want[key] = b
		if err := f.Put(key, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, clean, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if !clean {
		t.Fatal("clean shutdown not detected")
	}
	if got := len(f2.Keys()); got != len(want) {
		t.Fatalf("keys after reopen = %d, want %d", got, len(want))
	}
	for key, b := range want {
		got, ok := f2.Get(key)
		if !ok || !bytes.Equal(got, b) {
			t.Fatalf("key %v lost or corrupted across reopen", key)
		}
	}
}

func TestFileCleanMarkerConsumedOnOpen(t *testing.T) {
	dir := t.TempDir()
	f, _, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Put(Key{}, blockOf(1))
	_ = f.Close()
	// First reopen: clean. The marker is consumed, so a crash now
	// (simulated by NOT closing) leaves the next open unclean.
	f2, clean, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	if !clean {
		t.Fatal("first reopen not clean")
	}
	_ = f2.Flush()
	// Abandon f2 without Close (crash).
	f3, clean, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	if clean {
		t.Fatal("crashed store reported clean shutdown")
	}
	// Data is still there (blocks survive a crash; validity is the
	// protocol's call).
	if _, ok := f3.Get(Key{}); !ok {
		t.Fatal("flushed block lost after crash")
	}
}

func TestFileWriteBackCoalesces(t *testing.T) {
	f, _ := openTemp(t, 100) // large write-back window
	key := Key{Stripe: 1, Slot: 0}
	// 50 updates to one hot block (a redundant block under sequential
	// writes — the Section 3.11 scenario).
	for i := 0; i < 50; i++ {
		if err := f.Put(key, blockOf(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	puts, writes := f.Stats()
	if puts != 50 {
		t.Fatalf("puts = %d", puts)
	}
	if writes != 0 {
		t.Fatalf("disk writes = %d before flush, want 0", writes)
	}
	if f.DirtyCount() != 1 {
		t.Fatalf("dirty = %d, want 1 (coalesced)", f.DirtyCount())
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	puts, writes = f.Stats()
	if writes != 1 {
		t.Fatalf("disk writes = %d after flush, want 1 (50 puts coalesced)", writes)
	}
	got, _ := f.Get(key)
	if !bytes.Equal(got, blockOf(49)) {
		t.Fatal("flushed content is not the latest")
	}
	_ = f.Close()
	_ = puts
}

// Steady-state overwrites append no index record, so their flush has
// nothing to sync there: blocks.idx must come out byte-identical, and
// the overwritten content must still be what a reopen finds.
func TestFileOverwriteFlushLeavesIndexAlone(t *testing.T) {
	f, dir := openTemp(t, 100)
	keys := []Key{{Stripe: 1}, {Stripe: 1, Slot: 2}, {Stripe: 7, Slot: 1}}
	for i, k := range keys {
		if err := f.Put(k, blockOf(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "blocks.idx")
	before, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(keys)*idxRecordSize {
		t.Fatalf("index holds %d bytes after first flush, want %d", len(before), len(keys)*idxRecordSize)
	}
	for i, k := range keys {
		if err := f.Put(k, blockOf(byte(0x80+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("overwrite-only flush changed blocks.idx")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, clean, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs})
	if err != nil || !clean {
		t.Fatalf("reopen: clean=%v err=%v", clean, err)
	}
	defer g.Close()
	for i, k := range keys {
		if got, ok := g.Get(k); !ok || !bytes.Equal(got, blockOf(byte(0x80+i))) {
			t.Fatalf("key %v lost its overwrite across reopen", k)
		}
	}
}

func TestFileAutoFlushAtLimit(t *testing.T) {
	f, _ := openTemp(t, 4)
	for i := 0; i < 6; i++ {
		if err := f.Put(Key{Stripe: uint64(i)}, blockOf(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	_, writes := f.Stats()
	if writes == 0 {
		t.Fatal("write-back limit did not trigger a flush")
	}
	_ = f.Close()
}

func TestFileSurvivesTruncatedIndex(t *testing.T) {
	dir := t.TempDir()
	f, _, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		_ = f.Put(Key{Stripe: uint64(i)}, blockOf(byte(i)))
	}
	_ = f.Close()
	// Corrupt the index: chop half a record off the tail (a crash
	// mid-append).
	idxPath := filepath.Join(dir, "blocks.idx")
	info, err := os.Stat(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(idxPath, info.Size()-10); err != nil {
		t.Fatal(err)
	}
	f2, _, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	// The first four records are intact; the fifth was truncated.
	if got := len(f2.Keys()); got != 4 {
		t.Fatalf("keys after truncated index = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		got, ok := f2.Get(Key{Stripe: uint64(i)})
		if !ok || !bytes.Equal(got, blockOf(byte(i))) {
			t.Fatalf("key %d lost after index truncation", i)
		}
	}
	// And the store must keep working: new writes re-allocate safely.
	if err := f2.Put(Key{Stripe: 99}, blockOf(0x99)); err != nil {
		t.Fatal(err)
	}
	if err := f2.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestFileCorruptIndexRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	f, _, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = f.Put(Key{Stripe: uint64(i)}, blockOf(byte(i)))
	}
	_ = f.Close()
	// Flip a byte in the LAST index record: its CRC fails and replay
	// stops there, keeping the earlier records.
	idxPath := filepath.Join(dir, "blocks.idx")
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-6] ^= 0xFF
	if err := os.WriteFile(idxPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f2, _, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got := len(f2.Keys()); got != 2 {
		t.Fatalf("keys after corrupt record = %d, want 2", got)
	}
}

func TestFileOperationsAfterClose(t *testing.T) {
	f, _ := openTemp(t, 0)
	_ = f.Close()
	if err := f.Put(Key{}, blockOf(1)); err == nil {
		t.Error("Put after Close succeeded")
	}
	if _, ok := f.Get(Key{}); ok {
		t.Error("Get after Close returned data")
	}
	if err := f.Flush(); err == nil {
		t.Error("Flush after Close succeeded")
	}
	if err := f.Close(); err != nil {
		t.Error("double Close errored")
	}
}

// TestStoreEquivalenceProperty: under any random operation sequence,
// the File store (with write-back) and the Mem store must expose
// identical contents — and the File store must still match after a
// close/reopen cycle.
func TestStoreEquivalenceProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64, opsRaw []uint16) bool {
		dir := t.TempDir()
		file, _, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs, WriteBackLimit: 3})
		if err != nil {
			return false
		}
		mem := NewMem()
		rng := rand.New(rand.NewSource(seed))
		for _, raw := range opsRaw {
			key := Key{Stripe: uint64(raw % 7), Slot: int32(raw % 3)}
			b := make([]byte, bs)
			rng.Read(b)
			if err := file.Put(key, b); err != nil {
				return false
			}
			if err := mem.Put(key, b); err != nil {
				return false
			}
		}
		check := func(s Store) bool {
			for _, key := range mem.Keys() {
				want, _ := mem.Get(key)
				got, ok := s.Get(key)
				if !ok || !bytes.Equal(got, want) {
					return false
				}
			}
			return len(s.Keys()) == len(mem.Keys())
		}
		if !check(file) {
			return false
		}
		if err := file.Close(); err != nil {
			return false
		}
		re, clean, err := OpenFile(FileOptions{Dir: dir, BlockSize: bs})
		if err != nil || !clean {
			return false
		}
		defer re.Close()
		return check(re)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
