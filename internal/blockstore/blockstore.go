// Package blockstore provides the block persistence layer under a
// storage node. The paper's storage nodes are thin devices "with some
// storage connected" (Section 2); its evaluation uses RAM, and Section
// 3.11 describes postponing redundant-block disk writes while
// sequential writes are still hitting them.
//
// Two implementations are provided:
//
//   - Mem: blocks live in memory only (the paper's evaluation setup,
//     and the default for storage.Node).
//   - File: blocks persist in a data file with an append-only index,
//     fronted by a write-back cache that coalesces repeated updates to
//     hot blocks (the Section 3.11 optimization) and flushes on demand.
//
// A node restarting on top of a File store finds its blocks again, but
// whether that data is *valid* is a protocol question: the store
// records a clean-shutdown marker, and the deployment decides whether
// a rejoining node may trust it (a node that missed writes while down
// holds stale blocks, so by default the protocol treats a reborn node
// as INIT and lets recovery rebuild it).
package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ecstore/internal/bufpool"
	"ecstore/internal/obs"
)

// Key addresses one block: a stripe and a slot within it.
type Key struct {
	Stripe uint64
	Slot   int32
}

// Store is the block persistence interface used by storage nodes.
// Implementations must be safe for concurrent use.
type Store interface {
	// Get returns the block for key, or ok=false if never written.
	// The returned slice must not be retained by the caller across
	// calls; copy if needed.
	Get(key Key) (block []byte, ok bool)
	// Put stores a copy of block under key.
	Put(key Key, block []byte) error
	// Keys lists every stored key (order unspecified).
	Keys() []Key
	// Flush forces buffered writes down to the backing medium.
	Flush() error
	// Close flushes and releases resources; the store is unusable
	// afterwards.
	Close() error
}

// --- Mem ---------------------------------------------------------------------

// Mem is the in-memory store (the paper's evaluation configuration).
type Mem struct {
	mu     sync.RWMutex
	blocks map[Key][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{blocks: make(map[Key][]byte)}
}

var _ Store = (*Mem)(nil)

// Get implements Store.
func (m *Mem) Get(key Key) ([]byte, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.blocks[key]
	return b, ok
}

// Put implements Store.
func (m *Mem) Put(key Key, block []byte) error {
	cp := append([]byte(nil), block...)
	m.mu.Lock()
	m.blocks[key] = cp
	m.mu.Unlock()
	return nil
}

// Keys implements Store.
func (m *Mem) Keys() []Key {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Key, 0, len(m.blocks))
	for k := range m.blocks {
		out = append(out, k)
	}
	return out
}

// Flush implements Store (no-op).
func (m *Mem) Flush() error { return nil }

// Close implements Store (no-op).
func (m *Mem) Close() error { return nil }

// --- File --------------------------------------------------------------------

// File layout:
//
//	<dir>/blocks.dat   fixed-size block slots, allocated append-style
//	<dir>/blocks.idx   append-only records (key -> data offset), CRC'd
//	<dir>/clean        present iff the store was closed cleanly
//
// The index is replayed on open; later records for a key win. Blocks
// are updated in place in the data file, so steady-state writes are
// one pwrite each (plus one index append the first time a key is
// seen).
type File struct {
	blockSize int

	mu      sync.Mutex
	data    *os.File
	idx     *os.File
	offsets map[Key]int64 // key -> offset in blocks.dat
	next    int64         // next free data offset

	// write-back cache (Section 3.11): dirty blocks not yet on disk.
	dirty      map[Key][]byte
	dirtyLimit int

	dir    string
	closed bool

	// stats
	puts       uint64
	diskWrites uint64
	flushes    uint64
	gets       uint64

	obsGets, obsPuts, obsDiskWrites, obsFlushes *obs.Counter
}

// FileOptions configures a File store.
type FileOptions struct {
	// Dir is the directory holding the store's files. Required.
	Dir string
	// BlockSize is the fixed block size. Required.
	BlockSize int
	// WriteBackLimit is the number of dirty blocks buffered before an
	// automatic flush (the deferred-parity-write optimization). Zero
	// means write-through.
	WriteBackLimit int
	// Obs optionally receives the store's metrics: blockstore.gets,
	// blockstore.puts, blockstore.disk_writes, blockstore.flushes, and a
	// live blockstore.dirty_blocks gauge.
	Obs *obs.Registry
}

const idxRecordSize = 8 + 4 + 8 + 4 // stripe, slot, offset, crc

var errClosed = errors.New("blockstore: store is closed")

// OpenFile opens (or creates) a file-backed store. It returns the
// store and whether the previous shutdown was clean (false for a fresh
// store or after a crash); the caller decides whether persisted blocks
// may be trusted as valid protocol state.
func OpenFile(opts FileOptions) (*File, bool, error) {
	if opts.BlockSize <= 0 {
		return nil, false, fmt.Errorf("blockstore: BlockSize must be positive, got %d", opts.BlockSize)
	}
	if opts.Dir == "" {
		return nil, false, errors.New("blockstore: Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, false, err
	}
	dataPath := filepath.Join(opts.Dir, "blocks.dat")
	idxPath := filepath.Join(opts.Dir, "blocks.idx")
	cleanPath := filepath.Join(opts.Dir, "clean")

	wasClean := false
	if _, err := os.Stat(cleanPath); err == nil {
		wasClean = true
		// Remove the marker: it is re-created only on clean Close.
		if err := os.Remove(cleanPath); err != nil {
			return nil, false, err
		}
	}

	data, err := os.OpenFile(dataPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	idx, err := os.OpenFile(idxPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		_ = data.Close()
		return nil, false, err
	}

	f := &File{
		blockSize:  opts.BlockSize,
		data:       data,
		idx:        idx,
		offsets:    make(map[Key]int64),
		dirty:      make(map[Key][]byte),
		dirtyLimit: opts.WriteBackLimit,
		dir:        opts.Dir,
	}
	if err := f.replayIndex(); err != nil {
		_ = data.Close()
		_ = idx.Close()
		return nil, false, fmt.Errorf("blockstore: replay index: %w", err)
	}
	if reg := opts.Obs; reg != nil {
		f.obsGets = reg.Counter("blockstore.gets")
		f.obsPuts = reg.Counter("blockstore.puts")
		f.obsDiskWrites = reg.Counter("blockstore.disk_writes")
		f.obsFlushes = reg.Counter("blockstore.flushes")
		reg.Func("blockstore.dirty_blocks", func() int64 { return int64(f.DirtyCount()) })
	}
	return f, wasClean, nil
}

// replayIndex loads the key -> offset map. Truncated or corrupt tail
// records (a crash mid-append) are discarded.
func (f *File) replayIndex() error {
	if _, err := f.idx.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var rec [idxRecordSize]byte
	valid := int64(0)
	for {
		_, err := io.ReadFull(f.idx, rec[:])
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			break // truncated tail: drop it
		}
		if err != nil {
			return err
		}
		sum := crc32.ChecksumIEEE(rec[:idxRecordSize-4])
		if sum != binary.BigEndian.Uint32(rec[idxRecordSize-4:]) {
			break // corrupt tail: stop replay here
		}
		key := Key{
			Stripe: binary.BigEndian.Uint64(rec[0:8]),
			Slot:   int32(binary.BigEndian.Uint32(rec[8:12])),
		}
		off := int64(binary.BigEndian.Uint64(rec[12:20]))
		f.offsets[key] = off
		if off+int64(f.blockSize) > f.next {
			f.next = off + int64(f.blockSize)
		}
		valid += idxRecordSize
	}
	// Trim any invalid tail so future appends start clean.
	if err := f.idx.Truncate(valid); err != nil {
		return err
	}
	_, err := f.idx.Seek(valid, io.SeekStart)
	return err
}

var _ Store = (*File)(nil)

// Get implements Store: dirty cache first, then the data file.
func (f *File) Get(key Key) ([]byte, bool) {
	f.obsGets.Inc()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, false
	}
	f.gets++
	if b, ok := f.dirty[key]; ok {
		// Serve a copy: dirty buffers are pooled, and flushLocked may
		// recycle b the moment f.mu is released — the caller's view
		// must outlive that. Get is the node's cold path (first access
		// per slot), so the copy is off the steady-state write path.
		cp := bufpool.Get(f.blockSize)
		copy(cp, b)
		return cp, true
	}
	off, ok := f.offsets[key]
	if !ok {
		return nil, false
	}
	buf := bufpool.Get(f.blockSize)
	if _, err := f.data.ReadAt(buf, off); err != nil {
		bufpool.Put(buf)
		return nil, false
	}
	return buf, true
}

// Put implements Store: the block lands in the write-back cache and is
// flushed when the cache exceeds its limit (or immediately in
// write-through mode).
func (f *File) Put(key Key, block []byte) error {
	if len(block) != f.blockSize {
		return fmt.Errorf("blockstore: block has %d bytes, want %d", len(block), f.blockSize)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	f.puts++
	f.obsPuts.Inc()
	if old, ok := f.dirty[key]; ok {
		// Re-dirtying a hot block overwrites its buffer in place —
		// this is the write-back coalescing case, so it is also the
		// pool's best case: no traffic at all.
		copy(old, block)
	} else {
		cp := bufpool.Get(f.blockSize)
		copy(cp, block)
		f.dirty[key] = cp
	}
	if len(f.dirty) > f.dirtyLimit {
		return f.flushLocked()
	}
	return nil
}

// Keys implements Store.
func (f *File) Keys() []Key {
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := make(map[Key]bool, len(f.offsets)+len(f.dirty))
	out := make([]Key, 0, len(f.offsets)+len(f.dirty))
	for k := range f.offsets {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for k := range f.dirty {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Flush implements Store.
func (f *File) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errClosed
	}
	return f.flushLocked()
}

// flushLocked writes dirty blocks to the data file (allocating offsets
// and appending index records for new keys) in deterministic order.
func (f *File) flushLocked() error {
	if len(f.dirty) == 0 {
		return nil
	}
	f.flushes++
	f.obsFlushes.Inc()
	keys := make([]Key, 0, len(f.dirty))
	for k := range f.dirty {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Stripe != keys[j].Stripe {
			return keys[i].Stripe < keys[j].Stripe
		}
		return keys[i].Slot < keys[j].Slot
	})
	appended := false
	for _, key := range keys {
		block := f.dirty[key]
		off, known := f.offsets[key]
		if !known {
			off = f.next
			f.next += int64(f.blockSize)
		}
		if _, err := f.data.WriteAt(block, off); err != nil {
			return err
		}
		f.diskWrites++
		f.obsDiskWrites.Inc()
		if !known {
			var rec [idxRecordSize]byte
			binary.BigEndian.PutUint64(rec[0:8], key.Stripe)
			binary.BigEndian.PutUint32(rec[8:12], uint32(key.Slot))
			binary.BigEndian.PutUint64(rec[12:20], uint64(off))
			binary.BigEndian.PutUint32(rec[20:24], crc32.ChecksumIEEE(rec[:20]))
			if _, err := f.idx.Write(rec[:]); err != nil {
				return err
			}
			f.offsets[key] = off
			appended = true
		}
		delete(f.dirty, key)
		// On disk and out of the map: nothing references the dirty
		// copy any more (Get hands out copies, never the buffer).
		bufpool.Put(block)
	}
	if err := f.data.Sync(); err != nil {
		return err
	}
	if !appended {
		return nil // in-place overwrites only: the index is unchanged
	}
	return f.idx.Sync()
}

// Close implements Store: flush, mark clean, release.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	if err := f.flushLocked(); err != nil {
		return err
	}
	f.closed = true
	if err := f.data.Close(); err != nil {
		return err
	}
	if err := f.idx.Close(); err != nil {
		return err
	}
	marker, err := os.Create(filepath.Join(f.dir, "clean"))
	if err != nil {
		return err
	}
	return marker.Close()
}

// Stats reports puts accepted and blocks actually written to disk —
// the gap is the write-back coalescing win (Section 3.11).
func (f *File) Stats() (puts, diskWrites uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.puts, f.diskWrites
}

// DirtyCount reports buffered blocks awaiting flush.
func (f *File) DirtyCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.dirty)
}
