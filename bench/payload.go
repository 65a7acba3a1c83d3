package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Every byte the benchmark stores is self-describing, so a read can be
// checked without a shadow copy: a block is a row of 256-byte cells and
// an object is one long cell, each carrying who it is (block address +
// cell index, or object key), which version it is, and a CRC over a
// body cut from a seeded noise table. A misdirected, stale, torn or
// bit-flipped reply fails one of those four checks.

const (
	cellSize   = 256
	cellHeader = 24
	cellMagic  = 0x45434231 // "ECB1"
	objMagic   = 0x45434f31 // "ECO1"
	objHeader  = 32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// noise is the seeded body source. Bodies are slices of it at an
// offset mixed from (id, version), which costs one memmove per payload
// instead of a PRNG pass over every byte.
type noise []byte

func newNoise(seed uint64, size int) noise {
	n := make(noise, size)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := 0; i+8 <= len(n); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(n[i:], x)
	}
	return n
}

func mix(a, b uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// fill copies len(dst) noise bytes starting at a mixed offset,
// wrapping around the table.
func (n noise) fill(dst []byte, id, version uint64) {
	off := int(mix(id, version) % uint64(len(n)))
	for len(dst) > 0 {
		c := copy(dst, n[off:])
		dst = dst[c:]
		off = 0
	}
}

// versions is the checker's memory: per cell (or object), the newest
// version whose write was acknowledged and the newest whose write was
// started. Each cell has one owner (one writing goroutine), so both
// only grow. A reader loads acked before it issues the read and
// started after the reply: regular-register semantics allow exactly
// the versions in between.
type versions struct {
	acked   []atomic.Uint32
	started []atomic.Uint32
}

func newVersions(n int) *versions {
	return &versions{acked: make([]atomic.Uint32, n), started: make([]atomic.Uint32, n)}
}

// begin reserves the next version of cell i for its owner.
func (v *versions) begin(i int) uint32 {
	return v.started[i].Add(1)
}

// ack records that version ver of cell i was acknowledged.
func (v *versions) ack(i int, ver uint32) { v.acked[i].Store(ver) }

// floors snapshots the acknowledged versions of cells [i, i+n) into dst.
func (v *versions) floors(dst []uint32, i int) {
	for j := range dst {
		dst[j] = v.acked[i+j].Load()
	}
}

// putCell writes one self-describing cell into dst (len cellSize).
func putCell(dst []byte, nz noise, addr uint64, cell int, ver uint32) {
	binary.BigEndian.PutUint32(dst[0:], cellMagic)
	binary.BigEndian.PutUint64(dst[4:], addr)
	binary.BigEndian.PutUint16(dst[12:], uint16(cell))
	binary.BigEndian.PutUint16(dst[14:], 0)
	binary.BigEndian.PutUint32(dst[16:], ver)
	nz.fill(dst[cellHeader:cellSize], addr<<8|uint64(cell), uint64(ver))
	binary.BigEndian.PutUint32(dst[20:], cellCRC(dst))
}

func cellCRC(c []byte) uint32 {
	return crc32.Update(crc32.Checksum(c[:20], castagnoli), castagnoli, c[cellHeader:cellSize])
}

// checkBlock verifies a block read of addr: every cell must be intact,
// be the cell it claims to be, and carry a version within
// [floor[cell], ceil(cell)]. ceil is read after the reply arrived.
func checkBlock(blk []byte, addr uint64, floor []uint32, vers *versions, base int) error {
	if len(blk) != len(floor)*cellSize {
		return fmt.Errorf("block %d: %d bytes, want %d", addr, len(blk), len(floor)*cellSize)
	}
	for c := range floor {
		cell := blk[c*cellSize : (c+1)*cellSize]
		if m := binary.BigEndian.Uint32(cell[0:]); m != cellMagic {
			return fmt.Errorf("block %d cell %d: bad magic %#x", addr, c, m)
		}
		if a := binary.BigEndian.Uint64(cell[4:]); a != addr {
			return fmt.Errorf("block %d cell %d: holds block %d", addr, c, a)
		}
		if i := int(binary.BigEndian.Uint16(cell[12:])); i != c {
			return fmt.Errorf("block %d cell %d: holds cell %d", addr, c, i)
		}
		if got, want := binary.BigEndian.Uint32(cell[20:]), cellCRC(cell); got != want {
			return fmt.Errorf("block %d cell %d: crc %#x, want %#x", addr, c, got, want)
		}
		ver := binary.BigEndian.Uint32(cell[16:])
		if hi := vers.started[base+c].Load(); ver < floor[c] || ver > hi {
			return fmt.Errorf("block %d cell %d: version %d outside [%d,%d]", addr, c, ver, floor[c], hi)
		}
	}
	return nil
}

// putObject writes a self-describing object body into dst.
func putObject(dst []byte, nz noise, key int, ver uint32) {
	binary.BigEndian.PutUint32(dst[0:], objMagic)
	binary.BigEndian.PutUint32(dst[4:], uint32(key))
	binary.BigEndian.PutUint32(dst[8:], ver)
	binary.BigEndian.PutUint64(dst[12:], uint64(len(dst)))
	clear(dst[20:objHeader])
	nz.fill(dst[objHeader:], uint64(key)|1<<40, uint64(ver))
	binary.BigEndian.PutUint32(dst[20:], objCRC(dst))
}

func objCRC(o []byte) uint32 {
	return crc32.Update(crc32.Checksum(o[:20], castagnoli), castagnoli, o[objHeader:])
}

// checkObject verifies a GET of key: right object, whole, intact, and
// a version within [floor, started].
func checkObject(body []byte, key, size int, floor uint32, vers *versions) error {
	if len(body) != size {
		return fmt.Errorf("object %d: %d bytes, want %d", key, len(body), size)
	}
	if m := binary.BigEndian.Uint32(body[0:]); m != objMagic {
		return fmt.Errorf("object %d: bad magic %#x", key, m)
	}
	if k := int(binary.BigEndian.Uint32(body[4:])); k != key {
		return fmt.Errorf("object %d: holds object %d", key, k)
	}
	if n := binary.BigEndian.Uint64(body[12:]); n != uint64(size) {
		return fmt.Errorf("object %d: header says %d bytes, want %d", key, n, size)
	}
	if got, want := binary.BigEndian.Uint32(body[20:]), objCRC(body); got != want {
		return fmt.Errorf("object %d: crc %#x, want %#x", key, got, want)
	}
	ver := binary.BigEndian.Uint32(body[8:])
	if hi := vers.started[key].Load(); ver < floor || ver > hi {
		return fmt.Errorf("object %d: version %d outside [%d,%d]", key, ver, floor, hi)
	}
	return nil
}
