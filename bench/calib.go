package main

import (
	"sort"
	"time"
)

// Speed calibration. On a small shared VM the speed of the machine
// wanders by ±10 % over minutes, and every wall-clock or CPU-time
// number the benchmark takes wanders with it. Between measurement
// windows, with the load paused, every client goroutine times a fixed
// reference workload that belongs to the benchmark and runs no code of
// the repository; a window's slowdown is the mean of the reference
// times around it over the constant refNominal. Dividing times (and
// multiplying rates) by the slowdown reports what the window would
// have measured on a machine of nominal speed.
//
// The reference is user-space only, and mostly bound by the memory
// system: a dependent walk through a 4 MiB table (cache-miss latency),
// a dependent walk through a 256 KiB corner of it (L2), and 4 MiB
// memmoves (bandwidth). Probing showed that what slows the daemons
// down on this kind of box is a neighbour's pressure on the shared
// cache and memory, which a pure ALU loop barely feels, and that
// anything that enters the kernel (loopback ping-pong, channel
// hand-offs) is several times noisier than the load it is meant to
// calibrate, because each short slice sees one scheduler placement.
// It runs as refRounds short rounds and reports their median, so a
// round that was preempted does not count.

const (
	refTableLen = 1 << 20 // uint32 entries: 4 MiB
	refBigSteps = 120_000
	refL2Steps  = 600_000
	refL2Mask   = 1<<16 - 1 // 64 Ki entries: 256 KiB
	refMoves    = 3
	refRounds   = 9
)

// refNominal is the median round time that counts as slowdown 1.0. It
// is a unit, not a measurement: changing it rescales every calibrated
// metric, so it must not change once a baseline exists.
const refNominal = 10 * time.Millisecond

// ref is one goroutine's reference workload.
type ref struct {
	table  []uint32
	a, b   []byte
	rounds []time.Duration
	sink   uint32
}

func newRef() *ref {
	r := &ref{
		table:  make([]uint32, refTableLen),
		a:      make([]byte, 4*refTableLen),
		b:      make([]byte, 4*refTableLen),
		rounds: make([]time.Duration, refRounds),
	}
	// One cycle through the whole table (a full-period LCG), so the
	// walk cannot settle into a short cached loop.
	x := uint32(1)
	for i := 0; i < refTableLen; i++ {
		next := (x*1664525 + 1013904223) & (refTableLen - 1)
		r.table[x] = next
		x = next
	}
	for i := range r.a {
		r.a[i] = byte(i * 131)
	}
	return r
}

// run executes the reference workload and returns the median round time.
func (r *ref) run() time.Duration {
	x := r.sink & (refTableLen - 1)
	for k := range r.rounds {
		t0 := time.Now()
		for i := 0; i < refBigSteps; i++ {
			x = r.table[x]
		}
		y := x & refL2Mask
		for i := 0; i < refL2Steps; i++ {
			y = r.table[y] & refL2Mask
		}
		for i := 0; i < refMoves; i++ {
			r.a[y] = byte(x)
			copy(r.b, r.a)
			y = uint32(r.b[y])
		}
		x = (x + y) & (refTableLen - 1)
		r.rounds[k] = time.Since(t0)
	}
	r.sink = x
	sort.Slice(r.rounds, func(i, j int) bool { return r.rounds[i] < r.rounds[j] })
	return r.rounds[refRounds/2]
}
