package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"ecstore"
	"ecstore/internal/obs"
)

// env is where the benchmark finds its binaries and keeps its files.
type env struct {
	binDir  string // holds storaged and gatewayd
	workDir string // scratch; everything under it is removed again
}

// deployment is a system that has been set up and is ready for load:
// the daemons, one driver and one op stream per client goroutine.
type deployment struct {
	w       workload
	cl      *cluster
	reg     *obs.Registry // the block clients' own registry (nil for gateway workloads)
	drivers []driver
	gens    []*opGen
	refs    []*ref
}

// parallel runs fn once per client goroutine and waits for all.
func parallel(fn func(i int) error) error {
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setUp is everything a user waits for before the first useful op:
// spawn the daemons, wait until they listen, connect, preload the
// working set, and run the warm-up ops (a fixed count, so that slower
// code shows as a longer set-up). gens carries the op streams on from
// an earlier instance of the same run; nil starts them from the seed.
func setUp(ctx context.Context, e env, w workload, seed uint64, refs []*ref, gens []*opGen) (*deployment, error) {
	cl, err := startCluster(e.binDir, e.workDir, codeK, codeN, w.blockSize, w.gateway)
	if err != nil {
		return nil, err
	}
	d := &deployment{w: w, cl: cl, refs: refs, gens: gens}
	nz := newNoise(seed, 4<<20+cellSize)
	vers := newVersions(w.targets * w.cells())
	for i := 0; i < nClients; i++ {
		if gens == nil {
			d.gens = append(d.gens, newOpGen(w, seed, i))
		}
		if w.gateway {
			d.drivers = append(d.drivers, newObjDriver(w, newHTTPObjects(cl.gw.addr), nz, vers))
			continue
		}
		if d.reg == nil {
			d.reg = obs.NewRegistry()
		}
		store, err := ecstore.Connect(storeOptions(w, i, d.reg), cl.nodeAddrs())
		if err != nil {
			d.tearDown()
			return nil, fmt.Errorf("connect client %d: %w", i, err)
		}
		d.drivers = append(d.drivers, newBlkDriver(w, store, nz, vers))
	}
	err = parallel(func(i int) error {
		if w.gateway {
			// Objects are PUT by their owner.
			for k := i; k < w.targets; k += nClients {
				if err := d.drivers[i].preload(ctx, k, k+1); err != nil {
					return err
				}
			}
			return nil
		}
		// Contiguous halves load fastest (full stripes); who owns a
		// block only matters once the measured writes start.
		return d.drivers[i].preload(ctx, i*w.targets/nClients, (i+1)*w.targets/nClients)
	})
	if err == nil {
		err = parallel(func(i int) error {
			for n := 0; n < w.warmOps; n++ {
				if err := d.drivers[i].do(ctx, d.gens[i].next()); err != nil {
					return fmt.Errorf("warm-up op %d: %w", n, err)
				}
			}
			return nil
		})
	}
	if err != nil {
		logs := cl.logs()
		d.tearDown()
		return nil, fmt.Errorf("%w\n%s", err, logs)
	}
	return d, nil
}

// tearDown closes the clients, kills the daemons and removes their
// directories.
func (d *deployment) tearDown() {
	for _, drv := range d.drivers {
		_ = drv.close()
	}
	d.drivers = nil
	d.cl.destroy()
}

// finish shuts the daemons down cleanly, so that every write-back
// cache is on disk, and returns the size of the data dirs.
func (d *deployment) finish() (int64, error) {
	for _, drv := range d.drivers {
		_ = drv.close()
	}
	d.drivers = nil
	d.cl.stop()
	n, err := d.cl.diskBytes()
	d.cl.destroy()
	return n, err
}

// clientSnapshot reads the counters of the client-side stack: the
// bench's own registry, or gatewayd's, which holds the same layers.
func (d *deployment) clientSnapshot() (snapshot, error) {
	if d.w.gateway {
		return scrape(d.cl.gw.metrics)
	}
	return parseSnapshot([]byte(d.reg.String()))
}

// calibrate times the reference workload on every client goroutine at
// once (the way the load runs) and returns the mean.
func calibrate(refs []*ref) time.Duration {
	var t [nClients]time.Duration
	_ = parallel(func(i int) error {
		t[i] = refs[i].run()
		return nil
	})
	var sum time.Duration
	for _, x := range t {
		sum += x
	}
	return sum / nClients
}

// slowdownOf is how much slower than nominal the machine ran between
// two calibration slices.
func slowdownOf(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refNominal)
}

// --- windows -----------------------------------------------------------------

// window is what one measurement window recorded, raw.
type window struct {
	rate      float64            // verified ops/s, summed over the clients
	lat       [2][]time.Duration // by op class: 0 read, 1 write
	bytes     [2]int64           // payload bytes of the verified ops
	attempted int
	cpu       procGroup // deltas over the window
	slowdown  float64
}

func (w *window) ops() int { return len(w.lat[0]) + len(w.lat[1]) }

// measured is the raw outcome of measured windows, of one deployment
// or (merged) of all deployments of a run.
type measured struct {
	windows   []window
	nodes     snapshot // storaged counters accumulated over the windows
	client    snapshot // client-stack counters accumulated over the windows
	allocB    float64  // bench heap bytes allocated over the windows
	mallocs   float64
	procEnd   procGroup // RSS at the end of the (last) deployment
	hwmMB     float64   // largest sum of VmHWM any deployment reached
	attempted int
	failed    int
}

// merge appends the outcome of a later deployment of the same run.
func (m *measured) merge(o *measured) {
	m.windows = append(m.windows, o.windows...)
	m.nodes = sumSnapshots(m.nodes, o.nodes)
	m.client = sumSnapshots(m.client, o.client)
	m.allocB += o.allocB
	m.mallocs += o.mallocs
	m.procEnd = o.procEnd
	m.hwmMB = max(m.hwmMB, o.hwmMB)
	m.attempted += o.attempted
	m.failed += o.failed
}

// run drives nWin closed-loop windows of winDur each, with a
// calibration slice before, between and after them. Counters are read
// before the first window and after the last.
func (d *deployment) run(ctx context.Context, nWin int, winDur time.Duration) (*measured, error) {
	m := &measured{windows: make([]window, nWin)}
	var fails struct {
		sync.Mutex
		msgs []string
	}
	cal := calibrate(d.refs)
	nodes0, err := d.cl.scrapeNodes()
	if err != nil {
		return nil, err
	}
	client0, err := d.clientSnapshot()
	if err != nil {
		return nil, err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	for wi := range m.windows {
		w := &m.windows[wi]
		p0, err := d.cl.readProcs()
		if err != nil {
			return nil, err
		}
		type part struct {
			lat     [2][]time.Duration
			bytes   [2]int64
			tried   int
			elapsed time.Duration
		}
		var parts [nClients]part
		_ = parallel(func(i int) error {
			p := &parts[i]
			start := time.Now()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= winDur || ctx.Err() != nil {
					break
				}
				o := d.gens[i].next()
				p.tried++
				if err := d.drivers[i].do(ctx, o); err != nil {
					fails.Lock()
					if len(fails.msgs) < 3 {
						fails.msgs = append(fails.msgs, err.Error())
					}
					fails.Unlock()
					continue
				}
				c := 0
				if o.write {
					c = 1
				}
				p.lat[c] = append(p.lat[c], time.Since(t0))
				p.bytes[c] += int64(d.w.userBytes(o.write))
			}
			p.elapsed = time.Since(start)
			return nil
		})
		p1, err := d.cl.readProcs()
		if err != nil {
			return nil, err
		}
		w.cpu = procGroup{subStat(p1.self, p0.self), subStat(p1.gateway, p0.gateway), subStat(p1.storage, p0.storage)}
		for i := range parts {
			p := &parts[i]
			for c := 0; c < 2; c++ {
				w.lat[c] = append(w.lat[c], p.lat[c]...)
				w.bytes[c] += p.bytes[c]
			}
			w.attempted += p.tried
			if p.elapsed > 0 {
				w.rate += float64(len(p.lat[0])+len(p.lat[1])) / p.elapsed.Seconds()
			}
		}
		m.attempted += w.attempted
		m.failed += w.attempted - w.ops()
		if wi == nWin-1 {
			// Counters first: the closing calibration slice must not
			// leak its own allocations into them.
			runtime.ReadMemStats(&mem1)
			nodes1, err := d.cl.scrapeNodes()
			if err != nil {
				return nil, err
			}
			client1, err := d.clientSnapshot()
			if err != nil {
				return nil, err
			}
			m.nodes, m.client = nodes1.since(nodes0), client1.since(client0)
		}
		after := calibrate(d.refs)
		w.slowdown = slowdownOf(cal, after)
		debugf("window %d: %.0f ops/s raw, ref %v, slowdown %.3f, p50 read %.3f write %.3f ms raw",
			wi, w.rate, after, w.slowdown, durQuantileMs(w.lat[0], 0.5), durQuantileMs(w.lat[1], 0.5))
		cal = after
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	m.allocB = float64(mem1.TotalAlloc - mem0.TotalAlloc)
	m.mallocs = float64(mem1.Mallocs - mem0.Mallocs)
	if m.procEnd, err = d.cl.readProcs(); err != nil {
		return nil, err
	}
	m.hwmMB = m.procEnd.total().hwmMB
	if m.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d ops failed; first: %v\n", m.failed, m.attempted, fails.msgs)
	}
	return m, nil
}

// --- statistics --------------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func durQuantileMs(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return quantile(xs, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cv is the coefficient of variation.
func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}
