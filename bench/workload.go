package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"

	"ecstore"
	"ecstore/internal/obs"
)

// Every workload runs the paper's 3-of-5 code over 5 storaged.
const (
	codeK = 3
	codeN = 5
)

// nClients is the number of closed-loop client goroutines, each with
// its own connection (its own Store over TCP, or its own HTTP
// keep-alive connection). Closed loop, because a block-store caller
// waits for its reply, and because near saturation an open loop turns
// the box's ±10 % speed wander into 1/(1-ρ) as much latency wander.
const nClients = 2

// workload is one traffic mix. Targets are block addresses or object
// key indices; the target t belongs to client t % nClients, which is
// its only writer.
type workload struct {
	name      string
	blockSize int
	gateway   bool // HTTP through gatewayd; else a Store over TCP

	targets  int     // working set: blocks, or object keys
	objSize  int     // bytes per object (gateway only)
	readFrac float64 // share of reads / GETs
	zipf     float64 // Zipf exponent of the target choice; 0 = uniform
	// ownOnly keeps a client's reads inside its own partition. Needed
	// where the client-side tier makes a Store its own coherence
	// domain: staged writes and cached blocks of one Store are not
	// visible to another until flushed, by design.
	ownOnly    bool
	cellWrites bool // writes are one 256-byte WriteAt, not a WriteBlock
	tier       bool
	cacheBytes int64

	// degraded adds a phase with one storaged killed to a traced run.
	degraded bool

	warmOps int // discarded ops per client that end set-up
	// traceOps is the fixed op count of a traced run.
	traceOps int
}

var workloads = []workload{
	{
		// The paper's Fig. 9 load: uniform 4 KiB ReadBlock/WriteBlock,
		// half and half, tier and cache off. The per-op protocol, rpc,
		// storage and blockstore do all the work; gateway, smallwrite,
		// readcache and erasure almost none.
		name:      "blk_rand_rw",
		blockSize: 4096, targets: 16384, readFrac: 0.5, degraded: true,
		warmOps: 2500, traceOps: 6000,
	},
	{
		// Byte-dominated: 1 MiB PUT-overwrite/GET over HTTP through
		// gatewayd on 16 KiB blocks. Gateway streaming and manifest flip,
		// the bulk window, full-stripe encode, vectored writev and the
		// sequential blockstore flush; per-op RPC overhead is small.
		name:      "obj_large_rw",
		blockSize: 16384, gateway: true, targets: 64, objSize: 1 << 20, readFrac: 0.5,
		warmOps: 48, traceOps: 400,
	},
	{
		// The tier both ways at once: 70 % Zipf(0.99) ReadBlock beside
		// 30 % 256-byte WriteAt, small-write tier on, cache 1/8 of the
		// data (the Zipf head fits, the tail does not). Cache hits beside
		// staged writes and several segment-full flushes a second, so a
		// gain for one that costs the other shows.
		name:      "blk_small_hot",
		blockSize: 4096, targets: 16384, readFrac: 0.7, zipf: 0.99,
		ownOnly: true, cellWrites: true, tier: true, cacheBytes: 4 << 20,
		warmOps: 3000, traceOps: 36000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) cells() int {
	if w.gateway {
		return 1
	}
	return w.blockSize / cellSize
}

// userBytes is the payload size of one op of the given kind.
func (w workload) userBytes(write bool) int {
	switch {
	case w.gateway:
		return w.objSize
	case write && w.cellWrites:
		return cellSize
	default:
		return w.blockSize
	}
}

// liveBytes is the payload the working set holds.
func (w workload) liveBytes() int64 {
	if w.gateway {
		return int64(w.targets) * int64(w.objSize)
	}
	return int64(w.targets) * int64(w.blockSize)
}

// --- op stream ---------------------------------------------------------------

type op struct {
	write  bool
	target int
	cell   int // cellWrites only
}

// opGen is one client's seeded op stream. The programs under test see
// only the ops; the seed never reaches them.
type opGen struct {
	w    workload
	id   int
	rng  *rand.Rand
	cdf  []float64 // Zipf CDF over ranks (nil = uniform)
	perm []int32   // rank -> index, so hot targets are scattered
}

func newOpGen(w workload, seed uint64, id int) *opGen {
	g := &opGen{w: w, id: id, rng: rand.New(rand.NewPCG(seed, uint64(id)+0x5eed))}
	if w.zipf > 0 {
		n := w.targets / nClients
		g.cdf = make([]float64, n)
		var sum float64
		for r := 0; r < n; r++ {
			sum += 1 / math.Pow(float64(r+1), w.zipf)
			g.cdf[r] = sum
		}
		for r := range g.cdf {
			g.cdf[r] /= sum
		}
		// The rank order is part of the workload, not of the run: it
		// comes from the seed alone.
		pr := rand.New(rand.NewPCG(seed, 0x9e3779b9))
		g.perm = make([]int32, n)
		for i := range g.perm {
			g.perm[i] = int32(i)
		}
		pr.Shuffle(n, func(i, j int) { g.perm[i], g.perm[j] = g.perm[j], g.perm[i] })
	}
	return g
}

// own picks a target of this client's partition.
func (g *opGen) own() int {
	n := g.w.targets / nClients
	var i int
	if g.cdf != nil {
		i = int(g.perm[sort.SearchFloat64s(g.cdf, g.rng.Float64())])
	} else {
		i = g.rng.IntN(n)
	}
	return i*nClients + g.id
}

func (g *opGen) next() op {
	if g.rng.Float64() < g.w.readFrac {
		if g.w.ownOnly {
			return op{target: g.own()}
		}
		return op{target: g.rng.IntN(g.w.targets)}
	}
	o := op{write: true, target: g.own()}
	if g.w.cellWrites {
		o.cell = g.rng.IntN(g.w.cells())
	}
	return o
}

// --- drivers -----------------------------------------------------------------

// driver performs and verifies ops for one client goroutine.
type driver interface {
	// preload writes version 1 of targets [lo, hi).
	preload(ctx context.Context, lo, hi int) error
	do(ctx context.Context, o op) error
	close() error
}

// blockStore is the slice of ecstore.Store a block driver uses; the
// traced assembly and the unit tests substitute their own.
type blockStore interface {
	ReadBlock(ctx context.Context, addr uint64) ([]byte, error)
	WriteBlock(ctx context.Context, addr uint64, data []byte) error
	WriteAt(ctx context.Context, p []byte, off int64) (int, error)
	Close() error
}

// blkDriver drives a block store.
type blkDriver struct {
	w     workload
	store blockStore
	nz    noise
	vers  *versions
	buf   []byte
	floor []uint32
	next  []uint32
}

func newBlkDriver(w workload, store blockStore, nz noise, vers *versions) *blkDriver {
	return &blkDriver{
		w: w, store: store, nz: nz, vers: vers,
		buf:   make([]byte, w.blockSize),
		floor: make([]uint32, w.cells()),
		next:  make([]uint32, w.cells()),
	}
}

// storeOptions are the facade options every block client (and the
// gateway's own client, through its flags) runs with.
func storeOptions(w workload, id int, reg *obs.Registry) ecstore.Options {
	return ecstore.Options{
		K: codeK, N: codeN, BlockSize: w.blockSize,
		ClientID:       uint32(id + 1),
		SmallWriteTier: w.tier,
		CacheBytes:     w.cacheBytes,
		Obs:            reg,
	}
}

func (d *blkDriver) preload(ctx context.Context, lo, hi int) error {
	// 768 blocks per span: a multiple of k, so every span but the last
	// takes the full-stripe path.
	const span = 768
	cells := d.w.cells()
	buf := make([]byte, span*d.w.blockSize)
	for a := lo; a < hi; a += span {
		n := min(span, hi-a)
		for b := 0; b < n; b++ {
			for c := 0; c < cells; c++ {
				putCell(buf[(b*cells+c)*cellSize:], d.nz, uint64(a+b), c, 1)
			}
		}
		if _, err := d.store.WriteAt(ctx, buf[:n*d.w.blockSize], int64(a)*int64(d.w.blockSize)); err != nil {
			return fmt.Errorf("preload blocks [%d,%d): %w", a, a+n, err)
		}
	}
	for i := lo * cells; i < hi*cells; i++ {
		d.vers.started[i].Store(1)
		d.vers.acked[i].Store(1)
	}
	return nil
}

func (d *blkDriver) do(ctx context.Context, o op) error {
	cells := d.w.cells()
	base := o.target * cells
	addr := uint64(o.target)
	switch {
	case !o.write:
		d.vers.floors(d.floor, base)
		blk, err := d.store.ReadBlock(ctx, addr)
		if err != nil {
			return err
		}
		return checkBlock(blk, addr, d.floor, d.vers, base)
	case d.w.cellWrites:
		ver := d.vers.begin(base + o.cell)
		cell := d.buf[:cellSize]
		putCell(cell, d.nz, addr, o.cell, ver)
		if _, err := d.store.WriteAt(ctx, cell, int64(o.target)*int64(d.w.blockSize)+int64(o.cell*cellSize)); err != nil {
			return err
		}
		d.vers.ack(base+o.cell, ver)
		return nil
	default:
		for c := 0; c < cells; c++ {
			d.next[c] = d.vers.begin(base + c)
			putCell(d.buf[c*cellSize:], d.nz, addr, c, d.next[c])
		}
		if err := d.store.WriteBlock(ctx, addr, d.buf); err != nil {
			return err
		}
		for c := 0; c < cells; c++ {
			d.vers.ack(base+c, d.next[c])
		}
		return nil
	}
}

func (d *blkDriver) close() error { return d.store.Close() }

// objStore is what an object driver needs: the HTTP client of the real
// run, or the in-process gateway of the traced one.
type objStore interface {
	put(ctx context.Context, key int, body []byte) error
	// get reads the object into buf (len = expected size) and returns
	// the bytes received.
	get(ctx context.Context, key int, buf []byte) (int, error)
	close() error
}

type objDriver struct {
	w     workload
	store objStore
	nz    noise
	vers  *versions
	out   []byte
	in    []byte
}

func newObjDriver(w workload, store objStore, nz noise, vers *versions) *objDriver {
	return &objDriver{w: w, store: store, nz: nz, vers: vers,
		out: make([]byte, w.objSize), in: make([]byte, w.objSize+1)}
}

func (d *objDriver) write(ctx context.Context, key int) error {
	ver := d.vers.begin(key)
	putObject(d.out, d.nz, key, ver)
	if err := d.store.put(ctx, key, d.out); err != nil {
		return err
	}
	d.vers.ack(key, ver)
	return nil
}

func (d *objDriver) preload(ctx context.Context, lo, hi int) error {
	for k := lo; k < hi; k++ {
		if err := d.write(ctx, k); err != nil {
			return fmt.Errorf("preload object %d: %w", k, err)
		}
	}
	return nil
}

func (d *objDriver) do(ctx context.Context, o op) error {
	if o.write {
		return d.write(ctx, o.target)
	}
	floor := d.vers.acked[o.target].Load()
	// One spare byte, so an over-long body is seen as such.
	n, err := d.store.get(ctx, o.target, d.in)
	if err != nil {
		return err
	}
	return checkObject(d.in[:n], o.target, d.w.objSize, floor, d.vers)
}

func (d *objDriver) close() error { return d.store.close() }

// httpObjects is one keep-alive connection to gatewayd.
type httpObjects struct {
	base string
	hc   *http.Client
}

func newHTTPObjects(addr string) *httpObjects {
	return &httpObjects{
		base: "http://" + addr + "/o/",
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
	}
}

func objKey(key int) string { return fmt.Sprintf("k%04d", key) }

func (h *httpObjects) put(ctx context.Context, key int, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, h.base+objKey(key), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", "bench")
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: status %d", objKey(key), resp.StatusCode)
	}
	return nil
}

func (h *httpObjects) get(ctx context.Context, key int, buf []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+objKey(key), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Tenant", "bench")
	resp, err := h.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("GET %s: status %d", objKey(key), resp.StatusCode)
	}
	n, err := io.ReadFull(resp.Body, buf)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil
	}
	return n, err
}

func (h *httpObjects) close() error {
	h.hc.CloseIdleConnections()
	return nil
}
