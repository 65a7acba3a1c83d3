package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ecstore"
	"ecstore/internal/blockstore"
	"ecstore/internal/bulk"
	"ecstore/internal/core"
	"ecstore/internal/erasure"
	"ecstore/internal/gateway"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
	"ecstore/internal/proto"
	"ecstore/internal/rpc"
	"ecstore/internal/storage"
	"ecstore/internal/tier"
	"ecstore/internal/transport"
	"ecstore/internal/volume"
)

// The traced run assembles the same stack inside the bench process,
// from the public constructors the daemons use, over loopback TCP and
// blockstore.File, with a span recorder slipped in at each of the five
// seams the code already has. A layer is named after what a seam leads
// into:
//
//	gateway     gateway.Put / gateway.Get                 (object workloads only)
//	tier        gateway.Backend, or the driver's calls     tier.Layer + bulk + smallwrite + readcache
//	core        tier.Stamped                               volume + core + erasure
//	rpc         proto.StorageNode handed out by OpenShard  rpc.Client + wire + TCP + rpc.Server
//	storage     proto.StorageNode handed to rpc.Serve      storage.Node
//	blockstore  storage.Options.Store                      blockstore.File
//
// One client goroutine runs a fixed number of ops, so every count
// repeats exactly. The untraced twin of the assembly (no recorders at
// all) runs the same ops and gives the tracing overhead.

const (
	layerGateway = iota
	layerTier
	layerCore
	layerRPC
	layerStorage
	layerBlockstore
	nLayers
)

var layerNames = [nLayers]string{"gateway", "tier", "core", "rpc", "storage", "blockstore"}

// span is one call through a seam. Parent is the index of the
// enclosing span one layer up, resolved when the run is analysed (-1:
// the op itself, or work outside any op).
type span struct {
	Layer  uint8
	Name   string
	Op     uint32
	Start  int64 // ns since the tracer's epoch
	End    int64
	Parent int32
}

// tracer keeps spans in memory until the run is over.
type tracer struct {
	epoch time.Time
	op    atomic.Uint32 // the op in flight: one client, closed loop
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)} }

// now and record do nothing on a nil tracer, for the one recorder (the
// gateway driver) that exists in the untraced twin too.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) record(layer uint8, name string, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	op := t.op.Load()
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Op: op, Start: start, End: end, Parent: -1})
	t.mu.Unlock()
}

// --- seam: proto.StorageNode (client and server side) -------------------------

// tracedNode records every call through a proto.StorageNode. It always
// offers the two optional capabilities and forwards them through the
// proto helpers, which fall back exactly as the callers would if the
// wrapped node lacked them.
type tracedNode struct {
	n     proto.StorageNode
	t     *tracer
	layer uint8
}

func spanCall[Req, Rep any](w *tracedNode, name string, f func(context.Context, Req) (Rep, error), ctx context.Context, req Req) (Rep, error) {
	start := w.t.now()
	rep, err := f(ctx, req)
	w.t.record(w.layer, name, start)
	return rep, err
}

func (w *tracedNode) Read(ctx context.Context, r *proto.ReadReq) (*proto.ReadReply, error) {
	return spanCall(w, "read", w.n.Read, ctx, r)
}
func (w *tracedNode) Swap(ctx context.Context, r *proto.SwapReq) (*proto.SwapReply, error) {
	return spanCall(w, "swap", w.n.Swap, ctx, r)
}
func (w *tracedNode) Add(ctx context.Context, r *proto.AddReq) (*proto.AddReply, error) {
	return spanCall(w, "add", w.n.Add, ctx, r)
}
func (w *tracedNode) BatchAdd(ctx context.Context, r *proto.BatchAddReq) (*proto.BatchAddReply, error) {
	return spanCall(w, "batch_add", w.n.BatchAdd, ctx, r)
}
func (w *tracedNode) CheckTID(ctx context.Context, r *proto.CheckTIDReq) (*proto.CheckTIDReply, error) {
	return spanCall(w, "checktid", w.n.CheckTID, ctx, r)
}
func (w *tracedNode) TryLock(ctx context.Context, r *proto.TryLockReq) (*proto.TryLockReply, error) {
	return spanCall(w, "trylock", w.n.TryLock, ctx, r)
}
func (w *tracedNode) SetLock(ctx context.Context, r *proto.SetLockReq) (*proto.SetLockReply, error) {
	return spanCall(w, "setlock", w.n.SetLock, ctx, r)
}
func (w *tracedNode) GetState(ctx context.Context, r *proto.GetStateReq) (*proto.GetStateReply, error) {
	return spanCall(w, "get_state", w.n.GetState, ctx, r)
}
func (w *tracedNode) GetRecent(ctx context.Context, r *proto.GetRecentReq) (*proto.GetRecentReply, error) {
	return spanCall(w, "get_recent", w.n.GetRecent, ctx, r)
}
func (w *tracedNode) Reconstruct(ctx context.Context, r *proto.ReconstructReq) (*proto.ReconstructReply, error) {
	return spanCall(w, "reconstruct", w.n.Reconstruct, ctx, r)
}
func (w *tracedNode) Finalize(ctx context.Context, r *proto.FinalizeReq) (*proto.FinalizeReply, error) {
	return spanCall(w, "finalize", w.n.Finalize, ctx, r)
}
func (w *tracedNode) GCOld(ctx context.Context, r *proto.GCOldReq) (*proto.GCReply, error) {
	return spanCall(w, "gc_old", w.n.GCOld, ctx, r)
}
func (w *tracedNode) GCRecent(ctx context.Context, r *proto.GCRecentReq) (*proto.GCReply, error) {
	return spanCall(w, "gc_recent", w.n.GCRecent, ctx, r)
}
func (w *tracedNode) Probe(ctx context.Context, r *proto.ProbeReq) (*proto.ProbeReply, error) {
	return spanCall(w, "probe", w.n.Probe, ctx, r)
}
func (w *tracedNode) BatchAddMulti(ctx context.Context, r *proto.BatchAddMultiReq) (*proto.BatchAddMultiReply, error) {
	return spanCall(w, "batch_add_multi", func(ctx context.Context, r *proto.BatchAddMultiReq) (*proto.BatchAddMultiReply, error) {
		return proto.BatchAddMulti(ctx, w.n, r)
	}, ctx, r)
}
func (w *tracedNode) PartialSum(ctx context.Context, r *proto.PartialSumReq) (*proto.PartialSumReply, error) {
	return spanCall(w, "partial_sum", func(ctx context.Context, r *proto.PartialSumReq) (*proto.PartialSumReply, error) {
		return proto.PartialSum(ctx, w.n, r)
	}, ctx, r)
}

var (
	_ proto.StorageNode   = (*tracedNode)(nil)
	_ proto.MultiBatcher  = (*tracedNode)(nil)
	_ proto.PartialSummer = (*tracedNode)(nil)
)

// --- seam: storage.Options.Store -----------------------------------------------

type tracedStore struct {
	s blockstore.Store
	t *tracer
}

func (w *tracedStore) Get(key blockstore.Key) ([]byte, bool) {
	start := w.t.now()
	b, ok := w.s.Get(key)
	w.t.record(layerBlockstore, "get", start)
	return b, ok
}

func (w *tracedStore) Put(key blockstore.Key, block []byte) error {
	start := w.t.now()
	err := w.s.Put(key, block)
	w.t.record(layerBlockstore, "put", start)
	return err
}

func (w *tracedStore) Keys() []blockstore.Key { return w.s.Keys() }

func (w *tracedStore) Flush() error {
	start := w.t.now()
	err := w.s.Flush()
	w.t.record(layerBlockstore, "flush", start)
	return err
}

func (w *tracedStore) Close() error { return w.s.Close() }

// --- seam: tier.Stamped --------------------------------------------------------

type tracedStamped struct {
	b tier.Stamped
	t *tracer
}

func (w *tracedStamped) BlockSize() int      { return w.b.BlockSize() }
func (w *tracedStamped) StripeK() int        { return w.b.StripeK() }
func (w *tracedStamped) GroupBlocks() uint64 { return w.b.GroupBlocks() }
func (w *tracedStamped) Capacity() uint64    { return w.b.Capacity() }

func (w *tracedStamped) ReadBlock(ctx context.Context, addr uint64) ([]byte, error) {
	start := w.t.now()
	b, err := w.b.ReadBlock(ctx, addr)
	w.t.record(layerCore, "read_block", start)
	return b, err
}

func (w *tracedStamped) WriteBlock(ctx context.Context, addr uint64, data []byte) error {
	start := w.t.now()
	err := w.b.WriteBlock(ctx, addr, data)
	w.t.record(layerCore, "write_block", start)
	return err
}

func (w *tracedStamped) WriteStripes(ctx context.Context, writes []bulk.StripeWrite) ([]error, bulk.WriteStats) {
	start := w.t.now()
	errs, st := w.b.WriteStripes(ctx, writes)
	w.t.record(layerCore, "write_stripes", start)
	return errs, st
}

func (w *tracedStamped) ReadBlockStamped(ctx context.Context, addr uint64) ([]byte, core.ReadStamp, error) {
	start := w.t.now()
	b, st, err := w.b.ReadBlockStamped(ctx, addr)
	w.t.record(layerCore, "read_block", start)
	return b, st, err
}

func (w *tracedStamped) WriteBlockStamped(ctx context.Context, addr uint64, data []byte) (proto.TID, proto.TID, error) {
	start := w.t.now()
	n, o, err := w.b.WriteBlockStamped(ctx, addr, data)
	w.t.record(layerCore, "write_block", start)
	return n, o, err
}

// --- seam: gateway.Backend, and the block driver's own calls -------------------

// tierFace is tier.Layer as its two kinds of caller see it.
type tierFace interface {
	gateway.Backend
	blockStore
}

type tracedTier struct {
	l tierFace
	t *tracer
}

func (w *tracedTier) BlockSize() int   { return w.l.BlockSize() }
func (w *tracedTier) Capacity() uint64 { return w.l.Capacity() }
func (w *tracedTier) Close() error     { return w.l.Close() }

func (w *tracedTier) ReadBlock(ctx context.Context, addr uint64) ([]byte, error) {
	start := w.t.now()
	b, err := w.l.ReadBlock(ctx, addr)
	w.t.record(layerTier, "read_block", start)
	return b, err
}

func (w *tracedTier) WriteBlock(ctx context.Context, addr uint64, data []byte) error {
	start := w.t.now()
	err := w.l.WriteBlock(ctx, addr, data)
	w.t.record(layerTier, "write_block", start)
	return err
}

func (w *tracedTier) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	start := w.t.now()
	n, err := w.l.ReadAt(ctx, p, off)
	w.t.record(layerTier, "read_at", start)
	return n, err
}

func (w *tracedTier) WriteAt(ctx context.Context, p []byte, off int64) (int, error) {
	start := w.t.now()
	n, err := w.l.WriteAt(ctx, p, off)
	w.t.record(layerTier, "write_at", start)
	return n, err
}

// Reader hands out the layer's streaming reader with every Read call
// recorded: that is where a GET spends its time below the gateway.
func (w *tracedTier) Reader(ctx context.Context, off, nBytes int64) io.Reader {
	return &tracedReader{r: w.l.Reader(ctx, off, nBytes), t: w.t}
}

type tracedReader struct {
	r io.Reader
	t *tracer
}

func (r *tracedReader) Read(p []byte) (int, error) {
	start := r.t.now()
	n, err := r.r.Read(p)
	r.t.record(layerTier, "reader_read", start)
	return n, err
}

// --- the in-process assembly ---------------------------------------------------

// assembly is the stack inside the bench process.
type assembly struct {
	dir     string
	servers []*rpc.Server
	nodes   []*storage.Node
	conns   []*rpc.Client
	layers  []*tier.Layer
	reg     *obs.Registry // client side, like the block clients'
	stores  []tierFace    // what the block drivers drive, one per client
	objects objStore      // what the object driver drives
}

// assemble builds the stack for w. With t == nil no recorder is
// installed anywhere: that is the untraced twin.
func assemble(e env, w workload, t *tracer) (*assembly, error) {
	dir, err := os.MkdirTemp(e.workDir, "inproc-")
	if err != nil {
		return nil, err
	}
	a := &assembly{dir: dir, reg: obs.NewRegistry()}
	ok := false
	defer func() {
		if !ok {
			a.close()
		}
	}()
	code, err := erasure.New(codeK, codeN)
	if err != nil {
		return nil, err
	}
	// Server side: what cmd/storaged sets up, once per node.
	var addrs []string
	for i := 0; i < codeN; i++ {
		sreg := obs.NewRegistry()
		file, _, err := blockstore.OpenFile(blockstore.FileOptions{
			Dir: filepath.Join(dir, fmt.Sprintf("node%d", i)), BlockSize: w.blockSize, WriteBackLimit: 64, Obs: sreg,
		})
		if err != nil {
			return nil, err
		}
		var bs blockstore.Store = file
		if t != nil {
			bs = &tracedStore{s: file, t: t}
		}
		node, err := storage.New(storage.Options{
			ID: fmt.Sprintf("node%d", i), BlockSize: w.blockSize, Code: code,
			LockLease: 10 * time.Second, Store: bs,
		})
		if err != nil {
			_ = file.Close()
			return nil, err
		}
		a.nodes = append(a.nodes, node)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		var served proto.StorageNode = node
		if t != nil {
			served = &tracedNode{n: node, t: t, layer: layerStorage}
		}
		srv := rpc.Serve(ln, served, rpc.WithMetrics(rpc.NewMetrics(sreg, "rpc")), rpc.WithNoDelay(true))
		a.servers = append(a.servers, srv)

		addrs = append(addrs, srv.Addr().String())
	}

	// Client side: what ecstore.ConnectShardedVolume sets up, once per
	// client the real run has (gatewayd is one client).
	clients := nClients
	if w.gateway {
		clients = 1
	}
	rpcm := rpc.NewMetrics(a.reg, "rpc")
	for c := 0; c < clients; c++ {
		face, err := a.connect(w, t, c, addrs, rpcm)
		if err != nil {
			return nil, err
		}
		a.stores = append(a.stores, face)
	}
	if w.gateway {
		gw := gateway.New(a.stores[0], gateway.Options{Stripe: codeK, Obs: a.reg})
		a.objects = &gatewayObjects{gw: gw, t: t}
	}
	ok = true
	return a, nil
}

// connect builds one client's stack over the servers at addrs.
func (a *assembly) connect(w workload, t *tracer, client int, addrs []string, rpcm *rpc.Metrics) (tierFace, error) {
	sites := make([]placement.Node, len(addrs))
	handles := make(map[string]proto.StorageNode, len(addrs))
	for i, addr := range addrs {
		cl := rpc.Dial(addr, rpc.WithMetrics(rpcm), rpc.WithStripes(1), rpc.WithNoDelay(true))
		a.conns = append(a.conns, cl)
		sites[i] = placement.Node{ID: addr}
		handles[addr] = cl
		if t != nil {
			handles[addr] = &tracedNode{n: cl, t: t, layer: layerRPC}
		}
	}
	pool, err := placement.NewPool(sites...)
	if err != nil {
		return nil, err
	}
	vol, err := volume.New(volume.Options{
		K: codeK, N: codeN, BlockSize: w.blockSize, Groups: 1,
		Pool: pool,
		OpenShard: func(site placement.Node, _ uint64, replacement bool) (proto.StorageNode, error) {
			if replacement {
				return nil, fmt.Errorf("no replacement shards in the traced assembly")
			}
			return handles[site.ID], nil
		},
		NoRemap:   true,
		ClientID:  proto.ClientID(client + 1),
		Mode:      ecstore.Parallel,
		Multicast: transport.Parallel{},
		Aggregate: transport.Chain{},
		Obs:       a.reg,
	})
	if err != nil {
		return nil, err
	}
	base, isStamped := vol.BulkTarget().(tier.Stamped)
	if !isStamped {
		return nil, fmt.Errorf("volume target lacks stamped block ops")
	}
	if t != nil {
		base = &tracedStamped{b: base, t: t}
	}
	layer, err := tier.NewLayer(tier.Options{
		Base: base, SmallWrite: w.tier, ClientSlot: client, CacheBytes: w.cacheBytes, Obs: a.reg,
	})
	if err != nil {
		return nil, err
	}
	a.layers = append(a.layers, layer)
	if t != nil {
		return &tracedTier{l: layer, t: t}, nil
	}
	return layer, nil
}

func (a *assembly) close() {
	for _, l := range a.layers {
		_ = l.Close()
	}
	for _, c := range a.conns {
		_ = c.Close()
	}
	for _, s := range a.servers {
		_ = s.Close()
	}
	for _, n := range a.nodes {
		_ = n.Shutdown()
	}
	_ = os.RemoveAll(a.dir)
}

// gatewayObjects drives gateway.Gateway directly, the way gatewayd's
// HTTP handler does.
type gatewayObjects struct {
	gw *gateway.Gateway
	t  *tracer
}

func (g *gatewayObjects) put(ctx context.Context, key int, body []byte) error {
	start := g.t.now()
	err := g.gw.Put(ctx, "bench", objKey(key), &sliceReader{b: body}, int64(len(body)))
	g.t.record(layerGateway, "put", start)
	return err
}

func (g *gatewayObjects) get(ctx context.Context, key int, buf []byte) (int, error) {
	start := g.t.now()
	body, _, err := g.gw.Get(ctx, "bench", objKey(key))
	if err != nil {
		return 0, err
	}
	n, err := io.ReadFull(body, buf)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil
	}
	_ = body.Close()
	g.t.record(layerGateway, "get", start)
	return n, err
}

func (g *gatewayObjects) close() error { return nil }

// sliceReader is a minimal io.Reader over a byte slice (bytes.Reader
// would also offer WriteTo, which an HTTP request body does not).
type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// --- running and analysing ------------------------------------------------------

// inproc is the outcome of a fixed-count run on an assembly.
type inproc struct {
	ops     int
	failed  int
	elapsed time.Duration // the ops alone
	opStart []int64       // per op, tracer clock (traced runs)
	opEnd   []int64
}

// runFixed preloads an assembly and runs w.traceOps ops of the seeded
// stream on it from one goroutine.
func runFixed(ctx context.Context, a *assembly, w workload, seed uint64, t *tracer) (*inproc, error) {
	nz := newNoise(seed, 4<<20+cellSize)
	vers := newVersions(w.targets * w.cells())
	// One goroutine plays the clients' parts in turn: op n goes to
	// client n % nClients, through that client's own stack (the gateway
	// is one stack for all).
	drvs := make([]driver, nClients)
	gens := make([]*opGen, nClients)
	for i := range drvs {
		gens[i] = newOpGen(w, seed, i)
		if w.gateway {
			drvs[i] = newObjDriver(w, a.objects, nz, vers)
		} else {
			drvs[i] = newBlkDriver(w, a.stores[i], nz, vers)
		}
	}
	if err := drvs[0].preload(ctx, 0, w.targets); err != nil {
		return nil, err
	}
	for n := 0; n < w.warmOps*nClients; n++ {
		if err := drvs[n%nClients].do(ctx, gens[n%nClients].next()); err != nil {
			return nil, fmt.Errorf("traced warm-up: %w", err)
		}
	}
	res := &inproc{ops: w.traceOps}
	begin := time.Now()
	for n := 0; n < w.traceOps; n++ {
		o := gens[n%nClients].next()
		var s int64
		if t != nil {
			t.op.Store(uint32(n + 1))
			s = t.now()
		}
		err := drvs[n%nClients].do(ctx, o)
		if t != nil {
			res.opStart = append(res.opStart, s)
			res.opEnd = append(res.opEnd, t.now())
		}
		if err != nil {
			res.failed++
			if res.failed == 1 {
				fmt.Fprintf(os.Stderr, "bench: traced op %d failed: %v\n", n, err)
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	res.elapsed = time.Since(begin)
	if t != nil {
		t.op.Store(0)
	}
	return res, nil
}

// budget is what the spans of a traced run add up to.
type budget struct {
	selfNs   [nLayers]float64 // per layer, summed over the ops: time on the blocking path
	calls    [nLayers]int     // spans per layer inside ops
	opNs     float64          // summed op latency
	residual float64          // opNs - Σ selfNs: the driver's own share
}

// covered returns the length of the union of the intervals, clipped
// to [lo, hi]. ivs is sorted by start.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	var total, end int64
	end = lo
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if s > end {
			total += e - s
			end = e
		} else if e > end {
			total += e - end
			end = e
		}
	}
	return total
}

// analyse attributes every op's latency to the layers: a layer's self
// time in an op is the part of the op its spans cover, minus the part
// the spans of the next layer down cover. Work outside any op (a
// late flush, a GC round) is not on a blocking path and is left out.
// It also resolves each span's parent.
func analyse(t *tracer, r *inproc) budget {
	var b budget
	spans := t.spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	// Spans are sorted by start, and so are the ops: walk both.
	perLayer := make([][][2]int64, nLayers)
	perLayerIdx := make([][]int32, nLayers)
	next := 0
	for op := range r.opStart {
		lo, hi := r.opStart[op], r.opEnd[op]
		for l := range perLayer {
			perLayer[l] = perLayer[l][:0]
			perLayerIdx[l] = perLayerIdx[l][:0]
		}
		for next < len(spans) && spans[next].Start < lo {
			next++
		}
		for next < len(spans) && spans[next].Start < hi {
			s := &spans[next]
			perLayer[s.Layer] = append(perLayer[s.Layer], [2]int64{s.Start, s.End})
			perLayerIdx[s.Layer] = append(perLayerIdx[s.Layer], int32(next))
			b.calls[s.Layer]++
			next++
		}
		b.opNs += float64(hi - lo)
		var cov [nLayers + 1]int64
		for l := 0; l < nLayers; l++ {
			cov[l] = covered(perLayer[l], lo, hi)
		}
		// A layer with no spans in this op (no gateway on block
		// workloads, no blockstore under a read) passes its caller's
		// time through to the next layer that has some.
		below := int64(0)
		for l := nLayers - 1; l >= 0; l-- {
			if len(perLayer[l]) == 0 {
				continue
			}
			b.selfNs[l] += float64(cov[l] - below)
			below = cov[l]
		}
		// Parents: the latest-starting span one populated layer up
		// that encloses this one.
		up := -1
		for l := 0; l < nLayers; l++ {
			if len(perLayer[l]) == 0 {
				continue
			}
			if up >= 0 {
				for i, iv := range perLayer[l] {
					for j := len(perLayer[up]) - 1; j >= 0; j-- {
						if p := perLayer[up][j]; p[0] <= iv[0] && iv[1] <= p[1] {
							spans[perLayerIdx[l][i]].Parent = perLayerIdx[up][j]
							break
						}
					}
				}
			}
			up = l
		}
	}
	var self float64
	for _, s := range b.selfNs {
		self += s
	}
	b.residual = b.opNs - self
	return b
}

// writeSpans dumps the spans of a traced run as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for i, s := range spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"layer\":%q,\"name\":%q,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n",
			i, layerNames[s.Layer], s.Name, s.Op, s.Start, s.End, s.Parent)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
