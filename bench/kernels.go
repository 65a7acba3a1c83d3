package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"ecstore/internal/blockstore"
	"ecstore/internal/erasure"
	"ecstore/internal/proto"
	"ecstore/internal/readcache"
	"ecstore/internal/storage"
	"ecstore/internal/wire"
)

// Direct-call timings [K]: public functions of single layers, called
// in a loop of fixed length at the workload's block size, with no
// network and (but for blockstore.File) no disk. They say what a layer
// costs by itself, so a per-layer self time from the trace can be
// split into "the kernel got slower" and "it is called more often".

// timeLoop runs f n times and returns nanoseconds per call.
func timeLoop(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// kernels measures the [K] metrics for block size bs, scaled by the
// slowdown of calibration slices around them.
func kernels(e env, bs int, refs []*ref) (metricSet, error) {
	out := metricSet{}
	before := calibrate(refs)

	code, err := erasure.New(codeK, codeN)
	if err != nil {
		return nil, err
	}
	nz := newNoise(42, 1<<20)
	blocks := make([][]byte, codeN)
	for i := range blocks {
		blocks[i] = make([]byte, bs)
		nz.fill(blocks[i], uint64(i), 1)
	}
	raw := map[string]float64{}

	// erasure: full-stripe encode, one parity delta, one-block rebuild.
	const erasureBytes = 48 << 20
	n := erasureBytes / (codeK * bs)
	raw["erasure.encode_ns_per_byte"] = timeLoop(n, func(int) {
		code.EncodeInto(blocks[codeK:], blocks[:codeK])
	}) / float64(codeK*bs)
	delta := make([]byte, bs)
	n = erasureBytes / bs
	raw["erasure.delta_ns_per_byte"] = timeLoop(n, func(i int) {
		code.DeltaInto(delta, codeK+i%(codeN-codeK), i%codeK, blocks[0], blocks[1])
	}) / float64(bs)
	stripe := make([][]byte, codeN)
	var recErr error
	raw["erasure.reconstruct_ns_per_byte"] = timeLoop(n/4, func(i int) {
		copy(stripe, blocks)
		stripe[i%codeK] = nil
		stripe[codeN-1] = nil
		if err := code.Reconstruct(stripe); err != nil {
			recErr = err
		}
	}) / float64(bs)
	if recErr != nil {
		return nil, fmt.Errorf("erasure.Reconstruct: %w", recErr)
	}

	// wire: one swap request, the frame that carries a block.
	swap := &proto.SwapReq{Stripe: 7, Slot: 1, Value: blocks[0], NTID: proto.TID{Seq: 9, Block: 1, Client: 1}}
	meta := make([]byte, 0, wire.MetaSize(swap)+wire.FrameOverhead)
	var frame wire.Frame
	var wireErr error
	raw["wire.encode_ns_per_frame"] = timeLoop(400_000, func(i int) {
		if err := wire.EncodeFrame(&frame, swap, uint64(i), 0, meta); err != nil {
			wireErr = err
		}
	})
	mt, payload, err := wire.Encode(swap)
	if err != nil {
		return nil, err
	}
	raw["wire.decode_ns_per_frame"] = timeLoop(400_000, func(int) {
		msg, err := wire.Decode(mt, payload)
		if err != nil {
			wireErr = err
			return
		}
		wire.Recycle(msg)
	})
	if wireErr != nil {
		return nil, fmt.Errorf("wire: %w", wireErr)
	}

	// readcache: a hit.
	cache := readcache.New(int64(256*bs), nil)
	for a := uint64(0); a < 128; a++ {
		cache.CommitFill(cache.BeginFill(a), blocks[0], proto.TID{Seq: a + 1, Client: 1})
	}
	hits := 0
	raw["readcache.get_hit_ns"] = timeLoop(400_000, func(i int) {
		if _, _, ok := cache.Get(uint64(i & 127)); ok {
			hits++
		}
	})
	if hits != 400_000 {
		return nil, fmt.Errorf("readcache: %d hits of 400000", hits)
	}

	// storage.Node over blockstore.Mem: swap then read of one slot.
	node, err := storage.New(storage.Options{ID: "k", BlockSize: bs, Code: code, Store: blockstore.NewMem()})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var nodeErr error
	raw["storage.swap_ns_per_call"] = timeLoop(60_000, func(i int) {
		_, err := node.Swap(ctx, &proto.SwapReq{Stripe: uint64(i & 255), Slot: 0, Value: blocks[i%codeK],
			NTID: proto.TID{Seq: uint64(i + 1), Client: 1}})
		if err != nil {
			nodeErr = err
		}
	})
	raw["storage.read_ns_per_call"] = timeLoop(200_000, func(i int) {
		if _, err := node.Read(ctx, &proto.ReadReq{Stripe: uint64(i & 255), Slot: 0}); err != nil {
			nodeErr = err
		}
	})
	if nodeErr != nil {
		return nil, fmt.Errorf("storage.Node: %w", nodeErr)
	}

	// blockstore.File: puts through the default write-back of 64, so
	// one flush (two fsyncs) per 65 blocks, on the benchmark's disk.
	dir, err := os.MkdirTemp(e.workDir, "kernel-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	file, _, err := blockstore.OpenFile(blockstore.FileOptions{Dir: dir, BlockSize: bs, WriteBackLimit: 64})
	if err != nil {
		return nil, err
	}
	var putErr error
	raw["blockstore.put_flush_ns_per_block"] = timeLoop(65*12, func(i int) {
		if err := file.Put(blockstore.Key{Stripe: uint64(i % 512), Slot: int32(i % codeN)}, blocks[i%codeN]); err != nil {
			putErr = err
		}
	})
	if err := file.Close(); err != nil && putErr == nil {
		putErr = err
	}
	if putErr != nil {
		return nil, fmt.Errorf("blockstore.File: %w", putErr)
	}

	s := slowdownOf(before, calibrate(refs))
	for name, v := range raw {
		out.put(name, v/s, "ns")
	}
	return out, nil
}
