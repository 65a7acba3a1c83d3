package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// runLayers is a -trace 1 run. It reports every per-layer metric, from
// four sources: a shorter untraced multi-process run for the counters
// [C] and /proc numbers [P]; on the workload that has one, a phase
// with a storaged killed; the traced in-process assembly and its
// untraced twin [T]; and the direct-call timings [K].
func runLayers(ctx context.Context, e env, w workload, seed uint64, seconds int) (*result, error) {
	m, _, disk, err := measureRun(ctx, e, w, seed, max(setupReps, seconds/2))
	if err != nil {
		return nil, err
	}
	out := counterLayers(m, disk)
	res := &result{Attempted: m.attempted, Failed: m.failed}
	ops, _, _ := totals(m)
	realRPCs := ratio(m.nodes.sumMatching("rpc.", ".calls"), ops)

	refs := newRefs()
	deg, err := degradedPhase(ctx, e, w, seed, refs)
	if err != nil {
		return nil, err
	}
	for k, v := range deg.metrics {
		out[k] = v
	}
	res.Attempted += deg.attempted
	res.Failed += deg.failed

	// The traced assembly between two runs of its untraced twin (the
	// first in-process run of a process is the slowest, whichever it
	// is), each between calibration slices.
	var runs [3]*inproc
	var slow [3]float64
	var tr *tracer
	for i := range runs {
		var t *tracer
		if i == 1 {
			t = newTracer()
			tr = t
		}
		a, err := assemble(e, w, t)
		if err != nil {
			return nil, err
		}
		before := calibrate(refs)
		runs[i], err = runFixed(ctx, a, w, seed, t)
		slow[i] = slowdownOf(before, calibrate(refs))
		a.close()
		if err != nil {
			return nil, fmt.Errorf("in-process run: %w", err)
		}
		res.Attempted += runs[i].ops
		res.Failed += runs[i].failed
	}
	traced := runs[1]
	twinRate := (float64(runs[0].ops)/runs[0].elapsed.Seconds()*slow[0] +
		float64(runs[2].ops)/runs[2].elapsed.Seconds()*slow[2]) / 2
	b := analyse(tr, traced)
	n := float64(traced.ops)
	s := slow[1]
	perOp := func(l int) float64 { return b.selfNs[l] / n / 1e6 / s }
	perCall := func(l int) float64 { return ratio(b.selfNs[l], float64(b.calls[l])) / 1e6 / s }
	out.put("gateway.self_ms_per_op", perOp(layerGateway), "ms")
	out.put("tier.self_ms_per_op", perOp(layerTier), "ms")
	out.put("core.self_ms_per_op", perOp(layerCore), "ms")
	out.put("rpc.rtt_ms_per_call", perCall(layerRPC), "ms")
	out.put("storage.self_ms_per_call", perCall(layerStorage), "ms")
	out.put("blockstore.self_ms_per_call", perCall(layerBlockstore), "ms")
	out.put("trace.mean_op_ms", b.opNs/n/1e6/s, "ms")
	out.put("trace.budget_residual_frac", ratio(b.residual, b.opNs), "ratio")
	out.put("trace.overhead_frac", 1-ratio(n/traced.elapsed.Seconds()*slow[1], twinRate), "ratio")
	tracedRPCs := float64(b.calls[layerRPC]) / n
	out.put("trace.rpcs_per_op", tracedRPCs, "1")
	out.put("trace.rpcs_per_op_vs_real", ratio(tracedRPCs, realRPCs), "ratio")
	var inOps int
	for _, c := range b.calls {
		inOps += c
	}
	out.put("trace.spans_per_op", float64(inOps)/n, "1")

	if err := os.MkdirAll(filepath.Join(e.workDir, "traces"), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(e.workDir, "traces", w.name+".spans.jsonl"), tr.spans); err != nil {
		return nil, err
	}

	ks, err := kernels(e, w.blockSize, refs)
	if err != nil {
		return nil, err
	}
	for k, v := range ks {
		out[k] = v
	}

	res.Correct = res.Failed == 0
	// The assembly must be the real code path, not a fork of it: it has
	// to issue the RPCs per op the real deployment does.
	if math.Abs(ratio(tracedRPCs, realRPCs)-1) > rpcMatchTolerance {
		fmt.Fprintf(os.Stderr, "bench: traced assembly issues %.4f RPCs/op, the real deployment %.4f\n", tracedRPCs, realRPCs)
		res.Correct = false
	}
	res.Metrics = out
	return res, nil
}

// rpcMatchTolerance is how far the traced assembly's RPCs per op may
// be from the multi-process run's. The two agree to 0.5 % where no
// cache is involved. With one they stop at different degrees of warmth
// (a fixed op count against a fixed time): 1-2 % apart at the length
// BENCHMARK.json runs, 4-5 % when the real run is cut to 3 s. A dropped
// capability or a forked path moves the count by tens of percent.
const rpcMatchTolerance = 0.05

// degraded is the outcome of the degraded-read phase.
type degraded struct {
	metrics           metricSet
	attempted, failed int
}

var degradedNames = []struct{ name, unit string }{
	{"degraded.read_p50_ms", "ms"}, {"degraded.read_p90_ms", "ms"}, {"degraded.ops_per_s", "1/s"},
	{"degraded.read_frac", "ratio"}, {"degraded.rpcs_per_op", "1"},
}

// degradedPhase sets the workload's system up once more, SIGKILLs one
// storaged, and reads for a few seconds: one read in n now finds its
// data node gone and decodes from k survivors. The phase is read-only
// because that is all a k-of-n group offers until the dead node is
// replaced and rebuilt, and that rebuild is a one-off, not a steady
// state. Workloads without the phase report zeros.
func degradedPhase(ctx context.Context, e env, w workload, seed uint64, refs []*ref) (*degraded, error) {
	out := &degraded{metrics: metricSet{}}
	for _, n := range degradedNames {
		out.metrics.put(n.name, 0, n.unit)
	}
	if !w.degraded {
		return out, nil
	}
	ro := w
	ro.readFrac = 1
	d, err := setUp(ctx, e, ro, seed, refs, nil)
	if err != nil {
		return nil, err
	}
	defer d.tearDown()
	// Not node 0: it leads the daemons' process group.
	d.cl.kill(d.cl.nodes[2])
	m, err := d.run(ctx, 3, time.Second)
	if err != nil {
		return nil, fmt.Errorf("degraded phase: %w\n%s", err, d.cl.logs())
	}
	ops, _, _ := totals(m)
	out.attempted, out.failed = m.attempted, m.failed
	out.metrics.put("degraded.read_p50_ms", pooledQuantileMs(m, 0, 0.5), "ms")
	out.metrics.put("degraded.read_p90_ms", pooledQuantileMs(m, 0, 0.9), "ms")
	out.metrics.put("degraded.ops_per_s", medianRate(m, true), "1/s")
	out.metrics.put("degraded.read_frac", ratio(m.client.vals["core.degraded_reads"], m.client.vals["core.reads"]), "ratio")
	out.metrics.put("degraded.rpcs_per_op", ratio(m.nodes.sumMatching("rpc.", ".calls"), ops), "1")
	return out, nil
}
