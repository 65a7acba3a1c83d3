package main

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (s metricSet) put(name string, v float64, unit string) { s[name] = metric{v, unit} }

// ratio is a/b, and 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perWindow maps every window to one number and returns the median,
// which is how each time metric of the load is reported: one slow
// window (a neighbour's burst, a long fsync) moves it by nothing.
func perWindow(ws []window, f func(w *window) float64) float64 {
	xs := make([]float64, len(ws))
	for i := range ws {
		xs[i] = f(&ws[i])
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics of a measured phase.
// setupS is the calibrated set-up time; diskBytes the size of the data
// dirs after a clean shutdown.
func endToEnd(w workload, m *measured, setupS float64, diskBytes int64) metricSet {
	out := metricSet{}
	out.put("setup_s", setupS, "s")
	out.put("peak_rss_mb", m.hwmMB, "MB")
	ops, rd, wr := totals(m)
	wire := m.nodes.vals["rpc.bytes_in"] + m.nodes.vals["rpc.bytes_out"]
	out.put("rpcs_per_op", ratio(m.nodes.sumMatching("rpc.", ".calls"), ops), "1")
	out.put("wire_bytes_per_user_byte", ratio(wire, rd+wr), "ratio")
	out.put("disk_bytes_per_user_byte",
		ratio(m.nodes.vals["blockstore.disk_writes"]*float64(w.blockSize), wr), "ratio")
	out.put("stored_bytes_per_user_byte", ratio(float64(diskBytes), float64(w.liveBytes())), "ratio")
	return out
}

// speed computes what a user sees of the system's speed: throughput,
// median latencies, CPU per op, each calibrated and the median over the
// windows. On a quiet machine these are end-to-end metrics; on the
// shared 2-core box their run-to-run spread is as wide as any bound
// the benchmark may set, so they are reported per layer (README.md).
func speed(m *measured, out metricSet) {
	out.put("ops_per_s", medianRate(m, true), "1/s")
	rp := perWindow(m.windows, func(x *window) float64 { return durQuantileMs(x.lat[0], 0.5) / x.slowdown })
	wp := perWindow(m.windows, func(x *window) float64 { return durQuantileMs(x.lat[1], 0.5) / x.slowdown })
	out.put("read_p50_ms", rp, "ms")
	out.put("write_p50_ms", wp, "ms")
	// Machine speed cancels in a ratio taken inside one run: this one
	// repeats to a few percent where its two terms repeat to 10-20.
	out.put("write_read_p50_ratio", ratio(wp, rp), "ratio")
	out.put("cpu_ms_per_op", perWindow(m.windows, func(x *window) float64 {
		return ratio(x.cpu.total().cpuS*1e3, float64(x.ops())) / x.slowdown
	}), "ms")
}

// medianRate is the median over the windows of verified ops/s, raw or
// scaled to nominal machine speed.
func medianRate(m *measured, calibrated bool) float64 {
	return perWindow(m.windows, func(x *window) float64 {
		if calibrated {
			return x.rate * x.slowdown
		}
		return x.rate
	})
}

// totals returns verified ops and the payload bytes read and written
// over all windows.
func totals(m *measured) (ops, readBytes, writeBytes float64) {
	for i := range m.windows {
		w := &m.windows[i]
		ops += float64(w.ops())
		readBytes += float64(w.bytes[0])
		writeBytes += float64(w.bytes[1])
	}
	return
}

// pooledQuantileMs is a latency quantile over the samples of every
// window, each scaled by its own window's slowdown first.
func pooledQuantileMs(m *measured, class int, q float64) float64 {
	var xs []float64
	for i := range m.windows {
		s := m.windows[i].slowdown
		for _, d := range m.windows[i].lat[class] {
			xs = append(xs, float64(d)/1e6/s)
		}
	}
	return quantile(xs, q)
}

// counterLayers computes the per-layer metrics that come from the
// untraced multi-process run: counters [C], /proc [P] and the load
// generator's own records.
func counterLayers(m *measured, diskBytes int64) metricSet {
	out := metricSet{}
	ops, _, _ := totals(m)
	var reads, writes float64
	for i := range m.windows {
		reads += float64(len(m.windows[i].lat[0]))
		writes += float64(len(m.windows[i].lat[1]))
	}
	nd := func(name string) float64 { return m.nodes.vals[name] }
	cd := func(name string) float64 { return m.client.vals[name] }

	speed(m, out)

	// client: the load generator.
	out.put("client.read_p99_ms", pooledQuantileMs(m, 0, 0.99), "ms")
	out.put("client.write_p99_ms", pooledQuantileMs(m, 1, 0.99), "ms")
	out.put("client.ops_per_s_raw", medianRate(m, false), "1/s")
	slow := make([]float64, len(m.windows))
	rates := make([]float64, len(m.windows))
	for i := range m.windows {
		slow[i] = m.windows[i].slowdown
		rates[i] = m.windows[i].rate * slow[i]
	}
	out.put("client.slowdown", mean(slow), "ratio")
	out.put("client.window_cv", cv(rates), "ratio")
	out.put("client.fail_frac", ratio(float64(m.failed), float64(m.attempted)), "ratio")
	out.put("client.alloc_bytes_per_op", ratio(m.allocB, ops), "B")
	out.put("client.allocs_per_op", ratio(m.mallocs, ops), "1")

	// gateway.
	var gwCPU, stCPU, selfCPU, sys, ctx float64
	for i := range m.windows {
		c := m.windows[i].cpu
		s := m.windows[i].slowdown
		gwCPU += c.gateway.cpuS / s
		stCPU += c.storage.cpuS / s
		selfCPU += c.self.cpuS / s
		sys += c.total().syscalls
		ctx += c.total().ctxSw
	}
	out.put("gateway.cpu_ms_per_op", ratio(gwCPU*1e3, ops), "ms")
	out.put("gateway.rss_mb", m.procEnd.gateway.rssMB, "MB")
	out.put("gateway.errors", cd("gateway.errors"), "count")

	// tier: tier.Layer + bulk + smallwrite + readcache.
	lookups := cd("readcache.hits") + cd("readcache.misses")
	out.put("readcache.hit_rate", ratio(cd("readcache.hits"), lookups), "ratio")
	out.put("readcache.chain_break_frac",
		ratio(cd("readcache.chain_breaks"), cd("readcache.chain_breaks")+cd("readcache.chain_installs")), "ratio")
	out.put("smallwrite.records_per_commit", ratio(cd("smallwrite.commit_records"), cd("smallwrite.commits")), "1")
	out.put("smallwrite.flushed_blocks_per_write", ratio(cd("smallwrite.flushed_blocks"), cd("smallwrite.writes")), "1")
	out.put("smallwrite.segment_full_flushes", cd("smallwrite.segment_full_flushes"), "count")
	out.put("bulk.adds_per_rpc", ratio(cd("bulk.batch_calls"), cd("bulk.batch_rpcs")), "1")
	out.put("bulk.window_stalls_per_op", ratio(cd("bulk.window_stalls"), ops), "1")

	// core: volume + core + erasure.
	out.put("core.swap_calls_per_write", ratio(cd("core.swap_calls"), writes), "1")
	out.put("core.add_calls_per_write", ratio(cd("core.add_calls"), writes), "1")
	out.put("core.retries_per_op", ratio(cd("core.swap_retries")+cd("core.add_retries")+cd("core.write_restarts"), ops), "1")
	out.put("core.degraded_read_frac", ratio(cd("core.degraded_reads"), cd("core.reads")), "ratio")

	// rpc (+ wire), counted at the storaged side.
	calls := m.nodes.sumMatching("rpc.", ".calls")
	for _, op := range []string{"read", "swap", "add", "batch_add_multi", "get_state"} {
		out.put("rpc."+op+"_per_op", ratio(nd("rpc."+op+".calls"), ops), "1")
	}
	out.put("rpc.wire_bytes_per_call", ratio(nd("rpc.bytes_in")+nd("rpc.bytes_out"), calls), "B")
	// Zero-copy share: bytes the storaged replies and the client-side
	// requests sent by writev, over all bytes those two sides sent.
	out.put("rpc.vec_byte_frac",
		ratio(nd("rpc.vec_bytes")+cd("rpc.vec_bytes"), nd("rpc.bytes_out")+cd("rpc.bytes_out")), "ratio")
	out.put("rpc.syscalls_per_op", ratio(sys, ops), "1")
	out.put("rpc.ctx_switches_per_op", ratio(ctx, ops), "1")

	// storage: storaged's own handler histograms, machine-speed scaled
	// by the run's mean slowdown.
	s := mean(slow)
	for _, op := range []string{"read", "swap", "add"} {
		out.put("storage."+op+"_p50_ms", m.nodes.hists["rpc."+op+".latency"].quantileMs(0.5)/s, "ms")
	}
	out.put("storage.cpu_ms_per_op", ratio(stCPU*1e3, ops), "ms")
	out.put("storage.rss_mb", m.procEnd.storage.rssMB, "MB")
	out.put("client.cpu_ms_per_op", ratio(selfCPU*1e3, ops), "ms")

	// blockstore.
	out.put("blockstore.puts_per_write", ratio(nd("blockstore.puts"), writes), "1")
	out.put("blockstore.disk_writes_per_put", ratio(nd("blockstore.disk_writes"), nd("blockstore.puts")), "1")
	out.put("blockstore.flushes_per_kop", ratio(nd("blockstore.flushes")*1e3, ops), "1")
	out.put("blockstore.disk_mb", float64(diskBytes)/(1<<20), "MB")
	return out
}
