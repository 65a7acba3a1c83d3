package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The real binaries run as child processes in one process group, so
// one kill(-pgid) takes all of them down on any exit path, and with
// PR_SET_PDEATHSIG so that a SIGKILL of the benchmark itself does too.
// Pdeathsig fires when the *thread* that forked exits, so every child
// is started from one goroutine pinned to a thread that lives as long
// as the process.

type startReq struct {
	cmd  *exec.Cmd
	done chan error
}

var (
	spawnOnce sync.Once
	spawnCh   chan startReq
)

func startPinned(cmd *exec.Cmd) error {
	spawnOnce.Do(func() {
		spawnCh = make(chan startReq)
		go func() {
			runtime.LockOSThread()
			for r := range spawnCh {
				r.done <- r.cmd.Start()
			}
		}()
	})
	r := startReq{cmd: cmd, done: make(chan error, 1)}
	spawnCh <- r
	return <-r.done
}

// proc is one running daemon.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string // service address (rpc or http)
	metrics string // /debug/metrics address
	dataDir string

	mu     sync.Mutex
	stderr bytes.Buffer // kept for the failure report
	ready  chan struct{}
	exited chan struct{}
}

var (
	reListen  = regexp.MustCompile(`(?:listening on |serving objects on http://)([0-9.]+:[0-9]+)`)
	reMetrics = regexp.MustCompile(`metrics on http://([0-9.]+:[0-9]+)/debug/metrics`)
)

// scan copies the daemon's stderr into the buffer and picks the two
// ephemeral addresses out of its start-up log lines.
func (p *proc) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		if p.stderr.Len() < 64<<10 {
			p.stderr.WriteString(line)
			p.stderr.WriteByte('\n')
		}
		if m := reListen.FindStringSubmatch(line); m != nil {
			p.addr = m[1]
		}
		if m := reMetrics.FindStringSubmatch(line); m != nil {
			p.metrics = m[1]
		}
		ok := p.addr != "" && p.metrics != ""
		p.mu.Unlock()
		if ok && !signalled {
			signalled = true
			close(p.ready)
		}
	}
}

// running reports whether the daemon has not exited yet.
func (p *proc) running() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// cluster is one deployment: n storaged, optionally one gatewayd, all
// under one scratch directory.
type cluster struct {
	dir   string
	pgid  int
	nodes []*proc
	gw    *proc
	all   []*proc
}

// live tracks clusters for the exit-path cleanup.
var live struct {
	sync.Mutex
	m map[*cluster]bool
}

func (c *cluster) spawn(name, bin, dataDir string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pgid: c.pgid, Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = pw
	p := &proc{name: name, cmd: cmd, dataDir: dataDir, ready: make(chan struct{}), exited: make(chan struct{})}
	if err := startPinned(cmd); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	pw.Close()
	if c.pgid == 0 {
		c.pgid = cmd.Process.Pid
	}
	go func() {
		p.scan(pr)
		pr.Close()
		_ = cmd.Wait()
		close(p.exited)
	}()
	c.all = append(c.all, p)
	return p, nil
}

func (c *cluster) waitReady(p *proc) error {
	select {
	case <-p.ready:
		return nil
	case <-p.exited:
		return fmt.Errorf("%s exited during start-up:\n%s", p.name, p.log())
	case <-time.After(20 * time.Second):
		return fmt.Errorf("%s not ready after 20s:\n%s", p.name, p.log())
	}
}

// startCluster launches n storaged (k-of-n, given block size, file
// store with the default write-back) and, if withGateway, a gatewayd
// over them. Ports are ephemeral; the daemons report them on stderr.
func startCluster(binDir, workDir string, k, n, blockSize int, withGateway bool) (*cluster, error) {
	dir, err := os.MkdirTemp(workDir, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	live.Lock()
	if live.m == nil {
		live.m = make(map[*cluster]bool)
	}
	live.m[c] = true
	live.Unlock()
	fail := func(err error) (*cluster, error) {
		c.destroy()
		return nil, err
	}
	for i := 0; i < n; i++ {
		dd := filepath.Join(dir, fmt.Sprintf("node%d", i))
		p, err := c.spawn(fmt.Sprintf("storaged[%d]", i), filepath.Join(binDir, "storaged"), dd,
			"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-block-size", strconv.Itoa(blockSize), "-k", strconv.Itoa(k), "-n", strconv.Itoa(n),
			"-data-dir", dd, "-id", fmt.Sprintf("node%d", i))
		if err != nil {
			return fail(err)
		}
		c.nodes = append(c.nodes, p)
	}
	for _, p := range c.nodes {
		if err := c.waitReady(p); err != nil {
			return fail(err)
		}
	}
	if withGateway {
		p, err := c.spawn("gatewayd", filepath.Join(binDir, "gatewayd"), "",
			"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
			"-nodes", strings.Join(c.nodeAddrs(), ","),
			"-block-size", strconv.Itoa(blockSize), "-k", strconv.Itoa(k), "-n", strconv.Itoa(n))
		if err != nil {
			return fail(err)
		}
		c.gw = p
		if err := c.waitReady(p); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

func (c *cluster) nodeAddrs() []string {
	out := make([]string, len(c.nodes))
	for i, p := range c.nodes {
		out[i] = p.addr
	}
	return out
}

// kill SIGKILLs one daemon and waits for it.
func (c *cluster) kill(p *proc) {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// stop shuts the daemons down cleanly (gateway first, then the nodes,
// so every write-back cache is flushed and the data dirs are final).
// A daemon that ignores SIGTERM for 10 s is killed.
func (c *cluster) stop() {
	term := func(ps []*proc) {
		for _, p := range ps {
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range ps {
			select {
			case <-p.exited:
			case <-time.After(10 * time.Second):
				c.kill(p)
			}
		}
	}
	if c.gw != nil {
		term([]*proc{c.gw})
	}
	term(c.nodes)
}

// destroy kills whatever still runs, waits for it, and removes the
// scratch directory.
func (c *cluster) destroy() {
	if c.pgid != 0 {
		_ = syscall.Kill(-c.pgid, syscall.SIGKILL)
	}
	for _, p := range c.all {
		<-p.exited
	}
	_ = os.RemoveAll(c.dir)
	live.Lock()
	delete(live.m, c)
	live.Unlock()
}

// destroyAll is the exit-path cleanup for clusters still alive.
func destroyAll() {
	live.Lock()
	cs := make([]*cluster, 0, len(live.m))
	for c := range live.m {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.destroy()
	}
}

// logs returns every daemon's stderr, for a failure report.
func (c *cluster) logs() string {
	var b strings.Builder
	for _, p := range c.all {
		fmt.Fprintf(&b, "--- %s ---\n%s", p.name, p.log())
	}
	return b.String()
}

// diskBytes sums the apparent size of every file in the node data dirs.
func (c *cluster) diskBytes() (int64, error) {
	var total int64
	for _, p := range c.nodes {
		err := filepath.WalkDir(p.dataDir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// --- counters ----------------------------------------------------------------

// snapshot is one /debug/metrics scrape (or an in-process registry
// snapshot): counters and gauges as floats, histograms by name.
type snapshot struct {
	vals  map[string]float64
	hists map[string]histSnap
}

type histSnap struct {
	Count uint64            `json:"count"`
	Bkts  map[string]uint64 `json:"buckets"`
}

func parseSnapshot(raw []byte) (snapshot, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return snapshot{}, err
	}
	s := snapshot{vals: make(map[string]float64), hists: make(map[string]histSnap)}
	for k, v := range m {
		if len(v) > 0 && v[0] == '{' {
			var h histSnap
			if err := json.Unmarshal(v, &h); err != nil {
				return snapshot{}, fmt.Errorf("%s: %w", k, err)
			}
			s.hists[k] = h
			continue
		}
		var f float64
		if err := json.Unmarshal(v, &f); err != nil {
			return snapshot{}, fmt.Errorf("%s: %w", k, err)
		}
		s.vals[k] = f
	}
	return s, nil
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func scrape(addr string) (snapshot, error) {
	resp, err := scrapeClient.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		return snapshot{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return snapshot{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return snapshot{}, fmt.Errorf("scrape %s: status %d", addr, resp.StatusCode)
	}
	return parseSnapshot(raw)
}

// sumSnapshots adds scrapes of several daemons into one.
func sumSnapshots(ss ...snapshot) snapshot {
	out := snapshot{vals: make(map[string]float64), hists: make(map[string]histSnap)}
	for _, s := range ss {
		for k, v := range s.vals {
			out.vals[k] += v
		}
		for k, h := range s.hists {
			o := out.hists[k]
			o.Count += h.Count
			if o.Bkts == nil {
				o.Bkts = make(map[string]uint64)
			}
			for b, n := range h.Bkts {
				o.Bkts[b] += n
			}
			out.hists[k] = o
		}
	}
	return out
}

// scrapeNodes sums the scrapes of every storaged still running.
func (c *cluster) scrapeNodes() (snapshot, error) {
	var ss []snapshot
	for _, p := range c.nodes {
		if !p.running() {
			continue
		}
		s, err := scrape(p.metrics)
		if err != nil {
			return snapshot{}, fmt.Errorf("%s: %w", p.name, err)
		}
		ss = append(ss, s)
	}
	return sumSnapshots(ss...), nil
}

// since returns the counters and histograms accumulated between two
// scrapes of the same daemons.
func (after snapshot) since(before snapshot) snapshot {
	out := snapshot{vals: make(map[string]float64, len(after.vals)), hists: make(map[string]histSnap, len(after.hists))}
	for k, v := range after.vals {
		out.vals[k] = v - before.vals[k]
	}
	for k, a := range after.hists {
		b := before.hists[k]
		h := histSnap{Count: a.Count - b.Count, Bkts: make(map[string]uint64)}
		for l, n := range a.Bkts {
			if d := n - b.Bkts[l]; d > 0 {
				h.Bkts[l] = d
			}
		}
		out.hists[k] = h
	}
	return out
}

// sumMatching adds up every counter named prefix+*+suffix (for
// example every rpc.<op>.calls).
func (s snapshot) sumMatching(prefix, suffix string) float64 {
	var d float64
	for k, v := range s.vals {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			d += v
		}
	}
	return d
}

// quantileMs interpolates a quantile inside the power-of-two bucket
// that holds it, the way obs.Histogram.Quantile does, in milliseconds.
func (h histSnap) quantileMs(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	type bkt struct {
		hi time.Duration
		n  uint64
	}
	var bs []bkt
	for label, n := range h.Bkts {
		if label == "+inf" {
			bs = append(bs, bkt{1 << 62, n})
			continue
		}
		d, err := time.ParseDuration(label)
		if err != nil {
			continue
		}
		bs = append(bs, bkt{d, n})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].hi < bs[j].hi })
	rank := q * float64(h.Count)
	var seen uint64
	for _, b := range bs {
		if float64(seen+b.n) >= rank {
			lo := b.hi / 2
			if b.hi == time.Microsecond {
				lo = 0
			}
			frac := (rank - float64(seen)) / float64(b.n)
			return (float64(lo) + frac*float64(b.hi-lo)) / 1e6
		}
		seen += b.n
	}
	return 0
}

// --- /proc -------------------------------------------------------------------

// procStat is what one /proc read of a process gives: CPU seconds so
// far, context switches, syscall-ish I/O counts, and the RSS peak.
type procStat struct {
	cpuS     float64
	ctxSw    float64
	syscalls float64 // syscr + syscw of /proc/<pid>/io
	hwmMB    float64
	rssMB    float64
}

var clkTck = 100.0 // sysconf(_SC_CLK_TCK) is 100 on every Linux Go supports

func readProc(pid int) (procStat, error) {
	var st procStat
	base := "/proc/" + strconv.Itoa(pid)
	raw, err := os.ReadFile(base + "/stat")
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return st, errors.New("malformed " + base + "/stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 14 {
		return st, errors.New("short " + base + "/stat")
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	stt, _ := strconv.ParseFloat(f[12], 64)
	st.cpuS = (ut + stt) / clkTck

	raw, err = os.ReadFile(base + "/status")
	if err != nil {
		return st, err
	}
	st.hwmMB = statusField(raw, "VmHWM") / 1024
	st.rssMB = statusField(raw, "VmRSS") / 1024
	// /proc/<pid>/status counts the context switches of the main thread
	// only; the per-task files cover the Go runtime's other threads.
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return st, err
	}
	for _, t := range tasks {
		// A thread may exit between the listing and the read.
		if raw, err := os.ReadFile(base + "/task/" + t.Name() + "/status"); err == nil {
			st.ctxSw += statusField(raw, "voluntary_ctxt_switches") + statusField(raw, "nonvoluntary_ctxt_switches")
		}
	}
	if raw, err := os.ReadFile(base + "/io"); err == nil {
		st.syscalls = statusField(raw, "syscr") + statusField(raw, "syscw")
	}
	return st, nil
}

// statusField returns the leading number of the "key: value" line of a
// /proc status-style file, or 0 if the key is not there.
func statusField(raw []byte, key string) float64 {
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			if fs := strings.Fields(v); len(fs) > 0 {
				x, _ := strconv.ParseFloat(fs[0], 64)
				return x
			}
		}
	}
	return 0
}

// procGroup is the /proc view of the bench process, the gateway and
// the storage nodes, kept apart so each layer's share can be reported.
type procGroup struct {
	self, gateway, storage procStat
}

func (g procGroup) total() procStat {
	return addStat(addStat(g.self, g.gateway), g.storage)
}

func addStat(a, b procStat) procStat {
	return procStat{a.cpuS + b.cpuS, a.ctxSw + b.ctxSw, a.syscalls + b.syscalls, a.hwmMB + b.hwmMB, a.rssMB + b.rssMB}
}

func subStat(a, b procStat) procStat {
	return procStat{a.cpuS - b.cpuS, a.ctxSw - b.ctxSw, a.syscalls - b.syscalls, a.hwmMB, a.rssMB}
}

// readProcs reads /proc for the bench and every daemon still running.
func (c *cluster) readProcs() (procGroup, error) {
	var g procGroup
	var err error
	if g.self, err = readProc(os.Getpid()); err != nil {
		return g, err
	}
	// getrusage has microsecond CPU resolution; /proc/stat has ticks.
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		g.self.cpuS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	if c.gw != nil {
		if g.gateway, err = readProc(c.gw.cmd.Process.Pid); err != nil {
			return g, err
		}
	}
	for _, p := range c.nodes {
		if !p.running() {
			continue
		}
		st, err := readProc(p.cmd.Process.Pid)
		if err != nil {
			return g, err
		}
		g.storage = addStat(g.storage, st)
	}
	return g, nil
}
