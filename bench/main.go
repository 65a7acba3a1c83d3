// Command bench is the repository's end-to-end benchmark: it spawns
// the real storaged and gatewayd binaries on a disk-backed block
// store, drives them over loopback TCP from two closed-loop client
// goroutines, verifies every byte it reads back, and prints one JSON
// object of named metrics. README.md in this directory has the
// protocol, the metric tables and the reasons for each workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// setupReps is how often a run sets the system up from nothing.
// setup_s is the median of the set-up times, so one slow spawn or
// fsync does not decide it.
const setupReps = 3

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = flag.Uint64("seed", 1, "seed of the op stream and the payloads")
		seconds   = flag.Int("seconds", 0, "length of the measured phase (0: run_seconds of the spec)")
		trace     = flag.Int("trace", 0, "1: print the per-layer metrics instead of the end-to-end ones")
		binDir    = flag.String("bin", "", "directory holding the storaged and gatewayd binaries")
		workDir   = flag.String("work", "", "scratch directory for data dirs and span files")
		selfcheck = flag.Int("selfcheck", 0, "A/A check: run every workload in two interleaved sets of this many runs")
		specPath  = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json (for -selfcheck)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *binDir == "" || *workDir == "" {
		fatal(fmt.Errorf("-bin and -work are required (run.sh sets both)"))
	}
	e := env{binDir: *binDir, workDir: *workDir}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		fatal(err)
	}
	for _, b := range []string{"storaged", "gatewayd"} {
		if _, err := os.Stat(filepath.Join(e.binDir, b)); err != nil {
			fatal(fmt.Errorf("missing binary: %w", err))
		}
	}

	// Whatever ends the run — a signal, the watchdog, an error — the
	// daemons are killed and their directories removed first.
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sig
		cancel()
		time.Sleep(5 * time.Second)
		destroyAll()
		os.Exit(1)
	}()

	if *seconds == 0 {
		sp, err := readSpec(*specPath)
		if err != nil {
			fatal(fmt.Errorf("-seconds not given and no spec to take run_seconds from: %w", err))
		}
		*seconds = sp.RunSeconds
	}
	if *selfcheck > 0 {
		if err := selfCheck(ctx, e, *specPath, *selfcheck, *seconds, *name); err != nil {
			destroyAll()
			fatal(err)
		}
		return
	}

	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %d outside [1,60]", *seconds))
	}
	// A run must end within 180 s; one that has not by 170 s is stuck.
	ctx, stop := context.WithTimeout(ctx, 170*time.Second)
	defer stop()

	var res *result
	var err error
	if *trace != 0 {
		res, err = runLayers(ctx, e, w, *seed, *seconds)
	} else {
		res, err = runEndToEnd(ctx, e, w, *seed, *seconds)
	}
	destroyAll()
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// debugf reports progress on standard error when BENCH_DEBUG is set.
func debugf(format string, args ...any) {
	if os.Getenv("BENCH_DEBUG") != "" {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// windowsFor splits a measured phase over the run's deployments: up
// to four windows on each, of equal length.
func windowsFor(seconds int) (perDeployment int, each time.Duration) {
	n := min(4, max(1, seconds/setupReps))
	return n, time.Duration(seconds) * time.Second / time.Duration(n*setupReps)
}

func newRefs() []*ref {
	refs := make([]*ref, nClients)
	for i := range refs {
		refs[i] = newRef()
	}
	return refs
}

// timedSetUp sets the system up once and returns it with its set-up
// time scaled to nominal machine speed by calibration slices taken
// right before and after.
func timedSetUp(ctx context.Context, e env, w workload, seed uint64, refs []*ref, gens []*opGen) (*deployment, float64, error) {
	before := calibrate(refs)
	t0 := time.Now()
	d, err := setUp(ctx, e, w, seed, refs, gens)
	if err != nil {
		return nil, 0, err
	}
	el := time.Since(t0)
	s := slowdownOf(before, calibrate(refs))
	debugf("set-up %.3fs raw, slowdown %.3f", el.Seconds(), s)
	return d, el.Seconds() / s, nil
}

// measureRun is the untraced multi-process run: setupReps times it
// sets the system up from nothing and measures a share of the windows
// on it, so that neither the set-up time nor the measured phase hangs
// on how one set of processes happened to land on the CPUs. The last
// deployment is shut down cleanly and its data dirs are sized.
func measureRun(ctx context.Context, e env, w workload, seed uint64, seconds int) (m *measured, setupS float64, diskBytes int64, err error) {
	refs := newRefs()
	perDep, winDur := windowsFor(seconds)
	setups := make([]float64, setupReps)
	var gens []*opGen
	m = &measured{}
	for r := range setups {
		d, s, err := timedSetUp(ctx, e, w, seed, refs, gens)
		if err != nil {
			return nil, 0, 0, err
		}
		setups[r], gens = s, d.gens
		part, err := d.run(ctx, perDep, winDur)
		if err != nil {
			logs := d.cl.logs()
			d.tearDown()
			return nil, 0, 0, fmt.Errorf("%w\n%s", err, logs)
		}
		m.merge(part)
		if r < setupReps-1 {
			d.tearDown()
			continue
		}
		if diskBytes, err = d.finish(); err != nil {
			return nil, 0, 0, err
		}
	}
	return m, median(setups), diskBytes, nil
}

// runEndToEnd reports the end-to-end metrics of an untraced run.
func runEndToEnd(ctx context.Context, e env, w workload, seed uint64, seconds int) (*result, error) {
	m, setupS, disk, err := measureRun(ctx, e, w, seed, seconds)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   endToEnd(w, m, setupS, disk),
	}, nil
}
