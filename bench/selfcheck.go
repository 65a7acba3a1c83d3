package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spec is the part of BENCHMARK.json the self-check needs.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runChild runs one benchmark run as the driver would, in a process of
// its own (so that peak RSS starts from nothing), and parses the last
// line of its output.
func runChild(ctx context.Context, e env, workload string, seed uint64, seconds, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-bin", e.binDir, "-work", e.workDir,
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	// Ask before killing, so that an interrupted run removes its daemons
	// and data dirs itself.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 15 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	return &res, nil
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) does
// (the exclusive method), which is what the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(pos), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// selfCheck is the A/A test: every workload is run in two interleaved
// sets of `runs` runs of the same code, each run with another seed.
// For every end-to-end metric it prints both medians, how much worse
// the second is than the first, each set's quartile spread, and the
// bound; it fails if a worsening or a spread exceeds the bound.
func selfCheck(ctx context.Context, e env, specPath string, runs, seconds int, only string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	if runs < 3 {
		return errors.New("selfcheck needs at least 3 runs per set")
	}
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	failed := 0
	for i := 0; i < runs; i++ {
		for _, w := range sp.Workloads {
			if only != "" && w.Name != only {
				continue
			}
			for set := 0; set < 2; set++ {
				seed := uint64(1000 + 2*i + set)
				res, err := runChild(ctx, e, w.Name, seed, seconds, 0)
				if err != nil {
					return err
				}
				failed += res.Failed
				for _, m := range sp.EndToEnd {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						return fmt.Errorf("%s: metric %s missing or in %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
					}
					k := key{w.Name, m.Name}
					vals[set][k] = append(vals[set][k], got.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d %s set %c done\n", i+1, runs, w.Name, 'A'+set)
			}
		}
	}
	breaches := 0
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			k := key{w.Name, m.Name}
			a, b := vals[0][k], vals[1][k]
			if len(a) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && max(sa, sb) > m.Bound) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.Name, m.Name, a2, b2, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	// An A/A check compares a commit with itself: it can claim nothing.
	fmt.Println(`{"claim": null}`)
	var problems []string
	if breaches > 0 {
		problems = append(problems, fmt.Sprintf("%d metric/workload pairs outside their bound", breaches))
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d failed ops", failed))
	}
	if len(problems) > 0 {
		return errors.New("selfcheck: " + strings.Join(problems, "; "))
	}
	return nil
}
