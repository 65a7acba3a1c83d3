package main

import (
	"context"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestSmoke runs every workload of BENCHMARK.json once untraced and
// once traced, with windows of about a second, against freshly built
// daemons. It asserts the contract between BENCHMARK.json and the
// program — every metric named there is emitted with its unit, nothing
// else is, and no op fails — and nothing about speed, so it gives the
// same answer on a loaded box.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemons and takes about three minutes")
	}
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(workloads))
	}
	e := env{binDir: t.TempDir(), workDir: t.TempDir()}
	build := exec.Command("go", "build", "-o", e.binDir+string(os.PathSeparator), "./cmd/storaged", "./cmd/gatewayd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, out)
	}
	t.Cleanup(destroyAll)

	check := func(t *testing.T, res *result, want []specMetric, nonZero bool) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("metric %s not emitted", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			case nonZero && !(got.Value > 0):
				t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, got.Value)
			}
		}
	}
	for _, sw := range sp.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, the program has none", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
			defer cancel()
			res, err := runEndToEnd(ctx, e, w, 1, setupReps)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, sp.EndToEnd, true)

			// The traced run gets its real length: its check that the
			// assembly issues the real deployment's RPCs per op needs
			// the real deployment's cache to be as warm as it gets.
			res, err = runLayers(ctx, e, w, 1, sp.RunSeconds)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, sp.PerLayer, false)
			if f := res.Metrics["client.fail_frac"].Value; f != 0 {
				t.Errorf("client.fail_frac = %v", f)
			}
		})
	}
}
