package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchEnv, set in the environment, makes the test binary run the
// benchmark's main with its own arguments, so the smoke test runs the
// benchmark as a process of its own, as its users do.
const benchEnv = "TRUTHDISCOVERY_BENCH_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(benchEnv) != "" || os.Getenv(loadEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// declared is the part of BENCHMARK.json the smoke test checks.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload on tiny worlds for about a second, untraced
// and traced, and checks that each metric BENCHMARK.json declares is
// printed for each workload with its unit and lands in the summary line.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json declares unknown workload %s", w.Name)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		trace   string
		metrics []struct{ Name, Unit string }
		names   []string
	}{
		{"0", decl.EndToEnd, endToEnd},
		{"1", decl.PerLayer, perLayer},
	} {
		if len(c.metrics) != len(c.names) {
			t.Errorf("trace %s: BENCHMARK.json declares %d metrics, the summary carries %d", c.trace, len(c.metrics), len(c.names))
		}
		out := t.TempDir()
		cmd := exec.Command(exe, "-workload", "all", "-scale", "smoke", "-seconds", "0.8", "-trace", c.trace, "-out", out)
		cmd.Env = append(os.Environ(), benchEnv+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("trace %s: %v\n%s%s", c.trace, err, stdout, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var sum struct {
			Correct   bool
			Attempted int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("trace %s: summary line: %v", c.trace, err)
		}
		if !sum.Correct || sum.Attempted < 1 {
			t.Errorf("trace %s: summary %+v", c.trace, sum)
		}
		printed := make(map[string]string)
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) >= 4 {
				printed[f[0]+" "+f[1]] = f[3]
			}
		}
		for _, w := range decl.Workloads {
			for _, m := range c.metrics {
				if unit, ok := printed[w.Name+" "+m.Name]; !ok || unit != m.Unit {
					t.Errorf("trace %s: %s %s printed with unit %q, want %q", c.trace, w.Name, m.Name, unit, m.Unit)
				}
				if got := sum.Metrics[w.Name+"/"+m.Name]; got.Unit != m.Unit {
					t.Errorf("trace %s: summary %s/%s has unit %q, want %q", c.trace, w.Name, m.Name, got.Unit, m.Unit)
				}
			}
			if c.trace == "1" {
				if _, err := os.Stat(out + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("traced run wrote no trace for %s: %v", w.Name, err)
				}
			}
		}
	}
}

// The calibration sort runs beside the system under test, so the
// system's load must barely move it: here a goroutine per CPU streaming
// through 64MB, as stock-daily's advances keep both cores busy. The
// machine's own drift swings the sort by a quarter within seconds, so
// loaded and quiet sorts alternate every few milliseconds and their
// medians are compared.
func TestCalibrationIgnoresLoad(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory turns the sort into memory-bound work; the benchmark is built without it")
	}
	var on, stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]int, 8<<20)
			for !stop.Load() {
				if !on.Load() {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				for j := 0; j < len(buf) && on.Load(); j += 4096 {
					for k := j; k < j+4096; k += 8 {
						buf[k] += k
					}
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var quiet, loaded []time.Duration
	for i := 0; i < 200; i++ {
		on.Store(i%2 == 1)
		time.Sleep(2 * time.Millisecond)
		if i%2 == 1 {
			loaded = append(loaded, sortTime())
		} else {
			quiet = append(quiet, sortTime())
		}
	}
	if r := float64(pct(loaded, 0.5)) / float64(pct(quiet, 0.5)); r < 0.9 || r > 1.1 {
		t.Errorf("load on every core moved the calibration sort by %+.1f%% (median %v loaded, %v quiet)",
			(r-1)*100, pct(loaded, 0.5), pct(quiet, 0.5))
	}
}
