// Command benchdiff turns `go test -bench` output into a compact JSON
// record and gates benchmark regressions against a committed baseline.
//
// Parse mode — write the current run as JSON (CI uploads this per push):
//
//	go test -run '^$' -bench '(Serial|Parallel|Incremental)' -cpu 1,4 . | tee bench.txt
//	benchdiff -parse bench.txt > BENCH_$(git rev-parse HEAD).json
//
// Compare mode — fail (exit 1) when any benchmark regressed more than the
// threshold factor versus the baseline:
//
//	benchdiff -old testdata/bench_baseline.json -new BENCH_abc.json -threshold 1.20
//
// Baselines recorded on one machine gate runs on another, so comparisons
// are hardware-normalised: each benchmark's ns/op is divided by the ns/op
// of a reference benchmark from the same file (matched per -cpu suffix),
// and the gate fires on the ratio of those ratios. A benchmark twice as
// slow on a machine where the reference is also twice as slow is not a
// regression. Absolute ns/op stay in the JSON for trajectory tracking.
//
// A benchmark repeated in the input (go test -count N, or several runs
// concatenated) is recorded as the median of its runs, per unit, so a
// baseline regenerated from five runs does not inherit one noisy run.
//
// allocs/op (from -benchmem) is parsed and gated too, but raw: allocation
// counts do not depend on the machine. A benchmark recorded at zero
// allocs/op fails on any growth; the rest fail on the same threshold
// factor. (The committed pairs measure whole Runs, which allocate their
// per-run scratch once — the warm-round zero-alloc property is asserted
// directly by internal/fusion/alloc_test.go.)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Record is the JSON shape benchdiff reads and writes.
type Record struct {
	// Goos/Goarch/CPU describe the recording machine (informational).
	Goos   string `json:"goos"`
	Goarch string `json:"goarch"`
	CPU    string `json:"cpu,omitempty"`
	// Benchmarks maps the full benchmark name (including any -N cpu
	// suffix) to ns/op.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Allocs maps the benchmark name to allocs/op (present when the run
	// used -benchmem). Unlike ns/op, allocation counts are hardware-
	// independent, so the gate compares them raw: a zero-alloc loop may
	// not regress at all, everything else by at most the threshold.
	Allocs map[string]float64 `json:"allocs,omitempty"`
	// Metrics maps the benchmark name to its custom metrics (unit →
	// value): everything b.ReportMetric or truthload emits beyond
	// ns/op, B/op and allocs/op — latency percentiles (p50-ns, p99-ns,
	// p999-ns), req/s, dirty%/day. The latency and throughput units are
	// gated hardware-normalised like ns/op (see compareMetrics); the
	// rest ride along for trajectory tracking.
	Metrics map[string]map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches the head of a result line, e.g.
// "BenchmarkFoo-4   123  9876543 ns/op  ..."; the trailing (value, unit)
// metric pairs are tokenized by parseMetrics.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// cpuLine captures the "cpu: ..." header go test prints.
var cpuLine = regexp.MustCompile(`^cpu: (.+)$`)

func main() {
	var (
		parse     = flag.String("parse", "", "parse `go test -bench` output from this file ('-' = stdin) and print JSON")
		oldPath   = flag.String("old", "", "baseline JSON (compare mode)")
		newPath   = flag.String("new", "", "candidate JSON (compare mode)")
		threshold = flag.Float64("threshold", 1.20, "fail when normalised ns/op grows past this factor")
		ref       = flag.String("ref", "BenchmarkIncrementalVoteFull", "reference benchmark used to normalise across machines")
	)
	flag.Parse()

	switch {
	case *parse != "":
		rec, err := parseBench(*parse)
		if err != nil {
			fatal(err)
		}
		out, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	case *oldPath != "" && *newPath != "":
		oldRec, err := readRecord(*oldPath)
		if err != nil {
			fatal(err)
		}
		newRec, err := readRecord(*newPath)
		if err != nil {
			fatal(err)
		}
		if !compare(oldRec, newRec, *ref, *threshold) {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: benchdiff -parse bench.txt | benchdiff -old base.json -new cand.json [-threshold 1.2] [-ref Benchmark...]")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func parseBench(path string) (*Record, error) {
	f := os.Stdin
	if path != "-" {
		var err error
		if f, err = os.Open(path); err != nil {
			return nil, err
		}
		defer f.Close()
	}
	rec := &Record{
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		Benchmarks: map[string]float64{},
	}
	// samples[name][unit] collects the values of every result line.
	samples := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := cpuLine.FindStringSubmatch(line); m != nil {
			rec.CPU = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
		}
		for unit, val := range parseMetrics(m[2]) {
			samples[name][unit] = append(samples[name][unit], val)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, units := range samples {
		for unit, vals := range units {
			val := median(vals)
			switch unit {
			case "ns/op":
				rec.Benchmarks[name] = val
			case "allocs/op":
				if rec.Allocs == nil {
					rec.Allocs = map[string]float64{}
				}
				rec.Allocs[name] = val
			case "B/op", "MB/s":
				// Covered by allocs/op and ns/op respectively; skip.
			default:
				if rec.Metrics == nil {
					rec.Metrics = map[string]map[string]float64{}
				}
				if rec.Metrics[name] == nil {
					rec.Metrics[name] = map[string]float64{}
				}
				rec.Metrics[name][unit] = val
			}
		}
	}
	if len(rec.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return rec, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), leaving xs unordered.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parseMetrics tokenizes the (value, unit) pairs trailing a benchmark
// result line: "9876543 ns/op 120 B/op 7 allocs/op 12345 p50-ns ...".
// Tokens that do not parse as a number end the scan (nothing after the
// metric pairs is meaningful).
func parseMetrics(tail string) map[string]float64 {
	fields := strings.Fields(tail)
	out := make(map[string]float64, len(fields)/2)
	for i := 0; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break
		}
		out[fields[i+1]] = val
	}
	return out
}

func readRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// cpuSuffix splits "BenchmarkFoo-4" into ("BenchmarkFoo", "-4"); names
// without a numeric suffix return ("BenchmarkFoo", "").
func cpuSuffix(name string) (base, suffix string) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name, ""
	}
	return name[:i], name[i:]
}

// normalised returns ns/op divided by the record's reference benchmark at
// the same cpu suffix (falling back to the bare reference), and whether a
// reference value was available.
func normalised(rec *Record, name, ref string, ns float64) (float64, bool) {
	_, suffix := cpuSuffix(name)
	if r, ok := rec.Benchmarks[ref+suffix]; ok && r > 0 {
		return ns / r, true
	}
	if r, ok := rec.Benchmarks[ref]; ok && r > 0 {
		return ns / r, true
	}
	return ns, false
}

func compare(oldRec, newRec *Record, ref string, threshold float64) bool {
	// A gated benchmark that disappears (renamed or deleted) must not drop
	// out of the gate silently; a new one has no baseline to gate against.
	var names, missing, ungated []string
	for name := range oldRec.Benchmarks {
		if _, ok := newRec.Benchmarks[name]; ok {
			names = append(names, name)
		} else {
			missing = append(missing, name)
		}
	}
	for name := range newRec.Benchmarks {
		if _, ok := oldRec.Benchmarks[name]; !ok {
			ungated = append(ungated, name)
		}
	}
	sort.Strings(names)
	sort.Strings(missing)
	sort.Strings(ungated)
	for _, name := range ungated {
		fmt.Printf("%-50s %12s %12.0f  (not in the baseline — not gated)\n", name, "-", newRec.Benchmarks[name])
	}
	ok := len(missing) == 0
	for _, name := range missing {
		fmt.Printf("%-50s %12.0f %12s  MISSING (baseline entry absent from the candidate)\n", name, oldRec.Benchmarks[name], "-")
	}
	if !ok {
		fmt.Printf("benchdiff: %d baseline benchmarks missing from the candidate\n", len(missing))
	}
	if len(names) == 0 {
		fmt.Println("benchdiff: no common benchmarks; nothing to gate")
		return ok
	}

	fmt.Printf("%-50s %12s %12s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	regressed := false
	for _, name := range names {
		oldNs, newNs := oldRec.Benchmarks[name], newRec.Benchmarks[name]
		if base, _ := cpuSuffix(name); base == ref {
			// The reference cannot be normalised by itself; its raw ratio
			// is hardware-dependent, so it is reported loudly (a slower
			// reference deflates every other normalised ratio) but only
			// warned about, never gated.
			raw := 1.0
			if oldNs > 0 {
				raw = newNs / oldNs
			}
			verdict := "  (reference, raw ratio — not gated)"
			if raw > threshold {
				verdict += "  WARNING: reference slowed down; other ratios are deflated"
			}
			fmt.Printf("%-50s %12.0f %12.0f %7.2fx%s\n", name, oldNs, newNs, raw, verdict)
			continue
		}
		oldN, oldHasRef := normalised(oldRec, name, ref, oldNs)
		newN, newHasRef := normalised(newRec, name, ref, newNs)
		if !oldHasRef || !newHasRef {
			// Without a reference on both sides the only available ratio
			// is raw cross-machine ns/op — exactly what this tool exists
			// to avoid gating on. Report it, don't fail on it.
			raw := 1.0
			if oldNs > 0 {
				raw = newNs / oldNs
			}
			fmt.Printf("%-50s %12.0f %12.0f %7.2fx  (no reference — not gated)\n",
				name, oldNs, newNs, raw)
			continue
		}
		ratio := 1.0
		if oldN > 0 {
			ratio = newN / oldN
		}
		verdict := ""
		if ratio > threshold {
			verdict = "  REGRESSION"
			regressed = true
		}
		fmt.Printf("%-50s %12.0f %12.0f %7.2fx%s\n", name, oldNs, newNs, ratio, verdict)
	}
	ok = ok && !regressed
	if regressed {
		fmt.Printf("benchdiff: normalised regression past %.2fx (reference %s)\n", threshold, ref)
	}
	if !compareAllocs(oldRec, newRec, threshold) {
		ok = false
	}
	if !compareMetrics(oldRec, newRec, ref, threshold) {
		ok = false
	}
	return ok
}

// gatedUnits maps the custom-metric units the gate enforces to their
// direction: lowerBetter units (latency percentiles) are normalised by
// dividing by the reference ns/op, higherBetter units (throughput) by
// multiplying — req/s times the reference's ns-per-op is reference-ops
// per request, a machine-free measure of serving work. p999-ns is
// deliberately ungated: at 3x-iteration CI benchtimes the extreme tail
// is one sample and pure noise, so it is recorded for trajectory only.
const (
	lowerBetter = iota
	higherBetter
)

var gatedUnits = map[string]int{
	"p50-ns": lowerBetter,
	"p99-ns": lowerBetter,
	"req/s":  higherBetter,
}

// compareMetrics gates the custom latency/throughput metrics with the
// same hardware normalisation as ns/op. Units outside gatedUnits are
// reported but never fail the build.
func compareMetrics(oldRec, newRec *Record, ref string, threshold float64) bool {
	type key struct{ name, unit string }
	keys := make([]key, 0, len(newRec.Metrics))
	for name, units := range newRec.Metrics {
		for unit := range units {
			if _, ok := oldRec.Metrics[name][unit]; ok {
				keys = append(keys, key{name, unit})
			}
		}
	}
	if len(keys) == 0 {
		return true // baseline predates metric tracking; nothing to gate
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].name != keys[b].name {
			return keys[a].name < keys[b].name
		}
		return keys[a].unit < keys[b].unit
	})
	ok := true
	fmt.Printf("\n%-50s %12s %12s %8s\n", "metric", "old", "new", "ratio")
	for _, k := range keys {
		oldV, newV := oldRec.Metrics[k.name][k.unit], newRec.Metrics[k.name][k.unit]
		label := k.name + " " + k.unit
		dir, gated := gatedUnits[k.unit]
		oldN, oldHasRef := normalisedMetric(oldRec, k.name, ref, k.unit, dir, oldV)
		newN, newHasRef := normalisedMetric(newRec, k.name, ref, k.unit, dir, newV)
		if !gated || !oldHasRef || !newHasRef {
			note := "  (not gated)"
			if gated {
				note = "  (no reference — not gated)"
			}
			raw := 1.0
			if oldV > 0 {
				raw = newV / oldV
			}
			fmt.Printf("%-50s %12.0f %12.0f %7.2fx%s\n", label, oldV, newV, raw, note)
			continue
		}
		// Express the gate uniformly as "how much worse did it get".
		worse := 1.0
		switch {
		case dir == lowerBetter && oldN > 0:
			worse = newN / oldN
		case dir == higherBetter && newN > 0:
			worse = oldN / newN
		}
		verdict := ""
		if worse > threshold {
			verdict = "  REGRESSION"
			ok = false
		}
		fmt.Printf("%-50s %12.0f %12.0f %7.2fx%s\n", label, oldV, newV, worse, verdict)
	}
	if !ok {
		fmt.Printf("benchdiff: normalised latency/throughput regression past %.2fx (reference %s)\n", threshold, ref)
	}
	return ok
}

// normalisedMetric hardware-normalises one gated metric against the
// record's reference benchmark at the matching cpu suffix: latencies
// divide by the reference ns/op, throughputs multiply by it.
func normalisedMetric(rec *Record, name, ref, unit string, dir int, v float64) (float64, bool) {
	_, suffix := cpuSuffix(name)
	r, ok := rec.Benchmarks[ref+suffix]
	if !ok || r <= 0 {
		if r, ok = rec.Benchmarks[ref]; !ok || r <= 0 {
			return v, false
		}
	}
	if dir == higherBetter {
		return v * r, true
	}
	return v / r, true
}

// compareAllocs gates allocs/op raw (allocation counts are hardware-
// independent): a benchmark recorded at zero allocs/op must stay at
// zero, and everything else may grow by at most the threshold factor —
// with per-run scratch hoisted out of the round loops, a Run's count is
// a small constant, so a layout regression blows well past it.
func compareAllocs(oldRec, newRec *Record, threshold float64) bool {
	names := make([]string, 0, len(newRec.Allocs))
	for name := range newRec.Allocs {
		if _, ok := oldRec.Allocs[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return true // baseline predates alloc tracking; nothing to gate
	}
	sort.Strings(names)
	ok := true
	fmt.Printf("\n%-50s %12s %12s\n", "benchmark", "old allocs", "new allocs")
	for _, name := range names {
		oldA, newA := oldRec.Allocs[name], newRec.Allocs[name]
		verdict := ""
		switch {
		case oldA == 0 && newA > 0:
			verdict = "  REGRESSION (zero-alloc loop now allocates)"
			ok = false
		case oldA > 0 && newA > oldA*threshold:
			verdict = "  REGRESSION"
			ok = false
		}
		fmt.Printf("%-50s %12.0f %12.0f%s\n", name, oldA, newA, verdict)
	}
	if !ok {
		fmt.Printf("benchdiff: allocs/op regression past %.2fx (zero-alloc loops gate at any growth)\n", threshold)
	}
	return ok
}
