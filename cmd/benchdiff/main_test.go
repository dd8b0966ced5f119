package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestParseBench covers the line tokenizer end to end: ns/op and
// allocs/op routed to their maps, custom metrics (loadgen's percentile
// and throughput units) collected per benchmark, B/op skipped, and the
// cpu header captured.
func TestParseBench(t *testing.T) {
	const out = `goos: linux
goarch: amd64
cpu: Imaginary CPU @ 2.40GHz
BenchmarkIncrementalVoteFull-4   	     100	    500000 ns/op
BenchmarkSerialFuse-4            	      50	   2000000 ns/op	  1024 B/op	      12 allocs/op
BenchmarkServeLoadRead-4 	500	250000 ns/op	480000 p50-ns	900000 p99-ns	1200000 p999-ns	15000 req/s
PASS
ok  	truthdiscovery	3.2s
`
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CPU != "Imaginary CPU @ 2.40GHz" {
		t.Fatalf("CPU = %q", rec.CPU)
	}
	if got := rec.Benchmarks["BenchmarkIncrementalVoteFull-4"]; got != 500000 {
		t.Fatalf("reference ns/op = %v", got)
	}
	if got := rec.Allocs["BenchmarkSerialFuse-4"]; got != 12 {
		t.Fatalf("allocs/op = %v", got)
	}
	if _, ok := rec.Allocs["BenchmarkServeLoadRead-4"]; ok {
		t.Fatal("allocs recorded for a benchmark that reported none")
	}
	m := rec.Metrics["BenchmarkServeLoadRead-4"]
	for unit, want := range map[string]float64{
		"p50-ns": 480000, "p99-ns": 900000, "p999-ns": 1200000, "req/s": 15000,
	} {
		if m[unit] != want {
			t.Fatalf("metric %s = %v, want %v", unit, m[unit], want)
		}
	}
	if _, ok := m["B/op"]; ok {
		t.Fatal("B/op leaked into custom metrics")
	}
}

// TestParseBenchMedian: a benchmark repeated with -count N is recorded
// as the median of its runs, per unit.
func TestParseBenchMedian(t *testing.T) {
	const out = `BenchmarkA-4 10 300 ns/op 7 allocs/op 40 p50-ns
BenchmarkA-4 10 100 ns/op 9 allocs/op 10 p50-ns
BenchmarkA-4 10 900 ns/op 7 allocs/op 30 p50-ns
BenchmarkB-4 10 100 ns/op
BenchmarkB-4 10 200 ns/op
`
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Benchmarks["BenchmarkA-4"]; got != 300 {
		t.Errorf("odd-count ns/op = %v, want the median 300", got)
	}
	if got := rec.Benchmarks["BenchmarkB-4"]; got != 150 {
		t.Errorf("even-count ns/op = %v, want the mean of the middle two, 150", got)
	}
	if got := rec.Allocs["BenchmarkA-4"]; got != 7 {
		t.Errorf("allocs/op = %v, want 7", got)
	}
	if got := rec.Metrics["BenchmarkA-4"]["p50-ns"]; got != 30 {
		t.Errorf("p50-ns = %v, want 30", got)
	}
}

// rec builds a Record with the reference pinned at refNs so normalised
// ratios are easy to reason about.
func rec(refNs float64, bench map[string]float64, metrics map[string]map[string]float64) *Record {
	b := map[string]float64{"BenchmarkIncrementalVoteFull-4": refNs}
	for k, v := range bench {
		b[k] = v
	}
	return &Record{Benchmarks: b, Metrics: metrics}
}

const ref = "BenchmarkIncrementalVoteFull"

// TestCompareHardwareNormalised: a benchmark that doubled on a machine
// where the reference also doubled is not a regression; one that doubled
// against a steady reference is.
func TestCompareHardwareNormalised(t *testing.T) {
	oldRec := rec(1000, map[string]float64{"BenchmarkSerialFuse-4": 10000}, nil)

	// Everything (including the reference) doubled: slower machine, no
	// regression.
	slower := rec(2000, map[string]float64{"BenchmarkSerialFuse-4": 20000}, nil)
	if !compare(oldRec, slower, ref, 1.20) {
		t.Fatal("uniformly slower machine flagged as regression")
	}

	// Only the benchmark doubled: real regression.
	regressed := rec(1000, map[string]float64{"BenchmarkSerialFuse-4": 20000}, nil)
	if compare(oldRec, regressed, ref, 1.20) {
		t.Fatal("2x normalised slowdown passed the 1.2x gate")
	}
}

// TestCompareMissingBenchmark: a baseline entry absent from the
// candidate (renamed or deleted) fails the gate instead of dropping out
// of it; a candidate entry the baseline lacks is listed, not gated.
func TestCompareMissingBenchmark(t *testing.T) {
	oldRec := rec(1000, map[string]float64{"BenchmarkA-4": 5000, "BenchmarkB-4": 5000}, nil)
	if compare(oldRec, rec(1000, map[string]float64{"BenchmarkA-4": 5000}, nil), ref, 1.20) {
		t.Fatal("a vanished baseline benchmark passed the gate")
	}
	if compare(oldRec, rec(1000, map[string]float64{"BenchmarkA-4": 5000, "BenchmarkBRenamed-4": 5000}, nil), ref, 1.20) {
		t.Fatal("a renamed baseline benchmark passed the gate")
	}
	extra := rec(1000, map[string]float64{"BenchmarkA-4": 5000, "BenchmarkB-4": 5000, "BenchmarkC-4": 1e9}, nil)
	if !compare(oldRec, extra, ref, 1.20) {
		t.Fatal("a benchmark new to the candidate was gated")
	}
}

// TestCompareMetricsGating pins the custom-metric directions: latency
// percentiles gate on growth, req/s gates on shrinkage, both hardware-
// normalised, and p999-ns never gates.
func TestCompareMetricsGating(t *testing.T) {
	base := func() map[string]map[string]float64 {
		return map[string]map[string]float64{
			"BenchmarkServeLoadRead-4": {
				"p50-ns": 400000, "p99-ns": 800000, "p999-ns": 1000000, "req/s": 10000,
			},
		}
	}
	oldRec := rec(1000, nil, base())

	// Identical metrics pass.
	if !compare(oldRec, rec(1000, nil, base()), ref, 1.20) {
		t.Fatal("identical metrics failed the gate")
	}

	// p50 doubled against a steady reference: regression.
	worse := base()
	worse["BenchmarkServeLoadRead-4"]["p50-ns"] = 800000
	if compare(oldRec, rec(1000, nil, worse), ref, 1.20) {
		t.Fatal("doubled p50 passed the gate")
	}

	// p50 doubled on a machine whose reference also doubled: fine.
	if !compare(oldRec, rec(2000, nil, worse), ref, 1.20) {
		t.Fatal("hardware-matched p50 growth flagged as regression")
	}

	// Throughput halved against a steady reference: regression (the
	// higher-better direction).
	slower := base()
	slower["BenchmarkServeLoadRead-4"]["req/s"] = 5000
	if compare(oldRec, rec(1000, nil, slower), ref, 1.20) {
		t.Fatal("halved req/s passed the gate")
	}

	// Throughput halved because the whole machine is 2x slower: the
	// reference ns/op doubles, reference-ops-per-request is unchanged.
	if !compare(oldRec, rec(2000, nil, slower), ref, 1.20) {
		t.Fatal("hardware-matched throughput drop flagged as regression")
	}

	// p999 is trajectory-only: a 10x tail blowup does not gate.
	tail := base()
	tail["BenchmarkServeLoadRead-4"]["p999-ns"] = 10000000
	if !compare(oldRec, rec(1000, nil, tail), ref, 1.20) {
		t.Fatal("ungated p999-ns failed the build")
	}

	// A baseline without metrics gates nothing.
	if !compare(&Record{Benchmarks: map[string]float64{}}, rec(1000, nil, base()), ref, 1.20) {
		t.Fatal("metric-less baseline failed the gate")
	}
}

// TestCompareAllocs: zero-alloc loops gate at any growth, others at the
// threshold factor, raw (no hardware normalisation).
func TestCompareAllocs(t *testing.T) {
	oldRec := &Record{
		Benchmarks: map[string]float64{"BenchmarkX-4": 1000},
		Allocs:     map[string]float64{"BenchmarkX-4": 0, "BenchmarkY-4": 100},
	}
	pass := &Record{
		Benchmarks: map[string]float64{"BenchmarkX-4": 1000},
		Allocs:     map[string]float64{"BenchmarkX-4": 0, "BenchmarkY-4": 110},
	}
	if !compareAllocs(oldRec, pass, 1.20) {
		t.Fatal("within-threshold alloc growth failed")
	}
	broken := &Record{Allocs: map[string]float64{"BenchmarkX-4": 1}}
	if compareAllocs(oldRec, broken, 1.20) {
		t.Fatal("zero-alloc loop now allocating passed")
	}
	grown := &Record{Allocs: map[string]float64{"BenchmarkY-4": 150}}
	if compareAllocs(oldRec, grown, 1.20) {
		t.Fatal("1.5x alloc growth passed the 1.2x gate")
	}
}

// TestCpuSuffix pins the name/suffix split the normaliser depends on.
func TestCpuSuffix(t *testing.T) {
	cases := []struct{ in, base, suffix string }{
		{"BenchmarkFoo-4", "BenchmarkFoo", "-4"},
		{"BenchmarkFoo-16", "BenchmarkFoo", "-16"},
		{"BenchmarkFoo", "BenchmarkFoo", ""},
		{"BenchmarkFoo-bar", "BenchmarkFoo-bar", ""},
	}
	for _, tc := range cases {
		base, suffix := cpuSuffix(tc.in)
		if base != tc.base || suffix != tc.suffix {
			t.Fatalf("cpuSuffix(%q) = %q, %q", tc.in, base, suffix)
		}
	}
}
