// Command bench is the repository's end-to-end benchmark. It builds the
// serving system in-process with the same constructors and defaults as
// cmd/truthserved, drives one or all of four workloads against it over
// loopback HTTP from a load process of its own (load.go), checks the
// served answers bit for bit, and prints one line per metric followed by a
// JSON summary line.
//
//	go run . -workload stock-daily -seed 1 -seconds 25 -trace 0
//	go run . -workload all -seed 1 -out out
//
// With -trace 0 the run measures the end-to-end metrics. With -trace 1 it
// traces every other operation and reports per-layer metrics from the
// spans, and the traced operations' median over the untraced ones as the
// tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	scale    scale
	repeat   int
	load     *loader
	// work holds the runs' stores.
	work string
}

// endToEnd and perLayer are the metrics the summary line carries with
// -trace 0 and -trace 1; BENCHMARK.json declares the same names.
var (
	endToEnd = []string{"setup_s", "heap_mb", "op_p50_ms", "side_p50_ms", "table_idle_p50_ms", "cpu_ms_per_op"}
	perLayer = []string{
		"fusion.build_ms", "fusion.build_allocs", "publish.run_ms", "publish.rounds",
		"publish.answers_ms", "publish.view_ms",
		"runtime.gc_pause_ms", "runtime.gc_cycles", "runtime.alloc_mb", "runtime.cpu_s",
		"trace.overhead_pct",
	}
)

// errUsage marks a bad command line.
var errUsage = errors.New("usage")

func main() {
	if os.Getenv(loadEnv) != "" {
		if err := loadMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench load process:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := &options{}
	var scaleName string
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: stock-daily, lowchurn-daily, read-mix, live-ingest or all")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured seconds per workload run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
	fs.StringVar(&o.out, "out", "", "directory for metrics.json, trace-<workload>.json and the runs' stores (empty: none written, stores in the system temp dir)")
	fs.StringVar(&scaleName, "scale", "full", "world sizes: full (paper defaults) or smoke (tiny)")
	fs.IntVar(&o.repeat, "repeat", 1, "runs per workload, seeds seed..seed+repeat-1; prints each metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	var ok bool
	if o.scale, ok = scales[scaleName]; !ok {
		return usage(fs, "-scale must be full or smoke, got %q", scaleName)
	}
	if trace != 0 && trace != 1 {
		return usage(fs, "-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 || o.repeat < 1 {
		return usage(fs, "-seconds and -repeat must be positive")
	}
	var selected []*workload
	if o.workload == "all" {
		selected = workloads
	} else if wl := workloadByName(o.workload); wl != nil {
		selected = []*workload{wl}
	} else {
		return usage(fs, "unknown -workload %q", o.workload)
	}

	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
	}
	work, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.work = work
	if o.load, err = startLoader(); err != nil {
		return err
	}
	err = runSelected(o, selected, stdout)
	if cerr := o.load.close(); err == nil && cerr != nil {
		err = fmt.Errorf("load process: %w", cerr)
	}
	return err
}

// runSelected runs the selected workloads and prints their metrics and
// the summary line.
func runSelected(o *options, selected []*workload, stdout io.Writer) error {
	var reports []*report
	for _, wl := range selected {
		var runs []*report
		for i := 0; i < o.repeat; i++ {
			rep, err := runWorkload(o, wl, o.seed+int64(i))
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", wl.name, o.seed+int64(i), err)
			}
			if o.repeat > 1 {
				rep.print(stdout, fmt.Sprintf("seed=%d ", o.seed+int64(i)))
			}
			runs = append(runs, rep)
		}
		rep := combine(runs)
		rep.print(stdout, "")
		reports = append(reports, rep)
	}
	if o.out != "" {
		if err := writeMetrics(filepath.Join(o.out, "metrics.json"), reports); err != nil {
			return err
		}
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	return summary(stdout, reports, names)
}

func usage(fs *flag.FlagSet, format string, args ...any) error {
	fmt.Fprintf(fs.Output(), format+"\n", args...)
	fs.Usage()
	return errUsage
}

// report is one workload's printed outcome.
type report struct {
	workload          string
	metrics           []metric
	attempted, failed int
	// spread holds, after combine, each metric's quartiles across runs.
	spread map[string][2]float64
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes one line per metric: workload, name, value, unit, note.
func (r *report) print(w io.Writer, prefix string) {
	for _, m := range r.metrics {
		note := m.Note
		if q, ok := r.spread[m.Name]; ok {
			spread := 0.0
			if m.Value != 0 {
				spread = (q[1] - q[0]) / m.Value * 100
			}
			note = strings.TrimSpace(fmt.Sprintf("median q1=%s q3=%s spread=%.1f%% %s",
				num(q[0]), num(q[1]), spread, note))
		}
		fmt.Fprintf(w, "%s%s %s %s %s", prefix, r.workload, m.Name, num(m.Value), m.Unit)
		if note != "" {
			fmt.Fprintf(w, " (%s)", note)
		}
		fmt.Fprintln(w)
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// combine reduces repeated runs of one workload to each metric's median,
// keeping the quartiles; a single run passes through.
func combine(runs []*report) *report {
	if len(runs) == 1 {
		return runs[0]
	}
	out := &report{workload: runs[0].workload, spread: make(map[string][2]float64)}
	for _, m := range runs[0].metrics {
		var vals []float64
		for _, r := range runs {
			if rm, ok := r.get(m.Name); ok {
				vals = append(vals, rm.Value)
			}
		}
		q1, med, q3 := quartiles(vals)
		out.add(m.Name, med, m.Unit, fmt.Sprintf("%d runs", len(vals)))
		out.spread[m.Name] = [2]float64{q1, q3}
	}
	for _, r := range runs {
		out.attempted += r.attempted
		out.failed += r.failed
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// writeMetrics writes every printed metric, by workload.
func writeMetrics(path string, reports []*report) error {
	all := make(map[string]map[string]jsonMetric)
	for _, r := range reports {
		ms := make(map[string]jsonMetric)
		for _, m := range r.metrics {
			ms[m.Name] = jsonMetric{m.Value, m.Unit, m.Note}
		}
		all[r.workload] = ms
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// summary prints the JSON summary line with the named metrics. With more
// than one workload the keys are workload/metric.
func summary(w io.Writer, reports []*report, names []string) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, r := range reports {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, name := range names {
			m, ok := r.get(name)
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", r.workload, name)
			}
			key := name
			if len(reports) > 1 {
				key = r.workload + "/" + name
			}
			out.Metrics[key] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// runWorkload generates the world, sets the system up, runs the phase and
// the correctness checks, and returns the metrics.
func runWorkload(o *options, wl *workload, seed int64) (*report, error) {
	w, err := wl.world(seed, o.scale)
	if err != nil {
		return nil, err
	}
	heap0 := liveHeap()
	rep := &report{workload: wl.name}
	rep.add("input_mb", float64(heap0)/(1<<20), "MB", "live heap after input generation")

	r := &runner{o: o, seed: seed, w: w, cur: w.day0}
	defer r.stop()
	cal := startCalibrator()
	defer cal.finish()
	m, err := drive(r, wl, rep)
	if err != nil {
		return nil, err
	}
	t, ph := m.t, m.ph
	sortTime := cal.finish()
	rep.attempted, rep.failed = ph.attempted, ph.failed
	op, side := ph.lat(wl.op, false), ph.lat(wl.side, false)
	if len(op) == 0 || len(side) == 0 || (t != nil && len(ph.lat(wl.op, true)) == 0) {
		return nil, fmt.Errorf("no %s or no %s completed (%s)", wl.op, wl.side, ph.firstFailure)
	}
	rep.add("calib.sort_us", us(sortTime), "us", "median thread CPU time of the calibration sort")
	if t == nil {
		speed := float64(refSort) / float64(sortTime)
		scaled := func(name string, raw, speed float64, unit, note string) {
			rep.add(name, raw*speed, unit, note+", at reference speed")
			rep.add("raw."+name, raw, unit, note+", as measured")
		}
		scaled("setup_s", pct(m.setups, 0.5).Seconds(), speed, "s", fmt.Sprintf("median of %d", len(m.setups)))
		rep.add("heap_mb", float64(int64(liveHeap())-int64(heap0))/(1<<20), "MB", "")
		scaled("op_p50_ms", ms(pct(op, 0.5)), speed, "ms", fmt.Sprintf("%s p50 of %d", wl.op, len(op)))
		scaled("side_p50_ms", ms(pct(side, 0.5)), speed, "ms", fmt.Sprintf("%s p50 of %d", wl.side, len(side)))
		// The table reads take a second; the machine's speed over that
		// second is the sorts timed between them.
		scaled("table_idle_p50_ms", ms(pct(m.table, 0.5)), float64(refSort)/float64(pct(m.tableSorts, 0.5)), "ms",
			fmt.Sprintf("p50 of %d full-table reads after set-up", len(m.table)))
		scaled("cpu_ms_per_op", ms(ph.proc.cpu)/float64(len(op)), speed, "ms", "process CPU per "+wl.op)
	} else {
		traced := ph.lat(wl.op, true)
		rep.add("trace.overhead_pct", (ms(pct(traced, 0.5))/ms(pct(op, 0.5))-1)*100, "%",
			fmt.Sprintf("p50 of the %d traced %ss over the %d untraced", len(traced), wl.op, len(op)))
	}
	procLines(rep, ph.proc)
	phaseLines(rep, ph)
	if t != nil {
		spans := t.Spans()
		layerLines(rep, r, ph, spans)
		if o.out != "" {
			if err := WriteTrace(filepath.Join(o.out, "trace-"+wl.name+".json"), spans); err != nil {
				return nil, err
			}
		}
	}
	rep.add("failed_pct", 100*float64(rep.failed)/float64(rep.attempted), "%", fmt.Sprintf("%d of %d", rep.failed, rep.attempted))
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %s\n", wl.name, rep.failed, rep.attempted, ph.firstFailure)
	}
	return rep, check(r)
}

// measured is what drive measured.
type measured struct {
	setups []time.Duration
	// table holds the idle full-table reads, tableSorts the calibration
	// sorts timed between them.
	table, tableSorts []time.Duration
	// t is the traced run's tracer.
	t  *Tracer
	ph *phase
}

// drive sets the system up, as many times as the scale says in an
// untraced run and once in a traced one, times full-table reads of the
// idle system in an untraced run, and drives the workload's phase.
func drive(r *runner, wl *workload, rep *report) (*measured, error) {
	o, w := r.o, r.w
	m := &measured{}
	fp := fingerprint(w)
	setups := o.scale.setups
	if o.trace {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if r.s != nil {
			r.s.stop()
		}
		began := time.Now()
		var err error
		if r.s, err = startSystem(w, fp, o.work); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(began))
	}
	var err error
	if wl.fleet {
		began := time.Now()
		if r.fl, err = startFleet(r.s); err != nil {
			return nil, err
		}
		rep.add("dist.setup_ms", ms(time.Since(began)), "ms", "fleet Init + RunAndPublish")
	}
	if o.trace {
		snap, err := r.snapshot()
		if err != nil {
			return nil, err
		}
		coldLines(rep, r.s, snap)
		if w.daily() {
			r.pipe = newPipeline(r.s, snap)
		}
		m.t = NewTracer()
		r.s.tracer.Store(m.t)
	} else if m.table, m.tableSorts, err = timeTable(r.s.http.url); err != nil {
		return nil, err
	}
	before := readProc()
	m.ph, err = wl.phase(r, time.Duration(o.seconds*float64(time.Second)), m.t)
	r.s.tracer.Store(nil)
	if err != nil {
		return nil, err
	}
	m.ph.proc = readProc().sub(before)
	return m, nil
}

// tableReads is how many full-table reads table_idle_p50_ms takes the
// median of.
const tableReads = 25

// timeTable reads the full answer table tableReads times, one after the
// other, from the idle system, and returns each read's latency, request
// sent to body read, and a calibration sort timed before each read. The
// table is every workload's largest response, and its encoding the
// serving layer's heaviest job. Timed under the daily workloads'
// advances instead, its p50 spread by 21% over eight seeds.
func timeTable(url string) (lat, sorts []time.Duration, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < tableReads; i++ {
		sorts = append(sorts, sortTime())
		began := time.Now()
		if _, err := getBody(url + "/v1/answers"); err != nil {
			return nil, nil, err
		}
		lat = append(lat, time.Since(began))
	}
	return lat, sorts, nil
}

// check runs the end-of-run correctness checks.
func check(r *runner) error {
	snap, err := r.snapshot()
	if err != nil {
		return err
	}
	if err := checkCold(r.s, snap); err != nil {
		return err
	}
	if err := checkStore(r.s); err != nil {
		return err
	}
	if r.s.ing != nil {
		if err := checkIngest(r.s); err != nil {
			return err
		}
	}
	if r.pipe != nil {
		if err := checkPipeline(r.pipe); err != nil {
			return err
		}
	}
	if r.fl != nil {
		return checkRouted(r.s.http.url, r.fl.url)
	}
	return nil
}

func qName(q float64) string {
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}

// latLines prints a latency stream's median and its highest percentile
// with at least ten samples beyond it.
func latLines(rep *report, name string, samples []time.Duration) {
	if len(samples) == 0 {
		return
	}
	q := tailQ(len(samples))
	rep.add(name+"_p50_ms", ms(pct(samples, 0.5)), "ms", fmt.Sprintf("n=%d", len(samples)))
	rep.add(name+"_"+qName(q)+"_ms", ms(pct(samples, q)), "ms", fmt.Sprintf("n=%d", len(samples)))
}

// phaseLines prints the latency of every route and the generator's
// lateness per stream.
func phaseLines(rep *report, ph *phase) {
	latLines(rep, "advance", ph.advances)
	names := make([]string, 0, len(ph.streams))
	routes := make(map[string]bool)
	var cond, notModified int
	for name, res := range ph.streams {
		names = append(names, name)
		for route := range res.Lat {
			routes[route] = true
		}
		cond += res.Conditional
		notModified += res.NotModified
	}
	sort.Strings(names)
	for _, route := range sortedKeys(routes) {
		latLines(rep, route, ph.lat(route, false))
	}
	var worst string
	var worstLate time.Duration
	for _, name := range names {
		res := ph.streams[name]
		q, late := lateTail(res)
		rep.add("gen."+name+".late_p50_us", us(pct(res.Late, 0.5)), "us", fmt.Sprintf("n=%d", len(res.Late)))
		rep.add("gen."+name+".late_"+qName(q)+"_us", us(late), "us", fmt.Sprintf("n=%d", len(res.Late)))
		if worst == "" || late > worstLate {
			worst, worstLate = name, late
		}
	}
	if worst != "" {
		rep.add("gen.late_worst_us", us(worstLate), "us", "the highest stream tail: "+worst)
	}
	if cond > 0 {
		rep.add("serve.not_modified_frac", float64(notModified)/float64(cond), "ratio", fmt.Sprintf("of %d conditional reads", cond))
	}
}

// lateTail returns a stream's generator lateness at the highest of p99
// and p90 that keeps ten sends beyond it (p90 for a stream too short even
// for that), and the percentile.
func lateTail(res *Result) (float64, time.Duration) {
	q := min(tailQ(len(res.Late)), 0.99)
	return q, pct(res.Late, q)
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// procLines prints a phase's runtime counters.
func procLines(rep *report, p procStats) {
	rep.add("runtime.gc_pause_ms", ms(p.gcPause), "ms", "")
	rep.add("runtime.gc_cycles", float64(p.gcCycles), "count", "")
	rep.add("runtime.alloc_mb", float64(p.alloc)/(1<<20), "MB", "")
	rep.add("runtime.cpu_s", p.cpu.Seconds(), "s", "getrusage user+system")
}
