package main

import (
	"fmt"
	"sort"
	"time"

	"truthdiscovery/internal/model"
)

// coldRepeats is how many cold publishes the per-layer set-up metrics take
// their median over.
const coldRepeats = 3

// coldLines prints the layers of a from-scratch publish of snap: the
// per-layer view of what set-up does on every workload.
func coldLines(rep *report, s *system, snap *model.Snapshot) {
	var build, run, answers, view []time.Duration
	var allocs, rounds []float64
	for i := 0; i < coldRepeats; i++ {
		c := timeColdPublish(s, snap)
		build, run = append(build, c.build), append(run, c.run)
		answers, view = append(answers, c.answers), append(view, c.view)
		allocs, rounds = append(allocs, float64(c.allocs)), append(rounds, float64(c.rounds))
	}
	note := fmt.Sprintf("cold publish, median of %d", coldRepeats)
	rep.add("fusion.build_ms", ms(pct(build, 0.5)), "ms", note)
	rep.add("fusion.build_allocs", median(allocs), "count", note)
	rep.add("publish.run_ms", ms(pct(run, 0.5)), "ms", note)
	rep.add("publish.rounds", median(rounds), "count", note)
	rep.add("publish.answers_ms", ms(pct(answers, 0.5)), "ms", note)
	rep.add("publish.view_ms", ms(pct(view, 0.5)), "ms", note)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// layerLines prints the per-layer metrics of a traced phase: every span
// name's median self time as <name>_ms (model.apply_ms, fusion.update_ms
// and so on down the advance), and the measurements that join spans.
func layerLines(rep *report, r *runner, ph *phase, spans []Span) {
	byName := make(map[string][]Span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	self := SelfByName(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var total time.Duration
		for _, d := range self[name] {
			total += d
		}
		rep.add(name+"_ms", ms(pct(self[name], 0.5)), "ms",
			fmt.Sprintf("self time p50 of %d, total %.1fms", len(self[name]), ms(total)))
	}

	if adv := byName["advance"]; len(adv) > 0 {
		rep.add("trace.advance_ms", ms(pct(durations(adv), 0.5)), "ms", "p50 of advance spans, the sum of their layers' self times")
		var dirty, allocs, rounds, bytes []float64
		for _, a := range ph.adv {
			dirty = append(dirty, float64(a.dirty)/float64(a.items))
			allocs = append(allocs, float64(a.allocs))
			rounds = append(rounds, float64(a.rounds))
			if a.runBytes > 0 {
				bytes = append(bytes, float64(a.runBytes))
			}
		}
		rep.add("model.dirty_frac", median(dirty), "ratio", "dirty items over problem items")
		rep.add("fusion.update_allocs", median(allocs), "count", "process-wide mallocs during UpdateProblem")
		rep.add("fusion.rounds", median(rounds), "count", "")
		if len(bytes) > 0 {
			rep.add("store.run_bytes", median(bytes), "B", "")
		}
	}

	// Reads: join each handler span to the client span that sent it.
	clients := make(map[uint64]clientSpan)
	for _, res := range ph.streams {
		for id, c := range res.Spans {
			clients[id] = c
		}
	}
	var point, net, table []time.Duration
	var size []float64
	for _, s := range byName["serve.handler"] {
		c, ok := clients[s.Parent]
		if !ok {
			continue
		}
		switch c.Route {
		case "read":
			point = append(point, s.Dur())
			net = append(net, c.latency()-s.Dur())
			size = append(size, float64(c.Bytes))
		case "table":
			table = append(table, s.Dur())
		}
	}
	if len(point) > 0 {
		q := tailQ(len(point))
		rep.add("serve.point_p50_us", us(pct(point, 0.5)), "us", fmt.Sprintf("handler time, n=%d", len(point)))
		rep.add("serve.point_"+qName(q)+"_us", us(pct(point, q)), "us", fmt.Sprintf("handler time, n=%d", len(point)))
		rep.add("net.overhead_us", us(pct(net, 0.5)), "us", "p50 of client latency minus handler time")
		rep.add("serve.point_bytes", median(size), "B", "")
	}
	if len(table) > 0 {
		rep.add("serve.table_ms", ms(pct(table, 0.5)), "ms", fmt.Sprintf("handler time, n=%d", len(table)))
	}
	if hops := routeHops(byName["route.handler"], byName["worker.handler"]); len(hops) > 0 {
		rep.add("route.hop_us", us(pct(hops, 0.5)), "us", fmt.Sprintf("router minus worker handler time, n=%d", len(hops)))
	}

	if r.s.applier != nil {
		flushes := r.s.applier.takeFlushes()
		byTag := make(map[string]flushRecord, len(flushes))
		var ops []float64
		for _, f := range flushes {
			byTag[f.ETag] = f
			ops = append(ops, float64(f.Ops))
		}
		var queue []time.Duration
		for _, c := range clients {
			if f, ok := byTag[c.Version]; ok && c.Route == "write" {
				queue = append(queue, c.latency()-f.Dur)
			}
		}
		if len(flushes) > 0 {
			rep.add("ingest.ops_per_flush", median(ops), "count", "")
			rep.add("ingest.queue_ms", ms(pct(queue, 0.5)), "ms", "p50 of write latency minus its flush's apply")
		}
	}
}

func durations(spans []Span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i := range spans {
		out[i] = spans[i].Dur()
	}
	return out
}

// routeHops pairs each router span with the worker span for the same path
// that ran inside it (the router's own requests to the workers carry no
// span header) and returns router time minus worker time.
func routeHops(routes, workers []Span) []time.Duration {
	byPath := make(map[string][]Span)
	for _, w := range workers {
		byPath[w.Note] = append(byPath[w.Note], w)
	}
	var hops []time.Duration
	for _, rs := range routes {
		for _, w := range byPath[rs.Note] {
			if w.Start >= rs.Start && w.End <= rs.End {
				hops = append(hops, rs.Dur()-w.Dur())
				break
			}
		}
	}
	return hops
}
