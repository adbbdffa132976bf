package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names. Each wraps one public call (or fixed group of calls) into a
// layer of the simulator; the per-layer metrics are read off them.
const (
	spanJob       = "job"             // one whole job, as its caller sees it
	spanExecute   = "serve.execute"   // a served job's run inside the server
	spanNormalize = "spec.normalize"  // Spec.Normalized + Spec.Config + Spec.Hash
	spanSystem    = "nmp.system"      // nmp.NewSystem + System.SetParallel
	spanBuild     = "workloads.build" // Spec.BuildWorkload
	spanRun       = "nmp.run"         // Workload.Run
	spanRender    = "spec.render"     // SimRun.Report + SimRun.JSON
	spanSubmit    = "serve.submit"    // client.Submit
	spanResult    = "serve.result"    // client.Result(wait)
)

// span is one traced interval. Start and End are offsets from the
// tracer's origin; Parent is the index of the enclosing span, -1 at the
// root. Spans of one job share Job.
type span struct {
	Name   string        `json:"name"`
	Job    string        `json:"job"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use: serve's worker goroutines and the benchmark's clients
// record into one tracer.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name, job string, parent int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans, in recording order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover (overlapping children count
// once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		out[i] = s.dur() - covered
	}
	return out
}

// durationsMS returns the durations of every span named name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// sumMS totals the durations of every span named name, in ms.
func sumMS(spans []span, name string) float64 { return sum(durationsMS(spans, name)) }

// writeSpans writes the spans as one JSON document. The file is a side
// output for inspection; no metric is read back from it.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
