// Command perfbench is the end-to-end benchmark of the simulator. It
// drives the simulator the way its users do — one-at-a-time dlsim jobs
// (table4, parallel), a two-worker dlbench-style grid (collective) and
// dlserve clients (serve) — times every job from outside, checks every
// output, and prints one JSON result line. With --trace 1 it instead runs
// the separate traced run and reports the per-layer metrics. README.md
// describes the workloads, the metrics and what each should move.
//
//	perfbench --workload table4 --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// minTimedJobs is the fewest jobs a timed loop completes, even past its
// deadline, so that at least ten latencies lie beyond the reported p90.
var minTimedJobs = minSamplesFor(0.9, 10)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run measured.
type report struct {
	e2e       map[string]metric
	layers    map[string]metric
	digests   []digest // result identities the output digest covers
	spans     []span
	attempted int
	failures  []string
	samples   int // jobs behind the latency percentiles
	beyondP90 int
}

// latency fills the timing metrics from the per-job latencies (ms).
func (r *report) latency(lat []float64, wall time.Duration, done int) {
	p90, beyond := percentile(lat, 0.9)
	r.e2e = map[string]metric{
		"jobs_per_s": {float64(done) / wall.Seconds(), "jobs/s"},
		"job_ms_p50": {median(lat), "ms"},
		"job_ms_p90": {p90, "ms"},
	}
	r.samples, r.beyondP90 = len(lat), beyond
}

// layerDoc says which end-to-end metric a per-layer metric should move,
// and on which workloads.
type layerDoc struct{ unit, moves string }

var layerDocs = map[string]layerDoc{
	"workloads.build_ms":    {"ms", "job_ms_p50, jobs_per_s on table4, parallel, serve; no move on collective"},
	"workloads.build_share": {"ratio", "job_ms_p50, jobs_per_s on table4, parallel, serve; no move on collective"},
	"nmp.system_ms":         {"ms", "job_ms_p50 on serve; negligible elsewhere"},
	"nmp.run_ms":            {"ms", "sim_events_per_s, job_ms_p50 on collective and table4"},
	"sim.run_events_per_s":  {"events/s", "sim_events_per_s, job_ms_p50 on collective and table4"},
	"sim.allocs_per_event":  {"allocs/event", "sim_events_per_s, job_ms_p50 on collective and table4; peak_rss_mb"},
	"cores.ops":             {"count", "job_ms_p50 on collective and table4"},
	"cores.remote_ratio":    {"ratio", "job_ms_p50 on collective and table4"},
	"cores.run_ns_per_op":   {"ns/op", "job_ms_p50 on collective and table4"},
	"cores.idc_stall_ratio": {"ratio", "job_ms_p50 on collective and table4"},
	"sim.spans":             {"count", "job_ms_p50 on parallel only"},
	"sim.parallel_speedup":  {"ratio", "job_ms_p50 on parallel only"},
	"spec.normalize_us":     {"us", "job_ms_p50 on serve only"},
	"spec.render_ms":        {"ms", "job_ms_p50 on serve only"},
	"serve.submit_ms":       {"ms", "job_ms_p50, jobs_per_s on serve only"},
	"serve.wait_ms":         {"ms", "job_ms_p50, jobs_per_s on serve only"},
	"serve.run_ms":          {"ms", "job_ms_p50, jobs_per_s on serve only"},
	"serve.overhead_ms":     {"ms", "job_ms_p50, jobs_per_s on serve only"},
	"serve.cache_hit_ratio": {"ratio", "job_ms_p50, jobs_per_s on serve only (designed share 0.25)"},
	"serve.rejected":        {"count", "jobs_per_s on serve only (429s count as failed jobs)"},
	"sim.events":            {"count", "model count: must not change under a speed-only change"},
	"sim.makespan_ms":       {"ms", "model count (simulated time): must not change under a speed-only change"},
	"dram.accesses":         {"count", "model count: heavy on table4"},
	"dram.activations":      {"count", "model count: heavy on table4"},
	"dram.row_hit_ratio":    {"ratio", "model count: heavy on table4"},
	"cache.l1_hit_ratio":    {"ratio", "model count: heavy on table4"},
	"cache.l2_hit_ratio":    {"ratio", "model count: heavy on table4"},
	"idc.packets":           {"count", "model count: heavy on collective"},
	"idc.link_bytes":        {"count", "model count: heavy on collective"},
	"idc.collective_steps":  {"count", "model count: heavy on collective"},
	"idc.sync_messages":     {"count", "model count: heavy on collective"},
	"host.forwards":         {"count", "model count: heavy on collective"},
	"host.polls":            {"count", "model count: heavy on collective"},
	"host.bus_occupation":   {"ratio", "model count: heavy on collective"},
	"trace.overhead_ratio":  {"ratio", "traced ÷ untraced mean job wall time, same jobs"},
}

// layerMetrics reads the per-layer metrics off a traced run: span
// timings, the timed outcomes' event and op counts, and the model counts
// of the run's first pass. Layers the workload never passes through read
// 0; the caller overwrites the workload-specific entries.
func layerMetrics(spans []span, timed []outcome, model modelCounts) map[string]metric {
	m := make(map[string]metric, len(layerDocs))
	for name, d := range layerDocs {
		m[name] = metric{0, d.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, layerDocs[name].unit} }

	set("workloads.build_ms", median(durationsMS(spans, spanBuild)))
	set("workloads.build_share", ratio(sumMS(spans, spanBuild), sumMS(spans, spanJob)))
	set("nmp.system_ms", median(durationsMS(spans, spanSystem)))
	set("nmp.run_ms", median(durationsMS(spans, spanRun)))
	set("spec.normalize_us", 1000*median(durationsMS(spans, spanNormalize)))
	set("spec.render_ms", median(durationsMS(spans, spanRender)))

	var events, ops uint64
	var run time.Duration
	for _, o := range timed {
		events += o.Counts.Events
		ops += o.Counts.Ops
		run += o.RunWall
	}
	set("sim.run_events_per_s", ratio(float64(events), run.Seconds()))
	set("cores.run_ns_per_op", ratio(float64(run.Nanoseconds()), float64(ops)))

	c := model
	set("sim.events", float64(c.Events))
	set("sim.makespan_ms", float64(c.MakespanPS)/1e9)
	set("sim.spans", float64(c.Spans))
	set("dram.accesses", float64(c.DRAMAccess))
	set("dram.activations", float64(c.DRAMActs))
	set("dram.row_hit_ratio", ratio(float64(c.RowHits), float64(c.LineAccess)))
	set("cache.l1_hit_ratio", ratio(float64(c.L1Hits), float64(c.L1Access)))
	set("cache.l2_hit_ratio", ratio(float64(c.L2Hits), float64(c.L2Access)))
	set("idc.packets", float64(c.Packets))
	set("idc.link_bytes", float64(c.LinkBytes))
	set("idc.collective_steps", float64(c.CollSteps))
	set("idc.sync_messages", float64(c.SyncMsgs))
	set("host.forwards", float64(c.Forwards))
	set("host.polls", float64(c.Polls))
	set("host.bus_occupation", ratio(c.BusOccSum, float64(c.HostRuns)))
	set("cores.ops", float64(c.Ops))
	set("cores.remote_ratio", ratio(float64(c.RemoteOps), float64(c.Ops)))
	set("cores.idc_stall_ratio", ratio(float64(c.IDCStall), float64(c.ThreadTime)))
	return m
}

// allocsPerEvent is heap allocations during Workload.Run per simulated
// event, over outcomes that ran one at a time.
func allocsPerEvent(os []outcome) metric {
	var mallocs, events uint64
	for _, o := range os {
		mallocs += o.Mallocs
		events += o.Counts.Events
	}
	return metric{ratio(float64(mallocs), float64(events)), layerDocs["sim.allocs_per_event"].unit}
}

// workload is one benchmark workload: run measures it end to end with
// tracing off, runTrace is the separate traced run.
type workload interface {
	run(seed int64, d time.Duration) (*report, error)
	runTrace(seed int64, d time.Duration) (*report, error)
}

func workloadByName(name string) (workload, bool) {
	switch name {
	case "table4":
		return table4Workload(), true
	case "collective":
		return collectiveWorkload(), true
	case "serve":
		return serveWorkload{}, true
	case "parallel":
		return parallelWorkload(), true
	}
	return nil, false
}

func main() {
	name := flag.String("workload", "", "workload: table4 | collective | serve | parallel")
	seed := flag.Int64("seed", 1, "benchmark seed; every generated input derives from it")
	seconds := flag.Int("seconds", 20, "length of the timed loop")
	trace := flag.Int("trace", 0, "1 = run the separate traced run and report per-layer metrics")
	out := flag.String("out", "", "directory for the traced run's span file (none if empty)")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = w.runTrace(*seed, d)
	} else {
		rep, err = w.run(*seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	metrics := rep.e2e
	if *trace == 1 {
		metrics = rep.layers
		if *out != "" {
			path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
			if err := os.MkdirAll(*out, 0o755); err == nil {
				err = writeSpans(path, rep.spans)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: span file: %v\n", err)
			}
		}
		printLayers(rep.spans, rep.layers)
	} else {
		metrics["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	}
	for n, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.failures = append(rep.failures, fmt.Sprintf("metric %s is %v", n, m.Value))
			metrics[n] = metric{0, m.Unit}
		}
	}
	attempted := max(rep.attempted, 1)
	failed := min(len(rep.failures), attempted)
	for i, f := range rep.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(rep.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}

	h := sha256.New()
	for _, dg := range rep.digests {
		h.Write(dg[:])
	}
	env := map[string]any{
		"workload":      *name,
		"seed":          *seed,
		"seconds":       *seconds,
		"trace":         *trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"jobs":          rep.samples,
		"beyond_p90":    rep.beyondP90,
		"failed_ratio":  float64(failed) / float64(attempted),
		"output_digest": hex.EncodeToString(h.Sum(nil)),
	}
	if *trace == 1 {
		moves := make(map[string]string, len(layerDocs))
		for n, d := range layerDocs {
			moves[n] = d.moves
		}
		env["moves"] = moves
	}
	printJSON(map[string]any{"env": env})
	printJSON(map[string]any{
		"correct":   len(rep.failures) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// printLayers writes the per-layer table, with each span name's total
// and self time, to standard error.
func printLayers(spans []span, layers map[string]metric) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-24s %14.4f %-12s moves %s\n", n, layers[n].Value, layers[n].Unit, layerDocs[n].moves)
	}
	self := selfTimes(spans)
	total := make(map[string]time.Duration)
	own := make(map[string]time.Duration)
	for i, s := range spans {
		total[s.Name] += s.dur()
		own[s.Name] += self[i]
	}
	var sn []string
	for n := range total {
		sn = append(sn, n)
	}
	sort.Strings(sn)
	fmt.Fprintln(os.Stderr, strings.Repeat("-", 60))
	fmt.Fprintf(os.Stderr, "%-18s %12s %12s\n", "span", "total_ms", "self_ms")
	for _, n := range sn {
		fmt.Fprintf(os.Stderr, "%-18s %12.1f %12.1f\n", n, ms(total[n]), ms(own[n]))
	}
}
