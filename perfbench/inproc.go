package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spec"
)

// inproc is a workload whose clients call the simulator library directly,
// as dlsim and the dlbench grid workers do. Its job sequence is grouped
// into passes of passLen jobs; every pass draws a fresh input seed.
type inproc struct {
	name    string
	workers int // closed-loop clients
	passLen int
	pol     policy
	// job returns job i of a pass (0 <= i < passLen) under input seed.
	job func(seed int64, i int) spec.Spec
	// passGate, when non-nil, checks the outcomes of one (possibly
	// partial, in index order) pass.
	passGate func(pass []outcome) error
	// prechecks makes set-up repetition r run timed job r under both the
	// merged oracle and the workload policy, require identical bytes, and
	// pin the timed job to that reference. Otherwise each repetition runs
	// one warm-up pass on a seed the timed loop never uses.
	prechecks bool
	// rerunFirstPass re-runs the first timed pass after the loop and
	// requires byte-identical results (the determinism gate).
	rerunFirstPass bool
}

var table4Names = []string{"bfs", "hotspot", "kmeans", "nw", "pr", "sssp", "tspow"}

// collectiveSystems are the eight systems each collective pass runs the
// train AllReduce on: DIMM-Link under every topology, then the baselines.
var collectiveSystems = []struct{ mech, topo string }{
	{"dimm-link", "chain"}, {"dimm-link", "ring"}, {"dimm-link", "mesh"}, {"dimm-link", "torus"},
	{"mcn", ""}, {"aim", ""}, {"abc-dimm", ""}, {"host-cpu", ""},
}

func table4Workload() *inproc {
	return &inproc{
		name: "table4", workers: 1, passLen: len(table4Names), pol: serial,
		job: func(seed int64, i int) spec.Spec {
			return spec.Spec{Kind: spec.KindSim, Workload: table4Names[i], Scale: 14, Iters: 4, Seed: seed}
		},
		rerunFirstPass: true,
	}
}

func collectiveWorkload() *inproc {
	return &inproc{
		name: "collective", workers: 2, passLen: len(collectiveSystems), pol: serial,
		job: func(seed int64, i int) spec.Spec {
			s := collectiveSystems[i]
			return spec.Spec{Kind: spec.KindSim, Workload: "train", Mech: s.mech, Topology: s.topo,
				DIMMs: 16, Channels: 8, Scale: 14, Iters: 4, Seed: seed}
		},
		passGate: sameChecksum,
	}
}

func parallelWorkload() *inproc {
	return &inproc{
		name: "parallel", workers: 1, passLen: 1, pol: parallel4,
		job: func(seed int64, _ int) spec.Spec {
			return spec.Spec{Kind: spec.KindSim, Workload: "pr", DIMMs: 16, Channels: 8, Scale: 14, Iters: 5, Seed: seed}
		},
		prechecks: true,
	}
}

// sameChecksum is the workloads.Workload contract: the functional
// checksum depends on the inputs only, never on the mechanism, topology
// or execution policy that computed it.
func sameChecksum(pass []outcome) error {
	for _, o := range pass[1:] {
		if o.Checksum != pass[0].Checksum {
			return fmt.Errorf("functional checksum %#x differs from %#x within one pass", o.Checksum, pass[0].Checksum)
		}
	}
	return nil
}

// spec returns job k of the timed sequence (stream streamPass) or of the
// warm-up sequence (streamSetup).
func (w *inproc) spec(seed int64, stream, k int) spec.Spec {
	return w.job(derive(seed, stream, k/w.passLen), k%w.passLen)
}

// ledger collects a run's outcomes and failures from concurrent clients.
type ledger struct {
	mu       sync.Mutex
	byJob    map[int]outcome
	attempts int
	failures []string
}

func newLedger() *ledger { return &ledger{byJob: make(map[int]outcome)} }

func (l *ledger) record(k int, o outcome, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempts++
	if err != nil {
		l.failures = append(l.failures, fmt.Sprintf("job %d: %v", k, err))
		return
	}
	o.Text, o.JSON = nil, nil
	l.byJob[k] = o
}

func (l *ledger) fail(format string, args ...any) {
	l.mu.Lock()
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// closedLoop runs clients goroutines, each taking the next job index k
// and calling do(client, k) until the deadline has passed and at least minJobs indices
// were taken. It returns the wall time from start to the last completion.
func closedLoop(clients int, d time.Duration, minJobs int, do func(client, k int)) time.Duration {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= minJobs && time.Now().After(deadline) {
					return
				}
				do(c, k)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// setup runs set-up repetition r: either the merged-oracle pre-check of
// timed job r, or one warm-up pass on its own seed. refs receives the
// pre-checked digests.
func (w *inproc) setup(seed int64, r int, refs map[int]digest) ([]digest, error) {
	if w.prechecks {
		sp := w.spec(seed, streamPass, r)
		ref, err := runJob(sp, merged4)
		if err != nil {
			return nil, fmt.Errorf("pre-check %d (merged): %w", r, err)
		}
		got, err := runJob(sp, w.pol)
		if err != nil {
			return nil, fmt.Errorf("pre-check %d: %w", r, err)
		}
		if got.Digest != ref.Digest {
			return nil, fmt.Errorf("pre-check %d: report under %+v differs from the merged run", r, w.pol)
		}
		refs[r] = ref.Digest
		return []digest{ref.Digest}, nil
	}
	l := newLedger()
	closedLoop(w.workers, 0, w.passLen, func(_, i int) {
		o, err := runJob(w.spec(seed, streamSetup, r*w.passLen+i), w.pol)
		l.record(i, o, err)
	})
	if len(l.failures) > 0 {
		return nil, fmt.Errorf("warm-up pass %d: %s", r, l.failures[0])
	}
	pass := make([]outcome, w.passLen)
	ds := make([]digest, w.passLen)
	for i := range pass {
		pass[i] = l.byJob[i]
		ds[i] = pass[i].Digest
	}
	if w.passGate != nil {
		if err := w.passGate(pass); err != nil {
			return nil, fmt.Errorf("warm-up pass %d: %w", r, err)
		}
	}
	return ds, nil
}

// gates applies the per-pass, pre-check and determinism gates to the
// timed outcomes.
func (w *inproc) gates(seed int64, l *ledger, refs map[int]digest) {
	if w.passGate != nil {
		last := 0
		for k := range l.byJob {
			last = max(last, k)
		}
		for p := 0; p*w.passLen <= last; p++ {
			var pass []outcome
			for i := 0; i < w.passLen; i++ {
				if o, ok := l.byJob[p*w.passLen+i]; ok {
					pass = append(pass, o)
				}
			}
			if len(pass) > 0 {
				if err := w.passGate(pass); err != nil {
					l.fail("pass %d: %v", p, err)
				}
			}
		}
	}
	for k, ref := range refs {
		if o, ok := l.byJob[k]; ok && o.Digest != ref {
			l.fail("job %d: timed result differs from its pre-checked merged run", k)
		}
	}
	if w.rerunFirstPass {
		for k := 0; k < w.passLen; k++ {
			o, err := runJob(w.spec(seed, streamPass, k), w.pol)
			if err != nil {
				l.fail("re-run of job %d: %v", k, err)
			} else if o.Digest != l.byJob[k].Digest {
				l.fail("job %d: re-run rendered different bytes", k)
			}
		}
	}
}

// digestJobs is how many leading timed jobs the output digest covers: a
// count every run completes, so the digest repeats exactly for a seed.
func (w *inproc) digestJobs() int {
	if w.prechecks {
		return setupReps
	}
	return w.passLen
}

// run measures the workload end to end (tracing off).
func (w *inproc) run(seed int64, d time.Duration) (*report, error) {
	rep := &report{}
	refs := make(map[int]digest)
	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		ds, err := w.setup(seed, r, refs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.digests = append(rep.digests, ds...)
	}

	l := newLedger()
	wall := closedLoop(w.workers, d, max(minTimedJobs, w.passLen, w.digestJobs()), func(_, k int) {
		o, err := runJob(w.spec(seed, streamPass, k), w.pol)
		l.record(k, o, err)
	})
	w.gates(seed, l, refs)

	var lat []float64
	var events uint64
	for _, o := range l.byJob {
		lat = append(lat, ms(o.Wall))
		events += o.Counts.Events
	}
	for k := 0; k < w.digestJobs(); k++ {
		rep.digests = append(rep.digests, l.byJob[k].Digest)
	}
	rep.latency(lat, wall, len(l.byJob))
	rep.e2e["sim_events_per_s"] = metric{float64(events) / wall.Seconds(), "events/s"}
	rep.e2e["setup_s"] = metric{median(setups), "s"}
	rep.attempted, rep.failures = l.attempts, l.failures
	return rep, nil
}

// runTrace is the separate traced run. Jobs run one at a time, each both
// untraced and traced (alternating which goes first), so allocation
// counts are per job and trace.overhead_ratio compares like with like.
// The parallel policy additionally runs each job traced under the merged
// oracle, for sim.parallel_speedup.
func (w *inproc) runTrace(seed int64, d time.Duration) (*report, error) {
	rep := &report{}
	refs := make(map[int]digest)
	for r := 0; r < setupReps; r++ {
		ds, err := w.setup(seed, r, refs)
		if err != nil {
			return nil, err
		}
		rep.digests = append(rep.digests, ds...)
	}
	tr, trMerged := newTracer(), newTracer()
	l := newLedger()
	var plain, traced []outcome
	var mergedRun []float64
	closedLoop(1, d, max(w.passLen, w.digestJobs()), func(_, k int) {
		sp := w.spec(seed, streamPass, k)
		id := w.name + "-" + strconv.Itoa(k)
		var u, t outcome
		var errU, errT error
		if k%2 == 0 {
			u, errU = runJob(sp, w.pol)
			t, errT = runTraced(tr, id, spanJob, sp, w.pol, nil)
		} else {
			t, errT = runTraced(tr, id, spanJob, sp, w.pol, nil)
			u, errU = runJob(sp, w.pol)
		}
		if errU == nil && errT == nil && t.Digest != u.Digest {
			errT = fmt.Errorf("traced run rendered different bytes from the untraced run")
		}
		if errT == nil && w.pol.Parallel {
			var m outcome
			if m, errT = runTraced(trMerged, id, spanJob, sp, merged4, nil); errT == nil {
				if m.Digest != u.Digest {
					errT = fmt.Errorf("parallel run rendered different bytes from the merged run")
				}
				mergedRun = append(mergedRun, ms(m.RunWall))
			}
		}
		if errU != nil {
			l.record(k, u, errU)
			return
		}
		l.record(k, u, errT)
		if errT == nil {
			plain = append(plain, u)
			traced = append(traced, t)
		}
	})
	w.gates(seed, l, refs)
	for k := 0; k < w.digestJobs(); k++ {
		rep.digests = append(rep.digests, l.byJob[k].Digest)
	}

	var model modelCounts
	for _, o := range traced[:min(w.passLen, len(traced))] {
		model.add(o.Counts)
	}
	spans := tr.snapshot()
	rep.layers = layerMetrics(spans, traced, model)
	rep.layers["sim.allocs_per_event"] = allocsPerEvent(traced)
	rep.layers["trace.overhead_ratio"] = metric{sum(walls(traced)) / sum(walls(plain)), "ratio"}
	if w.pol.Parallel {
		rep.layers["sim.parallel_speedup"] = metric{median(mergedRun) / median(durationsMS(spans, spanRun)), "ratio"}
	}
	rep.spans = spans
	rep.attempted, rep.failures = l.attempts, l.failures
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func walls(os []outcome) []float64 {
	out := make([]float64, len(os))
	for i, o := range os {
		out[i] = ms(o.Wall)
	}
	return out
}
