package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/idc"
	"repro/internal/metrics"
	"repro/internal/nmp"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// policy is the execution policy a job runs under. It is the only place
// the benchmark turns lane settings into spec.SimHooks and nmp calls, so
// folding Shards and Parallel into one knob touches this type alone.
type policy struct {
	Shards   int  // event lanes; 0 or 1 keeps the single-queue engine
	Parallel bool // run lane-local phases concurrently (needs Shards > 1)
}

var (
	serial    = policy{}
	parallel4 = policy{Shards: 4, Parallel: true}
	merged4   = policy{Shards: 4} // parallel4's byte-identity oracle
)

func (p policy) hooks() spec.SimHooks {
	return spec.SimHooks{Shards: p.Shards, Parallel: p.Parallel}
}

// system builds the system for cfg under the policy, as RunSim does.
func (p policy) system(cfg nmp.Config) (*nmp.System, error) {
	cfg.Shards = p.Shards
	sys, err := nmp.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if p.Parallel {
		if err := sys.SetParallel(true); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// digest is a result's identity: sha256 over the report and JSON bodies.
type digest [32]byte

func digestOf(text, js []byte) digest {
	h := sha256.New()
	h.Write(text)
	h.Write([]byte{0})
	h.Write(js)
	var d digest
	copy(d[:], h.Sum(nil))
	return d
}

// outcome is one finished simulation job: its output identity plus the
// counts read from the run after it ended.
type outcome struct {
	Text     []byte // report body
	JSON     []byte // structured body
	Digest   digest
	Checksum uint64
	Wall     time.Duration // whole job, as the caller sees it
	Counts   modelCounts

	// Traced runs only.
	RunWall time.Duration // Workload.Run
	Mallocs uint64        // heap allocations during Workload.Run
}

// runJob executes a sim spec the way dlsim does: RunSim, then Report and
// JSON. It is the untraced path every end-to-end metric is measured on.
func runJob(sp spec.Spec, p policy) (outcome, error) {
	start := time.Now()
	run, err := sp.RunSim(p.hooks())
	if err != nil {
		return outcome{}, err
	}
	var text bytes.Buffer
	run.Report(&text)
	js, err := run.JSON()
	if err != nil {
		return outcome{}, err
	}
	wall := time.Since(start)
	return finish(run, text.Bytes(), js, wall)
}

// runTraced executes the same job as runJob, step for step as
// Spec.RunSim does it, with a span around each public call. It must
// render the same bytes as runJob; the traced gates check that. coll is
// the passive collector dlserve attaches to every job (nil in-process);
// rootName names the enclosing span.
func runTraced(tr *tracer, job, rootName string, sp spec.Spec, p policy, coll *metrics.Collector) (outcome, error) {
	start := time.Now()
	root := tr.begin(rootName, job, -1)
	step := func(name string, f func() error) error {
		id := tr.begin(name, job, root)
		defer tr.end(id)
		return f()
	}
	var (
		n        spec.Spec
		cfg      nmp.Config
		sys      *nmp.System
		w        workloads.Workload
		res      nmp.KernelResult
		checksum uint64
		text     bytes.Buffer
		js       []byte
		mallocs  uint64
		runWall  time.Duration
	)
	err := step(spanNormalize, func() (err error) {
		if n, err = sp.Normalized(); err != nil {
			return err
		}
		if n.Kind != spec.KindSim {
			return fmt.Errorf("traced run of %q kind", n.Kind)
		}
		if cfg, err = n.Config(); err != nil {
			return err
		}
		cfg.Metrics = coll
		_, err = n.Hash()
		return err
	})
	if err == nil {
		err = step(spanSystem, func() (err error) {
			sys, err = p.system(cfg)
			return err
		})
	}
	if err == nil {
		err = step(spanBuild, func() (err error) {
			w, err = n.BuildWorkload(sys)
			return err
		})
	}
	if err == nil {
		err = step(spanRun, func() (err error) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			res, checksum, err = w.Run(sys, sys.DefaultPlacement(), false)
			runWall = time.Since(t0)
			runtime.ReadMemStats(&m1)
			mallocs = m1.Mallocs - m0.Mallocs
			return err
		})
	}
	var run *spec.SimRun
	if err == nil {
		run = &spec.SimRun{Spec: n, Sys: sys, W: w, Res: res, Checksum: checksum}
		err = step(spanRender, func() (err error) {
			run.Report(&text)
			js, err = run.JSON()
			return err
		})
	}
	tr.end(root)
	if err != nil {
		return outcome{}, err
	}
	o, err := finish(run, text.Bytes(), js, time.Since(start))
	o.RunWall, o.Mallocs = runWall, mallocs
	return o, err
}

// finish checks a rendered run for internal consistency and reads its
// counts. The report, the JSON body and the run must agree on the
// functional checksum; a job that renders inconsistent bytes fails.
func finish(run *spec.SimRun, text, js []byte, wall time.Duration) (outcome, error) {
	want := fmt.Sprintf("%#x", run.Checksum)
	var body struct {
		Checksum   string `json:"checksum"`
		MakespanPS uint64 `json:"makespan_ps"`
	}
	if err := json.Unmarshal(js, &body); err != nil {
		return outcome{}, fmt.Errorf("result JSON: %w", err)
	}
	if body.Checksum != want || !bytes.Contains(text, []byte("checksum   "+want+"\n")) {
		return outcome{}, fmt.Errorf("report, JSON and run disagree on the checksum (run %s, json %s)", want, body.Checksum)
	}
	if body.MakespanPS == 0 || body.MakespanPS != run.Res.Makespan {
		return outcome{}, fmt.Errorf("makespan %d ps in JSON, %d in the run", body.MakespanPS, run.Res.Makespan)
	}
	o := outcome{
		Text:     text,
		JSON:     js,
		Digest:   digestOf(text, js),
		Checksum: run.Checksum,
		Wall:     wall,
		Counts:   countsOf(run),
	}
	if o.Counts.Events == 0 {
		return outcome{}, fmt.Errorf("run processed no events")
	}
	return o, nil
}

// modelCounts are the simulated-model quantities of one or more runs.
// They are deterministic in the spec: a speed-only change must leave them
// exactly as they were.
type modelCounts struct {
	Events     uint64
	MakespanPS uint64
	Spans      uint64
	DRAMAccess uint64
	DRAMActs   uint64
	RowHits    uint64
	LineAccess uint64 // DRAM line accesses: row hits + misses + empties
	L1Hits     uint64
	L1Access   uint64
	L2Hits     uint64
	L2Access   uint64
	Packets    uint64
	LinkBytes  uint64
	CollSteps  uint64
	SyncMsgs   uint64
	Forwards   uint64
	Polls      uint64
	BusOccSum  float64 // Σ host bus occupation over runs with a host
	HostRuns   int
	Ops        uint64
	RemoteOps  uint64
	IDCStall   uint64 // Σ per-thread IDC stall, ps
	ThreadTime uint64 // Σ makespan × threads, ps
}

func countsOf(run *spec.SimRun) modelCounts {
	c := modelCounts{Events: run.Sys.Eng.Processed(), MakespanPS: run.Res.Makespan}
	if sh := run.Sys.Sharded(); sh != nil {
		c.Spans = sh.Spans()
	}
	for _, m := range run.Sys.Modules {
		c.DRAMAccess += m.Stats.Reads + m.Stats.Writes
		c.DRAMActs += m.Stats.Activations
		c.RowHits += m.Stats.RowHits
		c.LineAccess += m.Stats.RowHits + m.Stats.RowMisses + m.Stats.RowEmpty
	}
	l1, l2 := run.Sys.CacheStats()
	c.L1Hits, c.L1Access = l1.Hits, l1.Hits+l1.Misses
	c.L2Hits, c.L2Access = l2.Hits, l2.Hits+l2.Misses
	if run.Sys.IC != nil {
		ic := run.Sys.IC.Counters()
		c.Packets = ic.Get(idc.CtrPackets)
		c.LinkBytes = ic.Get(idc.CtrLinkBytes)
		c.CollSteps = ic.Get(idc.CtrCollSteps)
		c.SyncMsgs = ic.Get(idc.CtrSyncMsgs)
	}
	if h := run.Sys.Host(); h != nil {
		c.Forwards = h.Counters.Get("host.forwards")
		c.Polls = h.Counters.Get("host.polls")
		c.BusOccSum = h.BusOccupation(run.Res.Makespan)
		c.HostRuns = 1
	}
	for _, t := range run.Res.ThreadStats {
		c.Ops += t.Ops
		c.RemoteOps += t.RemoteOps
		c.IDCStall += t.IDCStall
	}
	c.ThreadTime = run.Res.Makespan * uint64(len(run.Res.ThreadStats))
	return c
}

func (c *modelCounts) add(o modelCounts) {
	c.Events += o.Events
	c.MakespanPS += o.MakespanPS
	c.Spans += o.Spans
	c.DRAMAccess += o.DRAMAccess
	c.DRAMActs += o.DRAMActs
	c.RowHits += o.RowHits
	c.LineAccess += o.LineAccess
	c.L1Hits += o.L1Hits
	c.L1Access += o.L1Access
	c.L2Hits += o.L2Hits
	c.L2Access += o.L2Access
	c.Packets += o.Packets
	c.LinkBytes += o.LinkBytes
	c.CollSteps += o.CollSteps
	c.SyncMsgs += o.SyncMsgs
	c.Forwards += o.Forwards
	c.Polls += o.Polls
	c.BusOccSum += o.BusOccSum
	c.HostRuns += o.HostRuns
	c.Ops += o.Ops
	c.RemoteOps += o.RemoteOps
	c.IDCStall += o.IDCStall
	c.ThreadTime += o.ThreadTime
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
