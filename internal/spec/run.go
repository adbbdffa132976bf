// run.go executes a Spec and renders its results. The text renderers are
// the single source of truth for both CLIs and the dlserve service: a
// dlserve result body is produced by the same code path as dlsim/dlbench
// stdout, which is what makes the service's byte-identity guarantee (and
// the ci.sh smoke that pins it) hold by construction.
package spec

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/nmp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// SimHooks carries the execution-policy extras a caller may layer onto a
// simulation run. None of them changes the rendered report: the
// collector is passive, sampling is passive, profiling only fills
// KernelResult.Profile, and Shards selects an event-kernel execution
// strategy whose deterministic-merge mode is byte-identity-preserving.
type SimHooks struct {
	Metrics      *metrics.Collector
	SamplePeriod sim.Time
	Profile      bool

	// Shards > 1 runs the simulation on the sharded event kernel
	// (nmp.Config.Shards). Like Jobs on the experiment side, this is
	// execution policy and deliberately NOT part of the content-addressed
	// Spec: the report bytes are identical for every value, which the
	// shard-differential tests pin.
	Shards int

	// Parallel runs lane-confined phases of the kernel concurrently
	// (nmp.System.SetParallel). Requires Shards > 1 and no sampling; the
	// report bytes stay identical to the merged run, which the parallel
	// differential tests pin. Execution policy, never part of the Spec.
	Parallel bool
}

// ParallelHooks maps the one execution-policy knob of the CLIs, exp-kind
// runs and dlserve, -parallel N, onto the kernel settings: N <= 1 keeps
// the single-queue engine; N > 1 builds N event lanes and runs
// lane-confined phases concurrently. Shards without Parallel (merged
// mode) stays reachable only through SimHooks directly, as the
// byte-identity oracle that parallel runs are checked against.
func ParallelHooks(n int) SimHooks {
	if n <= 1 {
		return SimHooks{}
	}
	return SimHooks{Shards: n, Parallel: true}
}

// SimRun bundles one completed simulation.
type SimRun struct {
	Spec     Spec // normalized
	Sys      *nmp.System
	W        workloads.Workload
	Res      nmp.KernelResult
	Checksum uint64
}

// RunSim builds the system and workload a sim-kind spec describes, runs
// the kernel, and returns the completed run.
func (s Spec) RunSim(h SimHooks) (*SimRun, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if n.Kind != KindSim {
		return nil, fmt.Errorf("spec: RunSim on %q kind", n.Kind)
	}
	cfg, err := n.Config()
	if err != nil {
		return nil, err
	}
	cfg.Metrics = h.Metrics
	cfg.Shards = h.Shards
	if h.Parallel && h.SamplePeriod > 0 {
		return nil, fmt.Errorf("spec: -parallel and -sample are incompatible (sampler probes read cross-lane state); drop one")
	}
	sys, err := nmp.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if h.Metrics != nil && h.SamplePeriod > 0 {
		sys.StartSampler(h.SamplePeriod)
	}
	if h.Parallel {
		if err := sys.SetParallel(true); err != nil {
			return nil, err
		}
	}
	w, err := n.BuildWorkload(sys)
	if err != nil {
		return nil, err
	}
	res, checksum, err := w.Run(sys, sys.DefaultPlacement(), h.Profile)
	if err != nil {
		return nil, err
	}
	return &SimRun{Spec: n, Sys: sys, W: w, Res: res, Checksum: checksum}, nil
}

// dramTotals sums the per-module DRAM stats.
func (r *SimRun) dramTotals() (ds []dram.Stats, reads, writes, acts uint64) {
	ds = make([]dram.Stats, len(r.Sys.Modules))
	for i, m := range r.Sys.Modules {
		ds[i] = m.Stats
		reads += m.Stats.Reads
		writes += m.Stats.Writes
		acts += m.Stats.Activations
	}
	return ds, reads, writes, acts
}

// energyInputs assembles the energy-model inputs for this run.
func (r *SimRun) energyInputs(ds []dram.Stats) energy.Inputs {
	in := energy.Inputs{
		Makespan: r.Res.Makespan, NumDIMMs: r.Spec.DIMMs, DRAMStats: ds,
		IsHostRun: nmp.Mechanism(r.Spec.Mech) == nmp.MechHostCPU,
	}
	if r.Sys.IC != nil {
		in.IC = r.Sys.IC.Counters()
	}
	if r.Sys.Host() != nil {
		in.Host = &r.Sys.Host().Counters
	}
	return in
}

// Report renders the canonical simulation report — byte-identical to
// dlsim's stdout for the same spec (dlsim is a thin wrapper over this).
func (r *SimRun) Report(w io.Writer) {
	fmt.Fprintf(w, "workload   %s on %s (%dD-%dC)\n", r.W.Name(), r.Spec.Mech, r.Spec.DIMMs, r.Spec.Channels)
	cfg := r.Sys.Cfg
	if cfg.DL.Fault.Active() {
		fmt.Fprintf(w, "faults     %s (seed %d)\n", cfg.DL.Fault, cfg.DL.Fault.Seed)
	}
	fmt.Fprintf(w, "makespan   %.3f ms\n", float64(r.Res.Makespan)/1e9)
	fmt.Fprintf(w, "idc-stall  %.1f%% (non-overlapped IDC cycle ratio)\n", 100*r.Res.IDCStallRatio())
	fmt.Fprintf(w, "checksum   %#x\n", r.Checksum)

	ds, reads, writes, acts := r.dramTotals()
	fmt.Fprintf(w, "dram       %d reads, %d writes, %d activations\n", reads, writes, acts)

	in := r.energyInputs(ds)
	if r.Sys.IC != nil {
		tb := stats.NewTable("interconnect counters", "counter", "value")
		c := r.Sys.IC.Counters()
		for _, name := range c.Names() {
			tb.Addf(name, c.Get(name))
		}
		fmt.Fprintln(w)
		tb.Render(w)
	}
	if r.Sys.Host() != nil {
		fmt.Fprintf(w, "\nhost bus occupation: %.2f%%\n", 100*r.Sys.Host().BusOccupation(r.Res.Makespan))
	}
	b := energy.Compute(energy.PaperParams(), in)
	fmt.Fprintf(w, "energy     %.4f J total (dram %.4f, idc %.4f, cores %.4f)\n",
		b.Total, b.DRAM, b.IDC, b.Cores)
}

// simJSON is the structured result body for a sim-kind job.
type simJSON struct {
	Spec       Spec               `json:"spec"`
	MakespanPS uint64             `json:"makespan_ps"`
	IDCStall   float64            `json:"idc_stall_ratio"`
	Checksum   string             `json:"checksum"`
	DRAM       map[string]uint64  `json:"dram"`
	IC         map[string]uint64  `json:"ic,omitempty"`
	HostBusOcc float64            `json:"host_bus_occupation,omitempty"`
	Energy     map[string]float64 `json:"energy_joules"`
}

// JSON renders the structured result body. Map keys are sorted by
// encoding/json, so the bytes are deterministic for a given run.
func (r *SimRun) JSON() ([]byte, error) {
	ds, reads, writes, acts := r.dramTotals()
	out := simJSON{
		Spec:       r.Spec,
		MakespanPS: r.Res.Makespan,
		IDCStall:   r.Res.IDCStallRatio(),
		Checksum:   fmt.Sprintf("%#x", r.Checksum),
		DRAM:       map[string]uint64{"reads": reads, "writes": writes, "activations": acts},
	}
	in := r.energyInputs(ds)
	if r.Sys.IC != nil {
		c := r.Sys.IC.Counters()
		out.IC = make(map[string]uint64)
		for _, name := range c.Names() {
			out.IC[name] = c.Get(name)
		}
	}
	if r.Sys.Host() != nil {
		out.HostBusOcc = r.Sys.Host().BusOccupation(r.Res.Makespan)
	}
	b := energy.Compute(energy.PaperParams(), in)
	out.Energy = map[string]float64{
		"total": b.Total, "dram": b.DRAM, "idc": b.IDC, "cores": b.Cores,
	}
	return json.Marshal(out)
}

// ExpResult is one experiment's rendered tables.
type ExpResult struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Tables []*stats.Table `json:"tables"`
}

// ExpHooks is SimHooks' experiment-side counterpart: the execution-policy
// knobs layered onto an exp-kind run. Neither field changes a rendered
// byte — Jobs picks the grid pool width, Parallel the event kernel.
type ExpHooks struct {
	Jobs     int // worker-pool width per experiment grid (0 = GOMAXPROCS)
	Parallel int // -parallel N for every system (see ParallelHooks)
}

// RunExp executes an exp-kind spec's targets in registry order. Progress
// is forwarded per experiment (done/total restart for each target).
// Cancellation aborts between and within experiment grids with the
// context's error.
func (s Spec) RunExp(ctx context.Context, h ExpHooks, progress func(done, total int)) ([]ExpResult, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	targets, err := n.Targets()
	if err != nil {
		return nil, err
	}
	o, err := n.ExpOptions(ctx, h.Jobs, progress)
	if err != nil {
		return nil, err
	}
	o.Parallel = h.Parallel
	results := make([]ExpResult, 0, len(targets))
	for _, e := range targets {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tables, err := exp.RunContext(e, o)
		if err != nil {
			return nil, err
		}
		results = append(results, ExpResult{ID: e.ID, Title: e.Title, Tables: tables})
	}
	return results, nil
}

// RenderExp writes experiment results in dlbench's stdout format: a
// "### id — title" heading, then each table followed by a blank line.
func RenderExp(w io.Writer, results []ExpResult) {
	for _, r := range results {
		fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Title)
		for _, tb := range r.Tables {
			tb.Render(w)
			fmt.Fprintln(w)
		}
	}
}
