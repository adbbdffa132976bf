// dlsim runs a single DIMM-NMP simulation: pick a system size, an
// inter-DIMM communication mechanism and a workload, and get the makespan,
// speedup-relevant counters and the energy breakdown.
//
// Examples:
//
//	dlsim -mech dimm-link -dimms 8 -channels 4 -workload bfs -scale 15
//	dlsim -mech mcn -workload pr -iters 5
//	dlsim -mech dimm-link -topology torus -linkbw 50e9 -workload hotspot
//	tracegen -workload bfs | dlsim -tracein - -map page
//
// With -tracein, dlsim replays an external trace (text or binary ingest
// format, "-" for stdin) instead of a synthetic workload: the trace's
// raw addresses are translated onto the simulated DIMMs by the -map
// policy, and the run is content-addressed by the trace's canonical
// hash — a dlserve trace-kind job over the uploaded trace returns the
// same stdout byte-for-byte.
//
// The flag set is a 1:1 surface over the canonical job spec in
// internal/spec, which dlserve serves over HTTP: a dlserve job with the
// same spec returns this binary's stdout byte-for-byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/nmp"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

func main() {
	var (
		mech      = flag.String("mech", spec.DefaultMech, "mechanism: dimm-link | mcn | aim | abc-dimm | host-cpu")
		dimms     = flag.Int("dimms", spec.DefaultDIMMs, "number of DIMMs")
		channels  = flag.Int("channels", spec.DefaultChannels, "number of memory channels")
		workload  = flag.String("workload", spec.DefaultWorkload, "workload: bfs | hotspot | kmeans | nw | pr | sssp | spmv | tspow | gemv | histo | train | p2p | sync")
		scale     = flag.Int("scale", spec.DefaultScale, "graph scale (2^scale vertices) / problem size class")
		ef        = flag.Int("ef", spec.DefaultEdgeFactor, "graph edge factor")
		iters     = flag.Int("iters", spec.DefaultIters, "iterations (pr, kmeans, hotspot, spmv)")
		seed      = flag.Int64("seed", spec.DefaultSeed, "input generator seed")
		topology  = flag.String("topology", spec.DefaultTopology, "DIMM-Link topology: chain | ring | mesh | torus")
		linkbw    = flag.Float64("linkbw", spec.DefaultLinkBW, "DIMM-Link per-link bandwidth (bytes/s)")
		polling   = flag.String("polling", "", "polling mode override: base | base+itrpt | proxy | proxy+itrpt")
		cxl       = flag.Bool("cxl", false, "disaggregated mode: inter-group traffic over CXL instead of host forwarding")
		bcast     = flag.Bool("broadcast", false, "use the broadcast formulation (pr, sssp, spmv)")
		coll      = flag.String("coll", "", "collective algorithm override: ring | hd | tree (default: auto per mechanism/topology)")
		profile   = flag.Bool("profile", false, "record the per-thread traffic matrix")
		faultSpec = flag.String("fault", "", "link-fault plan, e.g. 'ber=1e-7,down=0-1@10us,stall=2-3@5us+20us,degrade=1-2@0*0.5' (dimm-link only)")
		faultSeed = flag.Int64("faultseed", spec.DefaultFaultSeed, "seed for the fault plan's error draws")

		traceIn  = flag.String("tracein", "", "replay an external trace file (ingest text or binary format; '-' = stdin) instead of a synthetic workload")
		mapPol   = flag.String("map", spec.DefaultMap, "address->DIMM mapping policy for -tracein: direct | page | first-touch")
		pageSize = flag.Int("page", spec.DefaultPageBytes, "page size in bytes for the page / first-touch mapping policies")
		traffic  = flag.String("traffic", "", "write the inter-DIMM traffic-matrix report (CSV) to this file; stdout is unchanged")

		parallel = flag.Int("parallel", 0, "run on N event lanes with lane-confined kernel phases in parallel (0/1 = single queue; output is byte-identical for every value)")

		withMetrics = flag.Bool("metrics", false, "attach the observability layer and report latency percentiles and per-link utilization")
		tracePath   = flag.String("trace", "", "write a JSONL event trace to this file (implies -metrics; stdout is unchanged by tracing)")
		samplePd    = flag.Uint64("sample", 0, "sample link utilization every N ns of simulated time (implies -metrics; 0 disables)")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var (
		sp spec.Spec
		td *ingest.Data
	)
	if *traceIn != "" {
		var err error
		td, err = loadTrace(*traceIn)
		if err != nil {
			fatal(err)
		}
		sp, err = spec.Spec{
			Kind: spec.KindTrace,
			Mech: *mech, DIMMs: *dimms, Channels: *channels,
			Topology: *topology, LinkBW: *linkbw, Polling: *polling, CXL: *cxl,
			Trace: td.Hash, Map: *mapPol, PageBytes: *pageSize,
			Fault: *faultSpec, FaultSeed: *faultSeed,
		}.Normalized()
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		sp, err = spec.Spec{
			Kind: spec.KindSim,
			Mech: *mech, DIMMs: *dimms, Channels: *channels,
			Workload: *workload, Scale: *scale, EdgeFactor: *ef, Iters: *iters,
			Topology: *topology, LinkBW: *linkbw, Polling: *polling,
			CXL: *cxl, Broadcast: *bcast, Coll: *coll,
			Seed: *seed, Fault: *faultSpec, FaultSeed: *faultSeed,
		}.Normalized()
		if err != nil {
			fatal(err)
		}
	}

	// The observability layer is passive: an instrumented run is
	// timing-identical to a bare one, and tracing only adds a side file.
	// -trace alone therefore leaves stdout byte-identical to a bare run;
	// the printed report is opted into with -metrics or -sample and is
	// itself byte-identical with and without -trace.
	hooks := spec.ParallelHooks(*parallel)
	hooks.Profile = *profile
	var traceFile *os.File
	report := *withMetrics || *samplePd > 0
	if report || *tracePath != "" {
		hooks.Metrics = metrics.NewCollector()
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			traceFile = f
			hooks.Metrics.Trace = metrics.NewTracer(f)
		}
		hooks.SamplePeriod = sim.Time(*samplePd) * sim.Nanosecond
	}

	var (
		run *spec.SimRun
		err error
	)
	if td != nil {
		run, err = sp.ReplayTrace(td, hooks)
	} else {
		run, err = sp.RunSim(hooks)
	}
	if err != nil {
		fatal(err)
	}
	run.Report(os.Stdout)

	if *traffic != "" {
		f, err := os.Create(*traffic)
		if err != nil {
			fatal(err)
		}
		if err := run.WriteTrafficCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if report {
		reportMetrics(hooks.Metrics, run.Sys, run.Res.Makespan)
	}
	if traceFile != nil {
		if err := hooks.Metrics.Trace.Close(); err != nil {
			fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dlsim: wrote %d trace events to %s\n",
			hooks.Metrics.Trace.Events(), *tracePath)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

// reportMetrics prints the observability summary: every recorded latency
// histogram's percentiles, the per-link utilization of each DL link at
// the makespan, and — when the sampler ran — the peak sampled value of
// each series.
func reportMetrics(coll *metrics.Collector, sys *nmp.System, makespan sim.Time) {
	names := coll.Reg.HistNames()
	lt := stats.NewTable("latency histograms (ns)",
		"metric", "count", "p50", "p95", "p99", "p999", "mean", "max")
	rows := 0
	for _, name := range names {
		h := coll.Reg.Hist(name)
		if h.Count() == 0 {
			continue
		}
		rows++
		lt.Addf(name, fmt.Sprintf("%d", h.Count()),
			float64(h.Quantile(0.50))/1000, float64(h.Quantile(0.95))/1000,
			float64(h.Quantile(0.99))/1000, float64(h.Quantile(0.999))/1000,
			h.Mean()/1000, float64(h.Max())/1000)
	}
	if rows > 0 {
		fmt.Println()
		lt.Render(os.Stdout)
	}

	if sys.Link != nil {
		ut := stats.NewTable("per-link utilization over the kernel", "link", "utilization")
		for gi, net := range sys.Link.Networks() {
			snap := net.UtilizationSnapshot(makespan)
			for i, key := range net.LinkKeys() {
				ut.Addf(fmt.Sprintf("g%d %s", gi, key), snap[i])
			}
		}
		fmt.Println()
		ut.Render(os.Stdout)
	}

	if sp := sys.Sampler(); sp != nil {
		st := stats.NewTable(fmt.Sprintf("sampled series (period %d ns)", sp.Period()/sim.Nanosecond),
			"series", "samples", "mean", "max")
		for _, s := range sp.Series() {
			st.Addf(s.Name, fmt.Sprintf("%d", len(s.V)), s.Mean(), s.Max())
		}
		fmt.Println()
		st.Render(os.Stdout)
	}
}

// loadTrace fully ingests an external trace from a file or stdin ("-"),
// validating it and computing its canonical content hash.
func loadTrace(path string) (*ingest.Data, error) {
	var src *os.File
	if path == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src = f
	}
	return ingest.ReadAll(src)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlsim:", err)
	os.Exit(1)
}
