// dlbench regenerates the paper's tables and figures (see DESIGN.md §4 for
// the experiment index and EXPERIMENTS.md for recorded results).
//
// Examples:
//
//	dlbench -list
//	dlbench -exp fig10
//	dlbench -exp all -full          # paper-scale inputs (slow)
//	dlbench -exp all -jobs 8        # fan simulations across 8 workers
//	dlbench -exp fig12 -csv out/    # also dump CSVs
//
// Experiments fan their independent simulation jobs across -jobs worker
// goroutines (default: GOMAXPROCS). Results are reassembled in a fixed
// serial order, so the rendered tables are byte-identical for any -jobs
// value given the same -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/exp"
	"repro/internal/spec"
)

func main() {
	var (
		id       = flag.String("exp", "", "experiment id (fig01, fig10..fig17, table1..table5, abl-*) or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		full     = flag.Bool("full", false, "paper-scale inputs (slower); default is quick mode")
		seed     = flag.Int64("seed", spec.DefaultSeed, "input generator seed")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation jobs per experiment")
		quiet    = flag.Bool("q", false, "suppress per-job progress on stderr")
		parallel = flag.Int("parallel", 0, "run every system on N event lanes with lane-confined kernel phases in parallel (0/1 = single queue; tables are byte-identical for every value)")
		csv      = flag.String("csv", "", "directory to also write tables as CSV")

		faultSpec = flag.String("fault", "", "link-fault plan applied to every DIMM-Link run, e.g. 'ber=1e-7,down=0-1@10us' (see dlsim -fault)")
		faultSeed = flag.Int64("faultseed", spec.DefaultFaultSeed, "seed for the fault plan's error draws")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *list || *id == "" {
		fmt.Println("available experiments:")
		for _, e := range exp.All() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
		}
		if *id == "" && !*list {
			os.Exit(2)
		}
		return
	}

	// The flag set maps 1:1 onto the canonical exp-kind job spec shared
	// with dlserve; spec validation catches unknown experiments and
	// malformed fault plans up front, with one set of defaults for every
	// binary.
	sp, err := spec.Spec{
		Kind: spec.KindExp, Exp: *id, Full: *full,
		Seed: *seed, Fault: *faultSpec, FaultSeed: *faultSeed,
	}.Normalized()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlbench: %v (use -list)\n", err)
		os.Exit(1)
	}
	opts, err := sp.ExpOptions(nil, *jobs, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlbench: %v\n", err)
		os.Exit(1)
	}
	opts.Parallel = *parallel
	targets, err := sp.Targets()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlbench: %v (use -list)\n", err)
		os.Exit(1)
	}

	grandStart := time.Now()
	for _, e := range targets {
		start := time.Now()
		fmt.Printf("### %s — %s\n\n", e.ID, e.Title)
		runOpts := opts
		if !*quiet {
			// Per-job progress: one stderr line per completed simulation,
			// rewritten in place. The callback is serialized by the engine.
			eid := e.ID
			runOpts.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d jobs", eid, done, total)
				if done == total {
					fmt.Fprint(os.Stderr, "\n")
				}
			}
		}
		tables := e.Run(runOpts)
		for i, tb := range tables {
			tb.Render(os.Stdout)
			fmt.Println()
			if *csv != "" {
				if err := os.MkdirAll(*csv, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, "dlbench:", err)
					os.Exit(1)
				}
				path := filepath.Join(*csv, fmt.Sprintf("%s_%d.csv", e.ID, i))
				f, err := os.Create(path)
				if err != nil {
					fmt.Fprintln(os.Stderr, "dlbench:", err)
					os.Exit(1)
				}
				tb.CSV(f)
				f.Close()
			}
		}
		// Timing goes to stderr with the progress lines: stdout carries only
		// the tables, so redirected output is byte-identical across -jobs.
		fmt.Fprintf(os.Stderr, "(%s completed in %.1fs)\n", e.ID, time.Since(start).Seconds())
	}
	if len(targets) > 1 {
		fmt.Fprintf(os.Stderr, "(total: %d experiments in %.1fs with %d jobs)\n",
			len(targets), time.Since(grandStart).Seconds(), opts.Jobs)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dlbench:", err)
			os.Exit(1)
		}
		f.Close()
	}
}
