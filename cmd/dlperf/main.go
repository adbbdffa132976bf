// dlperf benchmarks the simulation kernel and records the result as one
// point of the repository's performance trajectory.
//
// It runs a fixed scenario suite — a pure event-kernel microbenchmark, a
// link-saturating P2P transfer, and the Table IV workload suite end to
// end — and writes BENCH_<label>.json with events/sec, wall time,
// allocs/op, peak RSS and the per-suite sim-time/real-time ratio.
// Committing the file after a perf-relevant PR extends the trajectory:
//
//	dlperf -label seed            # before the change
//	dlperf -label pr5             # after the change
//	dlperf -label ci -quick       # the ci.sh smoke (fast inputs)
//
// The scenarios are deterministic (fixed seeds, fixed input sizes per
// mode), so two runs differ only in machine speed; events/sec and
// allocs/op are the comparable columns. The tool exits non-zero if any
// suite records a non-positive event rate, which the ci.sh smoke relies
// on as a liveness check.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ingest"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// suiteResult is one scenario's measured row.
type suiteResult struct {
	Name         string  `json:"name"`
	Events       uint64  `json:"events"`  // engine events executed
	WallNS       int64   `json:"wall_ns"` // host wall-clock time
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"` // heap allocations per event
	SimNS        uint64  `json:"sim_ns"`        // simulated time covered
	SimRealRatio float64 `json:"sim_real_ratio"`

	// Phase-parallel columns (model-par suite only): the lane count, and
	// the wall-clock ratio of the merged-mode run to the parallel run of
	// the same spec.
	Shards          int     `json:"shards,omitempty"`
	SpeedupVsMerged float64 `json:"speedup_vs_merged,omitempty"`
}

// benchFile is the BENCH_<label>.json schema.
type benchFile struct {
	Label        string        `json:"label"`
	Quick        bool          `json:"quick"`
	GoVersion    string        `json:"go_version"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	Suites       []suiteResult `json:"suites"`
	PeakRSSBytes int64         `json:"peak_rss_bytes"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	var (
		label = flag.String("label", "dev", "trajectory point label; output is BENCH_<label>.json")
		quick = flag.Bool("quick", false, "small inputs (the ci.sh smoke); full inputs otherwise")
		out   = flag.String("o", ".", "directory to write BENCH_<label>.json into")
	)
	flag.Parse()

	suites := []struct {
		name string
		run  func(quick bool) suiteResult
	}{
		{"kernel", benchKernel},
		{"model-par", benchModelPar},
		{"noc-p2p", benchP2P},
		{"table4-suite", benchTableIV},
		{"collective", benchCollective},
		{"ingest", benchIngest},
	}

	bf := benchFile{
		Label:      *label,
		Quick:      *quick,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	ok := true
	for _, s := range suites {
		r := s.run(*quick)
		r.Name = s.name
		if r.WallNS > 0 {
			r.EventsPerSec = float64(r.Events) / (float64(r.WallNS) / 1e9)
			r.SimRealRatio = float64(r.SimNS) / float64(r.WallNS)
		}
		if r.EventsPerSec <= 0 {
			ok = false
		}
		fmt.Printf("%-14s %12d events  %8.1f ms wall  %12.0f events/s  %7.2f allocs/op  %8.3f sim/real\n",
			r.Name, r.Events, float64(r.WallNS)/1e6, r.EventsPerSec, r.AllocsPerOp, r.SimRealRatio)
		bf.Suites = append(bf.Suites, r)
	}
	bf.PeakRSSBytes = peakRSS()

	path := filepath.Join(*out, fmt.Sprintf("BENCH_%s.json", *label))
	b, err := json.MarshalIndent(&bf, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (peak RSS %.1f MiB)\n", path, float64(bf.PeakRSSBytes)/(1<<20))
	if !ok {
		fatal(fmt.Errorf("a suite recorded a non-positive event rate"))
	}
}

// benchKernel measures raw event-kernel throughput: a fixed population of
// self-rescheduling actors keeps the heap at a steady depth while events
// churn through it, which is exactly the Engine's duty cycle under a real
// simulation (heap push/pop dominates; callbacks are trivial).
func benchKernel(quick bool) suiteResult {
	total := uint64(20_000_000)
	reps := 3
	if quick {
		total = 2_000_000
		reps = 1
	}
	const actors = 512
	// Best-of-N: the minimum wall time is the least noise-contaminated
	// observation, so trajectory points compare machine speed rather than
	// draws from the host scheduler-noise distribution.
	var best suiteResult
	for r := 0; r < reps; r++ {
		eng := sim.NewEngine()
		// Deterministic LCG delays spread actors across the timeline so pops
		// interleave like real traffic rather than draining FIFO.
		rng := uint64(0x9e3779b97f4a7c15)
		var scheduled uint64
		fns := make([]func(), actors)
		for i := range fns {
			fns[i] = func() {
				if scheduled < total {
					scheduled++
					rng = rng*6364136223846793005 + 1442695040888963407
					eng.After(sim.Time(rng>>48)+1, fns[i%actors])
				}
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := range fns {
			scheduled++
			eng.After(sim.Time(i)+1, fns[i])
		}
		eng.Run()
		wall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if r == 0 || wall.Nanoseconds() < best.WallNS {
			best = suiteResult{
				Events:      eng.Processed(),
				WallNS:      wall.Nanoseconds(),
				AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(eng.Processed()),
				SimNS:       eng.Now() / uint64(sim.Nanosecond),
			}
		}
	}
	return best
}

// benchModelPar measures the full-system phase-parallel mode: the same
// sharded spec runs once in deterministic-merge mode and once with
// SetParallel(true), their rendered reports must be byte-identical (the
// run aborts otherwise), and the recorded row is the parallel run with
// its wall-clock speedup over merged mode. PageRank on a 16-DIMM system
// alternates local rank compute with barrier-delimited frontier
// exchanges, so it exercises both parallel spans (concurrent fills and
// lane execution on a multi-core host; per-lane heap cache residency
// even on one core) and the serial remote phases between them.
func benchModelPar(quick bool) suiteResult {
	// Scale 14 keeps the run in the regime where the parallel spans are a
	// meaningful fraction of wall time; at larger scales the serial remote
	// exchange phases grow faster than the local compute phases and wash
	// the speedup out. Best-of-5 because the deltas are ~10% on a loaded
	// host.
	sp := spec.Spec{Kind: spec.KindSim, Workload: "pr", Scale: 14, Iters: 5, DIMMs: 16, Channels: 8}
	reps := 5
	if quick {
		sp.Scale = 11
		sp.Iters = 2
		reps = 1
	}
	const shards = 4

	measure := func(parallel bool) (best time.Duration, report []byte, events, simNS uint64, allocs uint64) {
		for r := 0; r < reps; r++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			run, err := sp.RunSim(spec.SimHooks{Shards: shards, Parallel: parallel})
			wall := time.Since(start)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				fatal(err)
			}
			var text bytes.Buffer
			run.Report(&text)
			if r == 0 || wall < best {
				best = wall
				report = text.Bytes()
				events = run.Sys.Sharded().Processed()
				simNS = run.Res.Makespan / uint64(sim.Nanosecond)
				allocs = ms1.Mallocs - ms0.Mallocs
			}
		}
		return best, report, events, simNS, allocs
	}
	mergedWall, mergedReport, _, _, _ := measure(false)
	parWall, parReport, events, simNS, allocs := measure(true)

	if !bytes.Equal(mergedReport, parReport) {
		fatal(fmt.Errorf("model-par: parallel run diverged from merged run\n--- merged\n%s--- parallel\n%s", mergedReport, parReport))
	}
	speedup := 0.0
	if parWall > 0 {
		speedup = float64(mergedWall) / float64(parWall)
	}
	return suiteResult{
		Events:          events,
		WallNS:          parWall.Nanoseconds(),
		AllocsPerOp:     float64(allocs) / float64(events),
		SimNS:           simNS,
		Shards:          shards,
		SpeedupVsMerged: speedup,
	}
}

// benchP2P saturates the chain with back-to-back 4 KiB transfers (the
// spec's canonical end-to-end p2p bench) — the per-hop NoC path
// (credits, bus reservation, route lookup) is the whole cost. Repeats
// give the suite enough wall time to measure in full mode.
func benchP2P(quick bool) suiteResult {
	reps := 8
	if quick {
		reps = 1
	}
	sps := make([]spec.Spec, reps)
	for i := range sps {
		sps[i] = spec.Spec{Kind: spec.KindSim, Workload: "p2p"}
	}
	return benchSpecs(sps...)
}

// benchTableIV runs the Table IV workload suite end to end on the default
// 8-DIMM DIMM-Link system: the macro benchmark every experiment grid is
// made of.
func benchTableIV(quick bool) suiteResult {
	scale := 14
	iters := 4
	if quick {
		scale = 11
		iters = 2
	}
	var sps []spec.Spec
	for _, w := range []string{"bfs", "hotspot", "kmeans", "nw", "pr", "sssp", "tspow"} {
		sps = append(sps, spec.Spec{Kind: spec.KindSim, Workload: w, Scale: scale, Iters: iters})
	}
	return benchSpecs(sps...)
}

// benchCollective runs the data-parallel training workload — dominated by
// the AllReduce rendezvous — under every IDC mechanism, exercising each
// mechanism's collective schedule (ring on DL's chain, tree elsewhere).
func benchCollective(quick bool) suiteResult {
	scale := 16
	iters := 4
	if quick {
		scale = 13
		iters = 2
	}
	var sps []spec.Spec
	for _, m := range []string{"dimm-link", "mcn", "aim", "abc-dimm"} {
		sps = append(sps, spec.Spec{Kind: spec.KindSim, Workload: "train", Mech: m, Scale: scale, Iters: iters})
	}
	return benchSpecs(sps...)
}

// benchIngest measures streaming trace-ingestion throughput: a producer
// goroutine encodes synthetic records in the binary framing into an
// io.Pipe while the consumer parses, validates and content-hashes them
// record-at-a-time — the dlserve upload path end to end, with no full
// trace ever resident. Events counts records parsed; a near-zero
// allocs/op column is the O(1)-memory evidence the ingest contract
// promises (per-record cost is parsing plus hashing, never retention).
func benchIngest(quick bool) suiteResult {
	records := uint64(4_000_000)
	reps := 3
	if quick {
		records = 400_000
		reps = 1
	}
	const threads = 64
	var best suiteResult
	for r := 0; r < reps; r++ {
		pr, pw := io.Pipe()
		go func() {
			w, err := ingest.NewWriter(pw, ingest.FormatBinary, threads)
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			rng := uint64(0x9e3779b97f4a7c15)
			var rec trace.Record
			for i := uint64(0); i < records; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				rec.Thread = int(rng % threads)
				rec.Addr = (rng >> 12) % (1 << 30)
				rec.Size = uint32(64 + (rng>>34)%448)
				rec.Write = rng&1 == 1
				rec.Gap = (rng >> 40) & 1023
				if err := w.Write(&rec); err != nil {
					pw.CloseWithError(err)
					return
				}
			}
			pw.CloseWithError(w.Flush())
		}()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		n, _, _, err := ingest.Drain(pr)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			fatal(err)
		}
		if n != records {
			fatal(fmt.Errorf("ingest: drained %d of %d records", n, records))
		}
		if r == 0 || wall.Nanoseconds() < best.WallNS {
			best = suiteResult{
				Events:      n,
				WallNS:      wall.Nanoseconds(),
				AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
			}
		}
	}
	return best
}

// benchSpecs executes sim-kind specs serially and aggregates events, wall
// time, allocations and simulated time across them.
func benchSpecs(sps ...spec.Spec) suiteResult {
	var r suiteResult
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for _, sp := range sps {
		run, err := sp.RunSim(spec.SimHooks{})
		if err != nil {
			fatal(err)
		}
		r.Events += run.Sys.Eng.Processed()
		r.SimNS += run.Res.Makespan / uint64(sim.Nanosecond)
	}
	r.WallNS = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&ms1)
	if r.Events > 0 {
		r.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(r.Events)
	}
	return r
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlperf:", err)
	os.Exit(1)
}
