// shard_differential_test.go is the differential-testing harness for the
// sharded event kernel: every captured workload runs at several shard
// counts and the rendered report — the same bytes dlsim prints and
// dlserve caches — must be identical to the single-queue run. This is
// the repository-level statement of the deterministic-merge guarantee;
// the kernel-level property tests live in internal/sim.
package spec

import (
	"bytes"
	"testing"
)

// shardDiffSpecs is the workload table: one entry per distinct code path
// the kernel drives — intra-group traffic, broadcast trees, every
// mechanism's interconnect, a multi-group topology, and the fault layer
// (DLL retries, reroutes and host fallback all ride the event engine).
func shardDiffSpecs() []Spec {
	return []Spec{
		{Kind: KindSim, Workload: "p2p", DIMMs: 4, Channels: 2},
		{Kind: KindSim, Workload: "sync", DIMMs: 8, Channels: 4},
		{Kind: KindSim, Workload: "bfs", Scale: 10, DIMMs: 8, Channels: 4},
		{Kind: KindSim, Workload: "pr", Scale: 10, Iters: 2, Broadcast: true, DIMMs: 8, Channels: 4},
		{Kind: KindSim, Workload: "p2p", DIMMs: 8, Channels: 4, Mech: "mcn"},
		{Kind: KindSim, Workload: "p2p", DIMMs: 8, Channels: 4, Mech: "aim"},
		{Kind: KindSim, Workload: "p2p", DIMMs: 16, Channels: 8, Topology: "ring"},
		{Kind: KindSim, Workload: "p2p", DIMMs: 8, Channels: 4,
			Fault: "ber=1e-6,down=0-1@10us,stall=2-3@5us+20us,degrade=1-2@0*0.5"},
	}
}

// report runs the spec at the given shard count and returns the rendered
// report and structured JSON bodies.
func report(t *testing.T, sp Spec, shards int) ([]byte, []byte) {
	t.Helper()
	run, err := sp.RunSim(SimHooks{Shards: shards})
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	var text bytes.Buffer
	run.Report(&text)
	js, err := run.JSON()
	if err != nil {
		t.Fatalf("shards=%d: JSON: %v", shards, err)
	}
	return text.Bytes(), js
}

// TestShardedReportByteIdentity is the harness: for every table entry,
// the report at Shards 1/2/4/8 must be byte-identical to the plain
// single-engine run (shards=0). -short keeps two representative specs
// and two shard counts.
func TestShardedReportByteIdentity(t *testing.T) {
	specs := shardDiffSpecs()
	counts := []int{1, 2, 4, 8}
	if testing.Short() {
		specs = specs[:2]
		counts = []int{1, 4}
	}
	for _, sp := range specs {
		sp := sp
		name := sp.Workload + "-" + sp.Mech
		if sp.Fault != "" {
			name += "-fault"
		}
		t.Run(name, func(t *testing.T) {
			wantText, wantJSON := report(t, sp, 0)
			if len(wantText) == 0 {
				t.Fatal("empty baseline report")
			}
			for _, n := range counts {
				gotText, gotJSON := report(t, sp, n)
				if !bytes.Equal(gotText, wantText) {
					t.Fatalf("shards=%d: report diverges from single-queue run\n--- shards=0\n%s--- shards=%d\n%s",
						n, wantText, n, gotText)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("shards=%d: JSON body diverges from single-queue run", n)
				}
			}
		})
	}
}

// reportParallel runs the spec under -parallel n and returns the
// rendered bodies.
func reportParallel(t *testing.T, sp Spec, n int) ([]byte, []byte) {
	t.Helper()
	run, err := sp.RunSim(ParallelHooks(n))
	if err != nil {
		t.Fatalf("parallel=%d: %v", n, err)
	}
	var text bytes.Buffer
	run.Report(&text)
	js, err := run.JSON()
	if err != nil {
		t.Fatalf("parallel=%d: JSON: %v", n, err)
	}
	return text.Bytes(), js
}

// TestParallelHooks pins the -parallel N mapping: N <= 1 is the plain
// single-queue engine, N > 1 is N lanes in parallel mode.
func TestParallelHooks(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		if h := ParallelHooks(n); h != (SimHooks{}) {
			t.Fatalf("ParallelHooks(%d) = %+v, want the single-queue engine", n, h)
		}
	}
	if h := ParallelHooks(4); h != (SimHooks{Shards: 4, Parallel: true}) {
		t.Fatalf("ParallelHooks(4) = %+v, want 4 lanes in parallel mode", h)
	}
}

// TestParallelModelByteIdentity is the full-model parallel differential
// harness: every captured workload class runs at -parallel 2/4/8, and
// the rendered report and JSON body must be
// byte-identical to the plain single-engine run. Run it under -race with
// GOMAXPROCS >= 4 (the ci.sh leg does) so lane goroutines genuinely
// interleave. -short keeps two representative specs and one shard count.
func TestParallelModelByteIdentity(t *testing.T) {
	specs := shardDiffSpecs()
	counts := []int{2, 4, 8}
	if testing.Short() {
		specs = specs[:2]
		counts = []int{4}
	}
	for _, sp := range specs {
		sp := sp
		name := sp.Workload + "-" + sp.Mech
		if sp.Fault != "" {
			name += "-fault"
		}
		t.Run(name, func(t *testing.T) {
			wantText, wantJSON := report(t, sp, 0)
			if len(wantText) == 0 {
				t.Fatal("empty baseline report")
			}
			for _, n := range counts {
				gotText, gotJSON := reportParallel(t, sp, n)
				if !bytes.Equal(gotText, wantText) {
					t.Fatalf("parallel=%d: report diverges from single-queue run\n--- parallel=0\n%s--- parallel=%d\n%s",
						n, wantText, n, gotText)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("parallel=%d: JSON body diverges from single-queue run", n)
				}
			}
		})
	}
}

// TestParallelRejectsSampling pins the execution-policy guardrails: the
// sampler's probes read cross-lane state from a lane-0 ticker, so
// -parallel + -sample must fail fast with a clear error instead of
// racing, and SetParallel on an unsharded system must refuse.
func TestParallelRejectsSampling(t *testing.T) {
	sp := Spec{Kind: KindSim, Workload: "p2p", DIMMs: 4, Channels: 2}
	_, err := sp.RunSim(SimHooks{Shards: 4, Parallel: true, SamplePeriod: 1000})
	if err == nil {
		t.Fatal("RunSim accepted -parallel together with -sample")
	}
	if _, err := sp.RunSim(SimHooks{Parallel: true}); err == nil {
		t.Fatal("RunSim accepted -parallel on an unsharded system")
	}
}

// TestShardedOverprovisionedClamped pins the lane clamp: asking for more
// shards than DIMMs must run (clamped to the DIMM count), not panic, and
// still match the baseline bytes.
func TestShardedOverprovisionedClamped(t *testing.T) {
	sp := Spec{Kind: KindSim, Workload: "p2p", DIMMs: 4, Channels: 2}
	wantText, _ := report(t, sp, 0)
	gotText, _ := report(t, sp, 64)
	if !bytes.Equal(gotText, wantText) {
		t.Fatal("shards=64 on a 4-DIMM system diverges from the single-queue run")
	}
}
