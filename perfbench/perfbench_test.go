package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/spec"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	cases := []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0.001, 1, 99},
	}
	for _, c := range cases {
		if v, b := percentile(xs, c.q); v != c.want || b != c.wantBeyond {
			t.Errorf("percentile(1..100, %v) = %v beyond %d, want %v beyond %d", c.q, v, b, c.want, c.wantBeyond)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
	if _, b := percentile(xs[:99], 0.9); b != 9 {
		t.Errorf("99 samples leave %d beyond p90, want 9", b)
	}
}

func TestSampleCountRule(t *testing.T) {
	if got := minSamplesFor(0.9, 10); got != 100 {
		t.Errorf("minSamplesFor(0.9, 10) = %d, want 100", got)
	}
	if got := minSamplesFor(0.5, 10); got != 20 {
		t.Errorf("minSamplesFor(0.5, 10) = %d, want 20", got)
	}
	if minTimedJobs != 100 {
		t.Errorf("minTimedJobs = %d, want 100", minTimedJobs)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(20), End: ms(50)},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)}, // clipped to the parent
		{Name: "d", Parent: 3, Start: ms(95), End: ms(100)}, // grandchild: c's, not job's
		{Name: "other", Parent: -1, Start: ms(200), End: ms(210)},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(100 - 40 - 10), ms(20), ms(30), ms(30 - 5), ms(5), ms(10)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestDeriveSeeds(t *testing.T) {
	seen := make(map[int64]bool)
	for _, seed := range []int64{0, 1, 2, -1} {
		for stream := streamPass; stream <= streamRepeat; stream++ {
			for i := 0; i < 500; i++ {
				v := derive(seed, stream, i)
				if v <= 0 {
					t.Fatalf("derive(%d, %d, %d) = %d, want > 0", seed, stream, i, v)
				}
				if v != derive(seed, stream, i) {
					t.Fatal("derive is not a pure function")
				}
				if seen[v] {
					t.Fatalf("derive(%d, %d, %d) = %d collides", seed, stream, i, v)
				}
				seen[v] = true
			}
		}
	}
}

// TestPassSeeds pins the seed discipline: the jobs of one pass share a
// seed, consecutive passes and the warm-up passes never do.
func TestPassSeeds(t *testing.T) {
	w := table4Workload()
	if a, b := w.spec(7, streamPass, 0).Seed, w.spec(7, streamPass, w.passLen-1).Seed; a != b {
		t.Errorf("jobs of one pass have seeds %d and %d", a, b)
	}
	if a, b := w.spec(7, streamPass, 0).Seed, w.spec(7, streamPass, w.passLen).Seed; a == b {
		t.Error("consecutive passes share a seed")
	}
	if a, b := w.spec(7, streamPass, 0).Seed, w.spec(7, streamSetup, 0).Seed; a == b {
		t.Error("the warm-up pass shares the first timed pass's seed")
	}
	if a, b := w.spec(7, streamPass, 0).Seed, w.spec(8, streamPass, 0).Seed; a == b {
		t.Error("two benchmark seeds give the same inputs")
	}
}

func TestServeRepeats(t *testing.T) {
	const n = 4000
	uses := make(map[string]int)
	repeats := 0
	for k := 0; k < n; k++ {
		sp := serveSpec(5, k)
		h, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if uses[h] > 0 {
			repeats++
			if k%repeatEvery != repeatEvery-1 {
				t.Fatalf("submission %d repeats a spec off the repeat slots", k)
			}
			found := false
			for back := 1; back < repeatEvery; back++ {
				if serveSpec(5, k-back) == sp {
					found = true
				}
			}
			if !found {
				t.Fatalf("submission %d repeats a spec more than %d back", k, repeatEvery-1)
			}
		}
		uses[h]++
		if uses[h] > 2 {
			t.Fatalf("spec of submission %d submitted %d times", k, uses[h])
		}
	}
	if repeats != n/repeatEvery {
		t.Errorf("%d repeats in %d submissions, want %d", repeats, n, n/repeatEvery)
	}
	kinds := make(map[string]int)
	for d := 0; d < 8*len(serveMix); d++ {
		kinds[serveDistinct(5, streamServe, d).Workload]++
	}
	for _, k := range serveMix {
		if kinds[k] != 8 {
			t.Errorf("workload %s drawn %d times in %d distinct specs", k, kinds[k], 8*len(serveMix))
		}
	}
}

// TestTracedDecompositionMatchesRunSim runs small specs through both
// paths under every policy the benchmark uses and requires the same
// bytes, and one span per layer inside each traced job.
func TestTracedDecompositionMatchesRunSim(t *testing.T) {
	cases := []struct {
		sp  spec.Spec
		pol policy
	}{
		{spec.Spec{Workload: "bfs", Scale: 10, Iters: 2, Seed: 3}, serial},
		{spec.Spec{Workload: "train", Mech: "abc-dimm", DIMMs: 16, Channels: 8, Scale: 10, Iters: 2, Seed: 3}, serial},
		{spec.Spec{Workload: "kmeans", Mech: "host-cpu", Scale: 10, Iters: 2, Seed: 3}, serial},
		{spec.Spec{Workload: "pr", DIMMs: 16, Channels: 8, Scale: 10, Iters: 2, Seed: 3}, parallel4},
		{spec.Spec{Workload: "pr", DIMMs: 16, Channels: 8, Scale: 10, Iters: 2, Seed: 3}, merged4},
	}
	tr := newTracer()
	for i, c := range cases {
		c.sp.Kind = spec.KindSim
		plain, err := runJob(c.sp, c.pol)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runTraced(tr, "j", spanJob, c.sp, c.pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Digest != traced.Digest {
			t.Errorf("case %d (%s under %+v): traced bytes differ from RunSim's", i, c.sp.Workload, c.pol)
		}
		if plain.Counts != traced.Counts {
			t.Errorf("case %d: traced model counts differ from RunSim's", i)
		}
		if traced.RunWall <= 0 || traced.Mallocs == 0 {
			t.Errorf("case %d: traced run recorded run wall %v, %d mallocs", i, traced.RunWall, traced.Mallocs)
		}
	}
	spans := tr.snapshot()
	want := []string{spanNormalize, spanSystem, spanBuild, spanRun, spanRender}
	var root int
	var kids []string
	check := func() {
		if !reflect.DeepEqual(kids, want) {
			t.Errorf("job spans %v, want %v", kids, want)
		}
	}
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %s not closed", s.Name)
		}
		if s.Parent == -1 {
			if i > 0 {
				check()
			}
			root, kids = i, nil
			continue
		}
		if s.Parent != root || s.Start < spans[root].Start || s.End > spans[root].End {
			t.Errorf("span %s outside its job", s.Name)
		}
		kids = append(kids, s.Name)
	}
	check()
}

func TestSameChecksumGate(t *testing.T) {
	if err := sameChecksum([]outcome{{Checksum: 1}, {Checksum: 1}}); err != nil {
		t.Error(err)
	}
	if err := sameChecksum([]outcome{{Checksum: 1}, {Checksum: 2}}); err == nil {
		t.Error("differing checksums passed the gate")
	}
}

// TestServeVerifyCatchesMismatch feeds the serve gate forged submissions:
// wrong bytes, and a repeat that the cache did not serve.
func TestServeVerifyCatchesMismatch(t *testing.T) {
	sp := spec.Spec{Kind: spec.KindSim, Workload: "sync", Scale: 10, Iters: 2, Seed: 9}
	h, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	o, err := directRun(sp)
	if err != nil {
		t.Fatal(err)
	}
	good := sha256.Sum256(o.Text)
	phase := map[int]*submission{
		0: {spec: sp, hash: h, text: good},
		1: {spec: sp, hash: h, text: good, hit: true},
	}
	if _, _, f := verify([]map[int]*submission{phase}, 1, directRun); len(f) != 0 {
		t.Fatalf("clean phase failed: %v", f)
	}
	phase[1].text[0] ^= 1
	if _, _, f := verify([]map[int]*submission{phase}, 1, directRun); len(f) != 1 {
		t.Errorf("forged bytes: %d failures, want 1: %v", len(f), f)
	}
	phase[1].text, phase[1].hit = good, false
	if _, _, f := verify([]map[int]*submission{phase}, 1, directRun); len(f) != 1 {
		t.Errorf("uncached repeat: %d failures, want 1: %v", len(f), f)
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json, the per-layer table
// and the metrics the workloads emit in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}

	var rep report
	rep.latency([]float64{1, 2, 3}, time.Second, 3)
	e2e := map[string]string{"sim_events_per_s": "events/s", "setup_s": "s", "peak_rss_mb": "MiB"}
	for n, m := range rep.e2e {
		e2e[n] = m.Unit
	}
	got := make(map[string]string)
	for _, m := range bf.EndToEnd {
		got[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(got, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, code emits %v", got, e2e)
	}

	layers := layerMetrics(nil, nil, modelCounts{})
	got = make(map[string]string)
	for _, m := range bf.PerLayer {
		got[m.Name] = m.Unit
	}
	want := make(map[string]string)
	for n, m := range layers {
		want[n] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		var missing []string
		for n := range want {
			if got[n] != want[n] {
				missing = append(missing, n)
			}
		}
		sort.Strings(missing)
		t.Errorf("BENCHMARK.json per_layer disagrees with the code on %v", missing)
	}
}
