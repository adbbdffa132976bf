package exp

import (
	"bytes"
	"testing"
)

// TestShardedExperimentByteIdentity runs one full experiment grid in
// parallel mode and checks every rendered table against the single-queue
// run — the experiment-harness end of the shard differential (the per-
// workload harness lives in internal/spec). Options.Parallel, like
// Options.Jobs, must never change a rendered byte.
func TestShardedExperimentByteIdentity(t *testing.T) {
	// fig01 sweeps real simulations (the motivation bandwidth curves) in
	// well under a second of quick-mode wall clock.
	e, ok := ByID("fig01")
	if !ok {
		t.Fatal("experiment fig01 not registered")
	}
	render := func(parallel int) []byte {
		o := DefaultOptions()
		o.Jobs = 2
		o.Parallel = parallel
		var buf bytes.Buffer
		for _, tb := range e.Run(o) {
			tb.Render(&buf)
		}
		return buf.Bytes()
	}
	want := render(0)
	if len(want) == 0 {
		t.Fatal("empty baseline tables")
	}
	counts := []int{1, 4}
	if !testing.Short() {
		counts = []int{1, 2, 4, 8}
	}
	for _, n := range counts {
		if got := render(n); !bytes.Equal(got, want) {
			t.Fatalf("parallel=%d: tables diverge from single-queue run\n--- parallel=0\n%s--- parallel=%d\n%s",
				n, want, n, got)
		}
	}
}
