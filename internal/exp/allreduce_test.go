package exp

import (
	"bytes"
	"testing"
)

// renderAllReduce runs the allreduce experiment with the given execution
// policy and returns the rendered tables.
func renderAllReduce(t *testing.T, jobs, parallel int) []byte {
	t.Helper()
	e, ok := ByID("allreduce")
	if !ok {
		t.Fatal("experiment allreduce not registered")
	}
	o := DefaultOptions()
	o.Jobs = jobs
	o.Parallel = parallel
	var buf bytes.Buffer
	for _, tb := range e.Run(o) {
		tb.Render(&buf)
	}
	return buf.Bytes()
}

// TestAllReduceJobsByteIdentity is the -jobs half of the collective
// determinism contract: the training grid (mechanisms x payloads x DL
// topologies, all four collectives hot) must render byte-identically
// whether it runs serially or fanned across workers.
func TestAllReduceJobsByteIdentity(t *testing.T) {
	serial := renderAllReduce(t, 1, 0)
	if len(serial) == 0 {
		t.Fatal("empty rendered tables")
	}
	if again := renderAllReduce(t, 1, 0); !bytes.Equal(serial, again) {
		t.Fatalf("two serial runs differ:\n%s\n---\n%s", serial, again)
	}
	if par := renderAllReduce(t, 4, 0); !bytes.Equal(serial, par) {
		t.Fatalf("jobs=1 and jobs=4 differ:\n%s\n---\n%s", serial, par)
	}
}

// TestAllReduceShardsByteIdentity is the -parallel half: the same grid on
// four event lanes in parallel mode must match the single-queue run byte
// for byte.
func TestAllReduceShardsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel allreduce grid skipped in -short mode")
	}
	want := renderAllReduce(t, 2, 0)
	if got := renderAllReduce(t, 2, 4); !bytes.Equal(got, want) {
		t.Fatalf("parallel=4 diverges from single-queue run:\n--- parallel=0\n%s--- parallel=4\n%s", want, got)
	}
}
