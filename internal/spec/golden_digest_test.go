package spec

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/nmp"
)

// goldenDigestsPath is the committed digest table: one line per workload
// and mechanism, "workload mech sha256", where the hash covers the
// rendered report followed by the JSON body.
const goldenDigestsPath = "../../testdata/golden_sim_digests.txt"

// digestMechs are the mechanisms the digest table covers.
var digestMechs = []nmp.Mechanism{nmp.MechDIMMLink, nmp.MechMCN, nmp.MechABCDIMM, nmp.MechAIM}

// digestSpecs is every registered workload (each canonical name once, in
// name order) on every mechanism of digestMechs, at scale 10 and two
// iterations on the default 8D-4C system.
func digestSpecs() []Spec {
	seen := map[string]bool{}
	var names []string
	for _, w := range workloadAliases {
		if !seen[w] {
			seen[w] = true
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var specs []Spec
	for _, w := range names {
		for _, m := range digestMechs {
			specs = append(specs, Spec{Kind: KindSim, Workload: w, Mech: string(m), Scale: 10, Iters: 2})
		}
	}
	return specs
}

// simDigest runs the spec under the hooks and returns the hex sha256 of
// its report followed by its JSON body.
func simDigest(t *testing.T, sp Spec, h SimHooks) string {
	t.Helper()
	run, err := sp.RunSim(h)
	if err != nil {
		t.Fatalf("%s/%s: %v", sp.Workload, sp.Mech, err)
	}
	sum := sha256.New()
	run.Report(sum)
	js, err := run.JSON()
	if err != nil {
		t.Fatalf("%s/%s: JSON: %v", sp.Workload, sp.Mech, err)
	}
	sum.Write(js)
	return hex.EncodeToString(sum.Sum(nil))
}

// readGoldenDigests parses the digest table into "workload mech" -> hash.
func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", goldenDigestsPath, line)
		}
		want[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenSimDigests pins the output bytes of every workload on every
// digest mechanism: a serial run and a -parallel 4 run must both
// reproduce the committed digest. Thread bodies run ahead of simulated
// time between rendezvous points, so a body that reads another thread's
// data without a barrier would show up here as a changed digest. Run it
// under -race with GOMAXPROCS >= 4 (the ci.sh leg does) so bodies and
// lanes genuinely interleave. A mismatch prints the line to commit if the
// change of bytes is intended.
func TestGoldenSimDigests(t *testing.T) {
	want := readGoldenDigests(t)
	specs := digestSpecs()
	if len(want) != len(specs) {
		t.Errorf("%s has %d entries, the workload x mechanism table has %d",
			goldenDigestsPath, len(want), len(specs))
	}
	for _, sp := range specs {
		sp := sp
		key := sp.Workload + " " + sp.Mech
		t.Run(sp.Workload+"-"+sp.Mech, func(t *testing.T) {
			for _, n := range []int{0, 4} {
				if got := simDigest(t, sp, ParallelHooks(n)); got != want[key] {
					t.Errorf("-parallel %d: digest changed:\n%s %s", n, key, got)
				}
			}
		})
	}
}
