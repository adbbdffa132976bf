package spec

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nmp"
)

// goldenDigestsPath is the committed digest table: one line per spec,
// "workload mech system topology sha256" (system as in 8D-4C), where the
// hash covers the rendered report followed by the JSON body.
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
			specs = append(specs, Spec{Kind: KindSim, Workload: w, Mech: string(m), Scale: 10, Iters: 2,
				DIMMs: DefaultDIMMs, Channels: DefaultChannels, Topology: DefaultTopology})
		}
	}
	return specs
}

// collectiveDigestSpecs is the train AllReduce on the systems of the
// collective grid, 16D-8C at scale 10 and two iterations: DIMM-Link on
// every topology, then every other mechanism including the host-cpu
// baseline.
func collectiveDigestSpecs() []Spec {
	train := func(mech nmp.Mechanism, topo core.TopologyKind) Spec {
		return Spec{Kind: KindSim, Workload: "train", Mech: string(mech), Scale: 10, Iters: 2,
			DIMMs: 16, Channels: 8, Topology: string(topo)}
	}
	var specs []Spec
	for _, topo := range []core.TopologyKind{core.TopoChain, core.TopoRing, core.TopoMesh, core.TopoTorus} {
		specs = append(specs, train(nmp.MechDIMMLink, topo))
	}
	for _, m := range []nmp.Mechanism{nmp.MechMCN, nmp.MechAIM, nmp.MechABCDIMM, nmp.MechHostCPU} {
		specs = append(specs, train(m, core.TopoChain))
	}
	return specs
}

// digestKey is the spec's key in the digest table.
func digestKey(sp Spec) string {
	return fmt.Sprintf("%s %s %dD-%dC %s", sp.Workload, sp.Mech, sp.DIMMs, sp.Channels, sp.Topology)
}

// simDigest runs the spec under the hooks and returns the hex sha256 of
// its report followed by its JSON body.
func simDigest(t *testing.T, sp Spec, h SimHooks) string {
	t.Helper()
	run, err := sp.RunSim(h)
	if err != nil {
		t.Fatalf("%s: %v", digestKey(sp), err)
	}
	sum := sha256.New()
	run.Report(sum)
	js, err := run.JSON()
	if err != nil {
		t.Fatalf("%s: JSON: %v", digestKey(sp), err)
	}
	sum.Write(js)
	return hex.EncodeToString(sum.Sum(nil))
}

// readGoldenDigests parses the digest table into digestKey -> hash.
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
		if len(fields) != 5 {
			t.Fatalf("%s: malformed line %q", goldenDigestsPath, line)
		}
		want[strings.Join(fields[:4], " ")] = fields[4]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenSimDigests pins the output bytes of every workload on every
// digest mechanism, and of the collective grid's train runs: a serial run
// and a -parallel 4 run must both reproduce the committed digest. Thread
// bodies run ahead of simulated time between rendezvous points, so a body
// that reads another thread's data without a barrier would show up here
// as a changed digest. Run it under -race with GOMAXPROCS >= 4 (the ci.sh
// leg does) so bodies and lanes genuinely interleave. A mismatch prints
// the line to commit if the change of bytes is intended.
func TestGoldenSimDigests(t *testing.T) {
	want := readGoldenDigests(t)
	specs := append(digestSpecs(), collectiveDigestSpecs()...)
	if len(want) != len(specs) {
		t.Errorf("%s has %d entries, the digest spec table has %d",
			goldenDigestsPath, len(want), len(specs))
	}
	for _, sp := range specs {
		sp := sp
		key := digestKey(sp)
		name := sp.Workload + "-" + sp.Mech
		if sp.DIMMs != DefaultDIMMs || sp.Topology != DefaultTopology {
			name = strings.ReplaceAll(key, " ", "-")
		}
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 4} {
				if got := simDigest(t, sp, ParallelHooks(n)); got != want[key] {
					t.Errorf("-parallel %d: digest changed:\n%s %s", n, key, got)
				}
			}
		})
	}
}
