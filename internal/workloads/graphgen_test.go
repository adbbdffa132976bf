package workloads

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sortedCSR is the comparison-sort CSR builder the generators used before
// csrFromPairs: sort the whole edge list by (u, v), then lay it out and
// draw the weights in that order. It is the oracle csrFromPairs must match
// exactly.
func sortedCSR(n int32, pairs []edge, seed int64) *CSR {
	edges := append([]edge(nil), pairs...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	g := &CSR{
		N:       n,
		Offsets: make([]int32, n+1),
		Edges:   make([]int32, len(edges)),
		Weights: make([]int32, len(edges)),
	}
	wrng := rand.New(rand.NewSource(seed + 1))
	for i, e := range edges {
		g.Offsets[e.u+1]++
		g.Edges[i] = e.v
		g.Weights[i] = 1 + int32(wrng.Intn(63))
	}
	for v := int32(0); v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	return g
}

// TestGeneratorsMatchSortOracle pins Community and RMAT to the comparison-
// sort builder: offsets, edge order and weights must be identical, from the
// empty graph of scale 0 up to the scale-14 inputs of the Table IV runs.
func TestGeneratorsMatchSortOracle(t *testing.T) {
	scales := []int{0, 1, 2, 3, 8, 14}
	seeds := []int64{1, 7, 42, 1 << 40}
	gens := []struct {
		name  string
		build func(scale, ef int, seed int64) *CSR
		pairs func(scale, ef int, seed int64) (int32, []edge)
	}{
		{"community", Community, communityPairs},
		{"rmat", RMAT, rmatPairs},
	}
	for _, gen := range gens {
		for _, scale := range scales {
			for _, seed := range seeds {
				if testing.Short() && scale == 14 && seed != 42 {
					continue
				}
				n, pairs := gen.pairs(scale, 8, seed)
				want := sortedCSR(n, pairs, seed)
				got := gen.build(scale, 8, seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s scale %d seed %d: CSR differs from the sort oracle", gen.name, scale, seed)
				}
			}
		}
	}
}

// BenchmarkCommunity times the Table IV graph input (scale 14, edge
// factor 8).
func BenchmarkCommunity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Community(14, 8, int64(i))
	}
}
