package dram

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkDRAMBankFSM measures the bank state machine on a row-hit-heavy
// sequential stream interleaved with bank-conflicting strides: activate /
// CAS / precharge decisions, bus reservation and refresh adjustment.
func BenchmarkDRAMBankFSM(b *testing.B) {
	m := New(testGeo(), DDR4_3200(), 0)
	var t sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Three sequential lines (row hits), then a far stride that lands
		// in another row of the same bank (row miss -> precharge cycle).
		addr := uint64(i%3)*64 + uint64(i/3)%64*1<<20
		done := m.Access(t, addr, 64, i%4 == 0)
		if done > t {
			t = done
		}
	}
}

// BenchmarkDRAMStream measures the streamed-access path in the shape of a
// workload's bulk chunk: each iteration reads one 4 KiB block and writes
// another, both sequential streams through the DIMM. It reports the cost
// per 64-byte line.
func BenchmarkDRAMStream(b *testing.B) {
	g := testGeo()
	m := New(g, DDR4_3200(), 0)
	const chunk = 4096
	half := g.DIMMCapBytes / 2
	var t sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i) * chunk % half
		rd := m.Access(t, off, chunk, false)
		wr := m.Access(t, half+off, chunk, true)
		t = max(t, rd, wr)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*chunk/int(g.LineBytes)), "ns/line")
}
