package dram

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func testGeo() mem.Geometry {
	return mem.Geometry{
		NumDIMMs:     2,
		NumChannels:  1,
		DIMMCapBytes: 1 << 26,
		RanksPerDIMM: 2,
		BanksPerRank: 16,
		RowBytes:     8192,
		LineBytes:    64,
	}
}

func TestTimingValidate(t *testing.T) {
	if err := DDR4_3200().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DDR4_2400().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DDR4_3200()
	bad.TRFC = bad.TREFI
	if bad.Validate() == nil {
		t.Fatal("tRFC >= tREFI accepted")
	}
}

func TestFirstAccessLatency(t *testing.T) {
	m := New(testGeo(), DDR4_3200(), 0)
	tim := DDR4_3200()
	done := m.Access(0, 0, 64, false)
	// Cold bank: activate (tRCD) + CAS (tCL) + burst (tBL).
	want := tim.TRCD + tim.TCL + tim.TBL
	if done != want {
		t.Fatalf("cold access done at %d, want %d", done, want)
	}
	if m.Stats.RowEmpty != 1 || m.Stats.Activations != 1 {
		t.Fatalf("stats: %+v", m.Stats)
	}
}

func TestRowHitIsFaster(t *testing.T) {
	m := New(testGeo(), DDR4_3200(), 0)
	tim := DDR4_3200()
	first := m.Access(0, 0, 64, false)
	second := m.Access(first, 64, 64, false)
	if second-first != tim.TCL+tim.TBL {
		t.Fatalf("row hit latency %d, want %d", second-first, tim.TCL+tim.TBL)
	}
	if m.Stats.RowHits != 1 {
		t.Fatalf("stats: %+v", m.Stats)
	}
}

func TestRowConflictPays(t *testing.T) {
	g := testGeo()
	m := New(g, DDR4_3200(), 0)
	tim := DDR4_3200()
	// Two rows that map to the same bank: rows are bank-interleaved, so the
	// same bank repeats every BanksPerRank * RanksPerDIMM rows.
	stride := g.RowBytes * uint64(g.BanksPerRank) * uint64(g.RanksPerDIMM)
	first := m.Access(0, 0, 64, false)
	conflictStart := first + 1000000 // long after tRAS
	second := m.Access(conflictStart, stride, 64, false)
	want := conflictStart + tim.TRP + tim.TRCD + tim.TCL + tim.TBL
	if second != want {
		t.Fatalf("conflict access done %d, want %d", second, want)
	}
	if m.Stats.RowMisses != 1 {
		t.Fatalf("stats: %+v", m.Stats)
	}
}

func TestBankParallelism(t *testing.T) {
	// Row conflicts in two different banks overlap their precharge+activate;
	// two conflicts in the same bank serialize. Warm rows first, then issue
	// conflicting rows late (past tRAS) and compare completion.
	g := testGeo()
	tim := DDR4_3200()
	bankStride := g.RowBytes * uint64(g.BanksPerRank) * uint64(g.RanksPerDIMM)

	sameBank := New(g, tim, 0)
	sameBank.Access(0, 0, 64, false)
	const late = 10_000_000
	sameBank.Access(late, bankStride, 64, false)               // conflict 1, bank 0
	sameDone := sameBank.Access(late, 2*bankStride, 64, false) // conflict 2, bank 0

	diffBank := New(g, tim, 0)
	diffBank.Access(0, 0, 64, false)
	diffBank.Access(0, g.RowBytes, 64, false) // warm bank 1
	diffBank.Access(late, bankStride, 64, false)
	diffDone := diffBank.Access(late, bankStride+g.RowBytes, 64, false)

	if diffDone >= sameDone {
		t.Fatalf("bank parallelism missing: same-bank done %d, diff-bank done %d", sameDone, diffDone)
	}
}

func TestRankParallelism(t *testing.T) {
	g := testGeo()
	m := New(g, DDR4_3200(), 0)
	// Addresses on different ranks: rank index changes every BanksPerRank rows.
	rankStride := g.RowBytes * uint64(g.BanksPerRank)
	a := m.Access(0, 0, 64, false)
	b := m.Access(0, rankStride, 64, false)
	if a != b {
		t.Fatalf("independent ranks should complete simultaneously: %d vs %d", a, b)
	}
}

func TestWriteRecovery(t *testing.T) {
	m := New(testGeo(), DDR4_3200(), 0)
	tim := DDR4_3200()
	w := m.Access(0, 0, 64, true)
	// Next access to the same bank must wait tWR after the write burst.
	r := m.Access(w, 64, 64, false)
	if r < w+tim.TWR+tim.TCL+tim.TBL {
		t.Fatalf("write recovery not enforced: write done %d, read done %d", w, r)
	}
	if m.Stats.Writes != 1 || m.Stats.WriteBytes != 64 {
		t.Fatalf("stats: %+v", m.Stats)
	}
}

func TestLargeAccessSplitsIntoLines(t *testing.T) {
	m := New(testGeo(), DDR4_3200(), 0)
	tim := DDR4_3200()
	done := m.Access(0, 0, 1024, false) // 16 lines, one row, one bank
	// First line: tRCD+tCL+tBL; remaining 15 serialize on the bus.
	want := tim.TRCD + tim.TCL + 16*tim.TBL
	if done != want {
		t.Fatalf("1KB access done %d, want %d", done, want)
	}
	if m.Stats.ReadBytes != 1024 {
		t.Fatalf("ReadBytes = %d", m.Stats.ReadBytes)
	}
}

func TestUnalignedAccessTouchesBothLines(t *testing.T) {
	m := New(testGeo(), DDR4_3200(), 0)
	m.Access(60, 60, 8, false) // straddles lines 0 and 64
	if m.Stats.RowHits+m.Stats.RowEmpty+m.Stats.RowMisses != 2 {
		t.Fatalf("straddling access should touch 2 lines: %+v", m.Stats)
	}
}

func TestRefreshStallsAccess(t *testing.T) {
	g := testGeo()
	tim := DDR4_3200()
	m := New(g, tim, 0)
	// An access landing exactly at the refresh instant is pushed past tRFC.
	at := tim.TREFI
	done := m.Access(at, 0, 64, false)
	if done < at+tim.TRFC {
		t.Fatalf("refresh not honored: done %d < %d", done, at+tim.TRFC)
	}
}

func TestTFAWLimitsActivateBursts(t *testing.T) {
	g := testGeo()
	tim := DDR4_3200()
	m := New(g, tim, 0)
	// 5 activates to 5 different banks in the same rank at t=0. Banks are
	// row-interleaved, rank repeats every BanksPerRank rows, so use rows
	// 0,2,4,... (even rows stay in rank 0 only if BanksPerRank even...).
	// Simpler: rows r=0..4 map to bank r%16, rank (r/16)%2 -> all rank 0.
	var last sim.Time
	for i := 0; i < 5; i++ {
		done := m.Access(0, uint64(i)*g.RowBytes, 64, false)
		if done > last {
			last = done
		}
	}
	// The 5th activate cannot start before tFAW.
	if last < tim.TFAW+tim.TRCD+tim.TCL {
		t.Fatalf("tFAW not enforced: last done %d", last)
	}
}

func TestAccessWrongDIMMPanics(t *testing.T) {
	g := testGeo()
	m := New(g, DDR4_3200(), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("access to wrong DIMM did not panic")
		}
	}()
	m.Access(0, g.DIMMCapBytes+64, 64, false)
}

// TestAccessRunningIntoNextDIMMPanics: a multi-row access that starts on
// the module's own DIMM and runs past DIMMCapBytes must still panic once
// the row walk reaches the next DIMM's first row.
func TestAccessRunningIntoNextDIMMPanics(t *testing.T) {
	g := testGeo()
	m := New(g, DDR4_3200(), 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("access running into the next DIMM did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "routed to DIMM 0") {
			t.Fatalf("unexpected panic: %s", msg)
		}
	}()
	m.Access(0, g.DIMMCapBytes-2*g.RowBytes+100, uint32(3*g.RowBytes), false)
}

// accessOracle is the per-line walk the row walk of Access replaced: every
// line of the request is decoded (and DIMM-checked) on its own, and every
// line reads the refresh window from the request's start time.
func accessOracle(m *Module, at sim.Time, addr uint64, size uint32, write bool) sim.Time {
	if size == 0 {
		size = 1
	}
	line := m.geo.LineBytes
	first := m.geo.LineAddr(addr)
	last := m.geo.LineAddr(addr + uint64(size) - 1)
	done := at
	for a := first; ; a += line {
		loc := m.geo.Decode(a)
		if loc.DIMM != m.DIMM {
			panic(fmt.Sprintf("dram: address %#x (DIMM %d) routed to DIMM %d", a, loc.DIMM, m.DIMM))
		}
		rk := m.ranks[loc.Rank]
		end := m.accessLine(m.refreshAdjust(at), rk, &rk.banks[loc.Bank], int64(loc.Row), write)
		if end > done {
			done = end
		}
		if a == last {
			break
		}
	}
	if write {
		m.Stats.Writes++
		m.Stats.WriteBytes += uint64(size)
	} else {
		m.Stats.Reads++
		m.Stats.ReadBytes += uint64(size)
	}
	return done
}

// TestAccessMatchesPerLineOracle drives a module and an oracle module with
// the same seeded request mix and requires identical return times, Stats,
// bus utilization and bank state. The mix has sizes from 1 B to 64 KiB at
// unaligned starts, spans across row, bank and rank boundaries, streams
// that revisit open rows and strides that conflict with them, reads and
// writes, start times inside and past refresh windows, both page policies,
// and a module that is not DIMM 0.
func TestAccessMatchesPerLineOracle(t *testing.T) {
	small := mem.Geometry{NumDIMMs: 4, NumChannels: 2, DIMMCapBytes: 1 << 20,
		RanksPerDIMM: 2, BanksPerRank: 4, RowBytes: 1024, LineBytes: 64}
	var seed int64
	for _, g := range []mem.Geometry{testGeo(), small} {
		for _, closed := range []bool{false, true} {
			for dimm := 0; dimm < 2; dimm++ {
				seed++
				name := fmt.Sprintf("row%d-closed=%v-dimm%d", g.RowBytes, closed, dimm)
				t.Run(name, func(t *testing.T) {
					tim := DDR4_3200()
					tim.ClosedPage = closed
					checkAgainstOracle(t, g, tim, dimm, seed)
				})
			}
		}
	}
}

func checkAgainstOracle(t *testing.T, g mem.Geometry, tim Timing, dimm int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m, o := New(g, tim, dimm), New(g, tim, dimm)
	base := g.DIMMBase(dimm)
	rankSpan := g.RowBytes * uint64(g.BanksPerRank)
	bankSpan := rankSpan * uint64(g.RanksPerDIMM) // same bank, next row
	const maxSize = 64 << 10
	var at, now sim.Time
	next := base
	for i := 0; i < 3000; i++ {
		size := uint32(1 + rng.Intn(256))
		if rng.Intn(3) == 0 {
			size = uint32(1 + rng.Intn(maxSize))
		}
		// straddle starts the request up to size bytes before boundary b.
		straddle := func(b uint64) uint64 { return b - min(b, uint64(rng.Intn(int(size)))) }
		var off uint64
		switch rng.Intn(6) {
		case 0: // continue the previous request's stream
			off = next - base
		case 1: // across a row (and bank) boundary
			off = straddle(uint64(1+rng.Intn(64)) * g.RowBytes)
		case 2: // across a rank boundary
			off = straddle(uint64(1+rng.Intn(8)) * rankSpan)
		case 3: // another row of a recently used bank
			off = next - base + uint64(1+rng.Intn(3))*bankSpan
		default:
			off = uint64(rng.Int63n(int64(4 << 20)))
		}
		if off+uint64(size) > g.DIMMCapBytes {
			off = g.DIMMCapBytes - uint64(size) - uint64(rng.Intn(64))
		}
		addr := base + off
		next = addr + uint64(size)

		switch rng.Intn(8) {
		case 0: // inside a refresh window
			at = sim.Time(1+rng.Intn(20))*tim.TREFI + sim.Time(rng.Int63n(int64(tim.TRFC)))
		case 1: // just past a refresh window
			at = sim.Time(1+rng.Intn(20))*tim.TREFI + tim.TRFC + sim.Time(rng.Intn(1000))
		default:
			at += sim.Time(rng.Intn(20000))
		}
		write := rng.Intn(3) == 0
		got := m.Access(at, addr, size, write)
		want := accessOracle(o, at, addr, size, write)
		if got != want {
			t.Fatalf("request %d (at %d, addr %#x, size %d, write %v): done %d, oracle %d",
				i, at, addr, size, write, got, want)
		}
		now = max(now, got)
	}
	if m.Stats != o.Stats {
		t.Fatalf("stats %+v, oracle %+v", m.Stats, o.Stats)
	}
	for _, q := range []sim.Time{now / 2, now} {
		if got, want := m.BusUtilization(q), o.BusUtilization(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("BusUtilization(%d) = %v, oracle %v", q, got, want)
		}
	}
	if !reflect.DeepEqual(m.ranks, o.ranks) {
		t.Fatal("rank and bank state diverge from the oracle")
	}
	if m.Stats.RowEmpty == 0 || (!tim.ClosedPage && (m.Stats.RowHits == 0 || m.Stats.RowMisses == 0)) {
		t.Fatalf("request mix misses a bank outcome: %+v", m.Stats)
	}
}

func TestMonotoneCompletionProperty(t *testing.T) {
	// Property: completion time is always >= request time + minimal burst.
	g := testGeo()
	tim := DDR4_3200()
	f := func(addrs []uint32, gaps []uint16) bool {
		m := New(g, tim, 0)
		var at sim.Time
		for i, a := range addrs {
			if i < len(gaps) {
				at += sim.Time(gaps[i])
			}
			addr := uint64(a) % g.DIMMCapBytes
			done := m.Access(at, addr, 64, a%2 == 0)
			if done < at+tim.TCL+tim.TBL {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamBandwidthApproachesPeak(t *testing.T) {
	// A saturating sequential stream should achieve close to the per-rank
	// bus bandwidth.
	g := testGeo()
	tim := DDR4_3200()
	m := New(g, tim, 0)
	const total = 1 << 22 // 4 MiB
	var done sim.Time
	for a := uint64(0); a < total; a += 64 {
		done = m.Access(0, a, 64, false)
	}
	// The sequential sweep interleaves across both ranks, so the achievable
	// bandwidth is ~2 x 25.6 GB/s ("aggregated memory bandwidth is
	// proportional to the total number of ranks").
	gbps := float64(total) / (float64(done) / 1e12) / 1e9
	if gbps < 45 || gbps > 52 {
		t.Fatalf("stream bandwidth %.1f GB/s, want ~51.2", gbps)
	}
	hitRate := float64(m.Stats.RowHits) / float64(m.Stats.Reads)
	if hitRate < 0.98 {
		t.Fatalf("sequential row hit rate %.3f too low", hitRate)
	}
}

func TestPeakBandwidth(t *testing.T) {
	m := New(testGeo(), DDR4_3200(), 0)
	if got := m.PeakBytesPerSec(); got != 2*25.6e9 {
		t.Fatalf("PeakBytesPerSec = %v", got)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	g := testGeo()
	m := New(g, DDR4_3200(), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Access(0, uint64(i*64)%g.DIMMCapBytes, 64, false)
	}
}

func TestClosedPagePolicy(t *testing.T) {
	tim := DDR4_3200()
	tim.ClosedPage = true
	m := New(testGeo(), tim, 0)
	first := m.Access(0, 0, 64, false)
	// Same row again: under closed-page this is NOT a row hit.
	m.Access(first, 64, 64, false)
	if m.Stats.RowHits != 0 {
		t.Fatalf("closed-page produced a row hit: %+v", m.Stats)
	}
	if m.Stats.RowEmpty != 2 {
		t.Fatalf("expected two activates, got %+v", m.Stats)
	}
	// Open-page streams must beat closed-page streams.
	open := New(testGeo(), DDR4_3200(), 0)
	var openDone, closedDone sim.Time
	closed := New(testGeo(), tim, 0)
	for a := uint64(0); a < 1<<16; a += 64 {
		openDone = open.Access(0, a, 64, false)
		closedDone = closed.Access(0, a, 64, false)
	}
	if closedDone <= openDone {
		t.Fatalf("closed-page stream (%d) should be slower than open-page (%d)", closedDone, openDone)
	}
}
