package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestShardedMergedPopOrderMatchesReference is the multi-queue property
// test: a batch of events with heavily colliding timestamps, scattered
// across the lanes of a merged-mode sharded engine, must execute in
// exactly the (at, seq) total order a single reference engine produces
// for the same scheduling sequence. This is the determinism contract the
// byte-identity guarantee rests on, stated directly against the kernel.
func TestShardedMergedPopOrderMatchesReference(t *testing.T) {
	for _, lanes := range []int{1, 2, 3, 4, 8} {
		rng := lcg(42)
		ref := NewEngine()
		sh := NewShardedEngine(lanes)

		var refLog, shLog []int
		for i := 0; i < 2000; i++ {
			i := i
			// Tiny timestamp range so same-instant collisions are common
			// and the shared sequence counter does the ordering work.
			at := Time(rng.next() % 16)
			lane := int(rng.next()) % lanes
			ref.At(at, func() { refLog = append(refLog, i) })
			sh.Lane(lane).At(at, func() { shLog = append(shLog, i) })
		}
		ref.Run()
		sh.Run()
		if len(refLog) != len(shLog) {
			t.Fatalf("lanes=%d: ran %d events, reference ran %d", lanes, len(shLog), len(refLog))
		}
		for i := range refLog {
			if refLog[i] != shLog[i] {
				t.Fatalf("lanes=%d: execution order diverges at %d: got id %d, reference %d",
					lanes, i, shLog[i], refLog[i])
			}
		}
	}
}

// TestShardedMergedDynamicMatchesReference extends the property test to a
// dynamic workload: callbacks schedule follow-up events (on other lanes,
// at the current instant and later, relative and absolute), so the shared
// sequence counter is exercised mid-execution, not just during setup. The
// reference engine runs the identical program.
func TestShardedMergedDynamicMatchesReference(t *testing.T) {
	const lanes = 4
	run := func(schedule func(at Time, fn func()), laneSchedule func(lane int, at Time, fn func())) []uint64 {
		var log []uint64
		rng := lcg(7)
		var spawn func(id uint64, depth int) func()
		spawn = func(id uint64, depth int) func() {
			return func() {
				log = append(log, id)
				if depth >= 3 {
					return
				}
				n := int(rng.next() % 3)
				for k := 0; k < n; k++ {
					child := id*8 + uint64(k) + 1
					delay := rng.next() % 5 // 0 is legal: same-instant follow-up
					lane := int(rng.next()) % lanes
					laneSchedule(lane, Time(delay), spawn(child, depth+1))
				}
			}
		}
		for i := 0; i < 200; i++ {
			schedule(Time(rng.next()%32), spawn(uint64(i)<<40, 0))
		}
		return log
	}

	ref := NewEngine()
	refLog := run(
		func(at Time, fn func()) { ref.At(at, fn) },
		func(_ int, d Time, fn func()) { ref.After(d, fn) },
	)
	ref.Run()
	refLog = append([]uint64(nil), refLog...)

	sh := NewShardedEngine(lanes)
	shLog := run(
		func(at Time, fn func()) { sh.Lane(0).At(at, fn) },
		func(lane int, d Time, fn func()) {
			// Half the follow-ups are absolute, anchored at the lane
			// handle's view of the composite clock.
			l := sh.Lane(lane)
			if d%2 == 0 {
				l.After(d, fn)
			} else {
				l.At(l.Now()+d, fn)
			}
		},
	)
	sh.Run()

	if len(refLog) != len(shLog) {
		t.Fatalf("ran %d events, reference ran %d", len(shLog), len(refLog))
	}
	for i := range refLog {
		if refLog[i] != shLog[i] {
			t.Fatalf("execution order diverges at %d: got %#x, reference %#x", i, shLog[i], refLog[i])
		}
	}
	if sh.Processed() != ref.Processed() {
		t.Fatalf("processed %d, reference %d", sh.Processed(), ref.Processed())
	}
	if sh.Now() != ref.Now() {
		t.Fatalf("clock %d, reference %d", sh.Now(), ref.Now())
	}
}

// TestShardedMergedLaneDelegation pins the lane-handle surface in merged
// mode: every lane observes the composite clock (idle lanes included),
// Step on a lane pops the global minimum, and RunUntil semantics match
// the standalone engine's boundary behavior.
func TestShardedMergedLaneDelegation(t *testing.T) {
	sh := NewShardedEngine(3)
	var ran []Time
	sh.Lane(0).At(50, func() { ran = append(ran, 50) })
	sh.Lane(2).At(100, func() { ran = append(ran, 100) })
	sh.Lane(2).At(101, func() { ran = append(ran, 101) })

	// Step through a lane handle: pops lane 0's event (the global min),
	// and every lane handle sees the advanced composite clock.
	if !sh.Lane(1).Step() {
		t.Fatal("Step found no event")
	}
	if len(ran) != 1 || ran[0] != 50 {
		t.Fatalf("Step ran %v, want [50]", ran)
	}
	for i := 0; i < 3; i++ {
		if sh.Lane(i).Now() != 50 {
			t.Fatalf("lane %d clock %d after Step, want 50", i, sh.Lane(i).Now())
		}
	}

	sh.RunUntil(100)
	if len(ran) != 2 || ran[1] != 100 {
		t.Fatalf("RunUntil(100) ran %v, want [50 100]", ran)
	}
	if sh.Now() != 100 || sh.Lane(0).Now() != 100 {
		t.Fatalf("clock %d / lane0 %d after RunUntil(100), want 100", sh.Now(), sh.Lane(0).Now())
	}
	if sh.Pending() != 1 || sh.Lane(0).Pending() != 1 {
		t.Fatalf("pending %d / lane-view %d, want 1", sh.Pending(), sh.Lane(0).Pending())
	}
	sh.Run()
	if sh.Processed() != 3 || sh.Lane(1).Processed() != 3 {
		t.Fatalf("processed %d / lane-view %d, want 3", sh.Processed(), sh.Lane(1).Processed())
	}
	// An idle lane's After must be anchored at the composite clock, not
	// its stale local one.
	sh.Lane(1).After(10, func() { ran = append(ran, 111) })
	sh.Run()
	if ran[len(ran)-1] != 111 || sh.Now() != 111 {
		t.Fatalf("After on idle lane: ran %v, clock %d", ran, sh.Now())
	}
}

// TestShardedGuards pins the constructor guard.
func TestShardedGuards(t *testing.T) {
	for _, lanes := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewShardedEngine(%d) did not panic", lanes)
				}
			}()
			NewShardedEngine(lanes)
		}()
	}
}

// spanRun is the outcome of runSpanWorkload.
type spanRun struct {
	logs      [][]uint64 // per-lane (actor, time) log of the span events
	joined    []uint64   // the merged order of the events left for the join
	processed uint64
	now       Time
}

// runSpanWorkload runs a lane-local workload through Span at the given
// GOMAXPROCS. Each lane drives a few self-rescheduling actors (zero delays
// included, so same-instant ties are common) until they finish. Every
// actor leaves one event at its lane's own finish time and one at a
// shared join instant, so the join has a catch-up stretch on slower lanes
// and a cross-lane tie at one instant to order.
func runSpanWorkload(procs int) spanRun {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	const lanes, actors, steps = 4, 6, 40
	sh := NewShardedEngine(lanes)
	sh.Lane(0).At(100, func() {})
	sh.Run()
	const join = Time(1 << 20)
	r := spanRun{logs: make([][]uint64, lanes)}
	spanning := true
	sh.Span(func(lane int, e *Engine) {
		record := func(id uint64) {
			v := id<<32 | uint64(e.Now())
			if spanning {
				r.logs[lane] = append(r.logs[lane], v)
			} else {
				r.joined = append(r.joined, v)
			}
		}
		rng := lcg(lane + 1)
		active := actors
		for a := 0; a < actors; a++ {
			id := uint64(lane*actors + a)
			left := steps + int(rng.next()%steps)
			var act func()
			act = func() {
				record(id)
				if left--; left > 0 {
					e.After(rng.next()%8, act)
					return
				}
				active--
				e.After(rng.next()%4, func() { record(id) })
				e.At(join, func() { record(id) })
			}
			e.After(rng.next()%8, act)
		}
		for active > 0 {
			if !e.StepLocal() {
				panic("lane ran dry mid-span")
			}
		}
	})
	spanning = false
	var park Time
	for l := 0; l < lanes; l++ {
		if now := sh.Lane(l).now; now > park {
			park = now
		}
	}
	sh.CatchUp(park)
	sh.Run()
	r.processed, r.now = sh.Processed(), sh.Now()
	return r
}

// TestShardedSpanMatchesInline is the Span differential: one lane-local
// workload run with real concurrency (GOMAXPROCS 4) and inline (1) must
// give identical per-lane logs, identical event counts, and the same
// merged order for the events left to the join, including the cross-lane
// tie at one instant.
func TestShardedSpanMatchesInline(t *testing.T) {
	par, inline := runSpanWorkload(4), runSpanWorkload(1)
	for l := range inline.logs {
		if len(inline.logs[l]) == 0 {
			t.Fatalf("lane %d ran no span events", l)
		}
		if fmt.Sprint(par.logs[l]) != fmt.Sprint(inline.logs[l]) {
			t.Fatalf("lane %d: span log diverges between GOMAXPROCS 4 and 1", l)
		}
	}
	if fmt.Sprint(par.joined) != fmt.Sprint(inline.joined) {
		t.Fatalf("join order diverges:\n%x\n%x", par.joined, inline.joined)
	}
	if n := len(inline.joined); n < 4*6 || n > 2*4*6 {
		t.Fatalf("join ran %d events, want the %d at the join instant plus the unfinished stragglers", n, 4*6)
	}
	if par.processed != inline.processed || par.now != inline.now {
		t.Fatalf("processed/clock %d/%d, inline %d/%d", par.processed, par.now, inline.processed, inline.now)
	}
}

// TestShardedSpanPanicReachesCaller runs a Span whose lane panics with
// lanes on real goroutines: the caller must be able to recover the panic,
// with the lane index, the original value and the lane's stack, instead
// of the process dying on the lane goroutine.
func TestShardedSpanPanicReachesCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	errLane := errors.New("lane 2 failed")
	sh := NewShardedEngine(4)
	defer func() {
		p, ok := recover().(*FanPanic)
		if !ok {
			t.Fatal("Span did not re-raise the lane panic as a *FanPanic")
		}
		if p.Index != 2 || p.Value != errLane {
			t.Fatalf("got index %d value %v, want lane 2's value", p.Index, p.Value)
		}
		if !strings.Contains(string(p.Stack), "TestShardedSpanPanicReachesCaller") {
			t.Fatalf("stack does not show the panicking lane body:\n%s", p.Stack)
		}
	}()
	sh.Span(func(lane int, e *Engine) {
		if lane == 2 {
			panic(errLane)
		}
	})
	t.Fatal("Span returned after a lane panicked")
}

// TestShardedFan pins the fan-out helper at both execution paths: every
// index runs exactly once, and when several calls panic the caller sees
// the lowest-index one.
func TestShardedFan(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		ran := make([]int, 8)
		Fan(len(ran), func(i int) { ran[i]++ })
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, n)
			}
		}
		Fan(0, func(int) { t.Fatal("Fan(0) made a call") })

		func() {
			defer func() {
				p, ok := recover().(*FanPanic)
				if !ok || p.Index != 1 || p.Value != "boom 1" {
					t.Fatalf("GOMAXPROCS=%d: recovered %#v, want index 1's panic", procs, p)
				}
			}()
			Fan(4, func(i int) {
				if i%2 == 1 {
					panic(fmt.Sprintf("boom %d", i))
				}
			})
		}()
		runtime.GOMAXPROCS(prev)
	}
}
