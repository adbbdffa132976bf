// shard.go implements the sharded event kernel: a ShardedEngine splits the
// event population across per-shard lanes (one Engine each) and runs them
// as one simulation.
//
// Two primitives cover everything the model needs:
//
//   - Merged execution (Step, Run, RunUntil, CatchUp): the composite pops
//     the globally minimal (at, seq) event across all lane heads, with one
//     shared sequence counter. Execution order — and therefore every byte
//     of output — is identical to a single Engine regardless of how events
//     are assigned to lanes, so shared-state models (the full NMP system)
//     can adopt lane ownership without perturbing a single golden.
//
//   - Span: one bounded stretch in which every lane runs on its own clock
//     and sequence counter, concurrently when the host allows, for phases
//     the model has proven free of cross-lane interaction. CatchUp then
//     rejoins the lanes at the span's global park time.
package sim

import "fmt"

// ShardedEngine drives a set of event lanes as one simulation.
type ShardedEngine struct {
	lanes []*Engine

	// The composite state: the global clock and the shared sequence
	// counter that reproduces single-engine total order.
	now   Time
	seq   uint64
	spans uint64 // Span invocations (phase-parallel stretches run)
}

// NewShardedEngine creates an engine with the given number of lanes.
func NewShardedEngine(lanes int) *ShardedEngine {
	if lanes <= 0 {
		panic(fmt.Sprintf("sim: sharded engine with %d lanes", lanes))
	}
	o := &ShardedEngine{lanes: make([]*Engine, lanes)}
	for i := range o.lanes {
		// Bind the composite clock and the shared sequence counter — see
		// Engine.nowp.
		o.lanes[i] = &Engine{owner: o, lane: i, nowp: &o.now, seqp: &o.seq}
	}
	return o
}

// Lanes returns the lane count.
func (o *ShardedEngine) Lanes() int { return len(o.lanes) }

// Lane returns lane i's engine handle. Model components are constructed
// against their owning lane; outside a Span any handle drives (and
// observes) the whole composite.
func (o *ShardedEngine) Lane(i int) *Engine { return o.lanes[i] }

// Now returns the composite clock.
func (o *ShardedEngine) Now() Time { return o.now }

// Spans returns how many parallel Span stretches have run — a cheap
// telltale that phase-parallel execution actually engaged (zero means
// every phase classified serial).
func (o *ShardedEngine) Spans() uint64 { return o.spans }

// Processed returns the total events executed across all lanes.
func (o *ShardedEngine) Processed() uint64 {
	var total uint64
	for _, e := range o.lanes {
		total += e.processed
	}
	return total
}

// Pending returns the scheduled events across all lanes.
func (o *ShardedEngine) Pending() int {
	total := 0
	for _, e := range o.lanes {
		total += len(e.events)
	}
	return total
}

// head returns the index of the lane holding the globally earliest event,
// or -1 when every lane is empty. The scan over lane heads is O(lanes);
// with the handful of lanes a real system shards into this is cheaper
// than maintaining a second heap.
func (o *ShardedEngine) head() int {
	best := -1
	for i, e := range o.lanes {
		if len(e.events) > 0 && (best < 0 || e.events[0].before(&o.lanes[best].events[0])) {
			best = i
		}
	}
	return best
}

// pop executes lane e's earliest event on the composite clock.
func (o *ShardedEngine) pop(e *Engine) {
	ev := e.events.pop()
	o.now = ev.at
	e.now = ev.at
	e.processed++
	ev.fn()
}

// advance moves the composite and every lane clock forward to t.
func (o *ShardedEngine) advance(t Time) {
	if t > o.now {
		o.now = t
	}
	for _, e := range o.lanes {
		if t > e.now {
			e.now = t
		}
	}
}

// Step executes the single globally-earliest pending event.
func (o *ShardedEngine) Step() bool {
	best := o.head()
	if best < 0 {
		return false
	}
	o.pop(o.lanes[best])
	return true
}

// Run executes events until none remain.
func (o *ShardedEngine) Run() {
	for o.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the
// composite clock to exactly t.
func (o *ShardedEngine) RunUntil(t Time) {
	for {
		best := o.head()
		if best < 0 || o.lanes[best].events[0].at > t {
			break
		}
		o.pop(o.lanes[best])
	}
	o.advance(t)
}

// Span temporarily detaches every lane from the merged composite and runs
// run(lane, engine) for each lane — concurrently when the host has more
// than one processor (see Fan) — then reattaches them. It is the execution
// primitive behind phase-parallel model runs (cores.Group.RunParallel): it
// parallelizes one bounded stretch in the middle of a merged run, for
// phases the model has proven free of cross-lane interaction. A panic in
// a lane reaches the caller as a *FanPanic.
//
// Inside the span each lane owns its clock (seeded from the composite) and
// its sequence counter (every lane seeded from the same composite base, so
// per-lane assignment mirrors what the shared counter would have handed
// out; cross-lane (at, seq) ties among leftover events are broken by lane
// index in the composite scan, deterministically). The run callback must
// confine itself to lane-local state — lane engines must not schedule onto,
// or read, other lanes. After the span the composite sequence counter jumps
// to the furthest lane counter, so later merged events order after every
// span event.
func (o *ShardedEngine) Span(run func(lane int, e *Engine)) {
	o.spans++
	base := o.seq
	for _, e := range o.lanes {
		e.now = o.now
		e.seq = base
		e.nowp = &e.now
		e.seqp = &e.seq
	}
	Fan(len(o.lanes), func(i int) { run(i, o.lanes[i]) })
	maxSeq := base
	for _, e := range o.lanes {
		if e.seq > maxSeq {
			maxSeq = e.seq
		}
		e.nowp = &o.now
		e.seqp = &o.seq
	}
	o.seq = maxSeq
}

// CatchUp executes pending events strictly before t in merged order, then
// advances the composite and every lane clock to exactly t. It is the join
// step after a Span: lanes stopped at their own frontiers, and the events
// left behind on slower lanes (periodic ticks, mostly) must run before the
// model resolves anything at the span's global park time t — exactly the
// events a single merged engine would have popped before reaching t.
// Strictly before: events at t itself belong to the resumed merged run,
// after the model's rendezvous bookkeeping at t.
func (o *ShardedEngine) CatchUp(t Time) {
	for {
		best := o.head()
		if best < 0 || o.lanes[best].events[0].at >= t {
			break
		}
		o.pop(o.lanes[best])
	}
	o.advance(t)
}
