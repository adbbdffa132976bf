// Package cores models the processing cores (NMP cores in the DIMM buffer
// chips, and host CPU cores for the baseline) and the threads they run.
//
// Simulation is functional-first and timing-directed (DESIGN.md §3): each
// workload thread runs the real algorithm in its own goroutine against real
// Go data structures, and reports every memory access, compute phase and
// synchronization point through a Ctx. A body runs ahead of simulated time:
// its ops queue up and it blocks only at a rendezvous (barrier,
// collective), after a fixed-size chunk of ops, or when it returns. The
// Group consumes the queues in simulated-time order, so the simulation
// stays deterministic: no op returns data and Ctx exposes no time, so a
// body's op stream cannot depend on when its ops are timed. Bodies read
// other threads' data only across a rendezvous (the bulk-synchronous
// discipline every workload follows).
//
// The core model is in-order issue with a bounded outstanding-request
// window (MSHR-style): independent accesses (Load/Store) overlap up to the
// window size, dependent loads (LoadDep) block the thread until the data
// returns, and Compute advances the thread's clock. This captures the
// memory-level parallelism that decides how much IDC latency a workload can
// hide — the quantity behind the paper's "non-overlapped IDC cycles".
package cores

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/sim"
)

// Memory is the memory system a thread group runs against. Implementations
// (internal/nmp) route accesses through caches, local DRAM and the
// configured IDC mechanism.
type Memory interface {
	// Access performs a read/write issued by the given global core at time
	// at, returning the completion time and whether the access left the
	// core's DIMM (an IDC access, for stall attribution).
	Access(at sim.Time, core int, addr uint64, size uint32, write bool) (sim.Time, bool)
	// Scatter performs count line-granularity accesses at row-conflicting
	// offsets within [addr, addr+span) — the random single-element updates
	// of graph and clustering kernels, where each touched element costs a
	// whole cache-line transaction. Returns the last completion.
	Scatter(at sim.Time, core int, addr uint64, span uint64, count uint32, write bool) (sim.Time, bool)
	// Broadcast pushes size bytes at addr from the core's DIMM to all DIMMs.
	Broadcast(at sim.Time, core int, addr uint64, size uint32) sim.Time
	// Barrier synchronizes the calling thread group; see idc.Interconnect.
	Barrier(arrivals []sim.Time, threadDIMM []int) sim.Time
	// Collective performs a gang-wide collective data exchange (AllReduce,
	// ReduceScatter, AllGather, AllToAll) of the given per-rank payload and
	// returns the common release time; like Barrier, every thread of the
	// group participates.
	Collective(op CollectiveOp, arrivals []sim.Time, threadDIMM []int, bytes uint32) sim.Time
}

// LaneLocality is optionally implemented by a Memory whose accesses can be
// classified by event-lane ownership (internal/nmp's NMP memory). An
// access is lane-local when its entire simulated effect — caches, DRAM
// module, counters — stays on the event lane that owns the issuing core's
// home DIMM: no interconnect, no host, no other DIMM's state. Phase-
// parallel execution (Group.RunParallel) runs a phase's lanes concurrently
// only when every queued op of every thread is lane-local; a Memory that
// does not implement the interface (the host baseline, instrumentation
// wrappers such as the trace recorder) simply keeps every phase on the
// merged serial path, which is always correct.
type LaneLocality interface {
	// LaneLocalAccess reports whether a Load/Store/LoadDep of addr by the
	// given global core stays on the core's own DIMM (and therefore lane).
	LaneLocalAccess(core int, addr uint64) bool
	// LaneLocalSpan reports whether every line a Scatter over
	// [addr, addr+span) can touch stays on the core's own DIMM. The whole
	// span must be checked: scattered line addresses are derived from
	// offsets within it and can cross a DIMM boundary even when the base
	// address is local.
	LaneLocalSpan(core int, addr, span uint64) bool
}

// CollectiveOp enumerates the gang-wide collective exchanges a workload
// can issue. The memory system maps them onto the configured IDC
// mechanism's collective scheduler (internal/idc Collectives).
type CollectiveOp int

const (
	CollAllReduce CollectiveOp = iota
	CollReduceScatter
	CollAllGather
	CollAllToAll
)

// String implements fmt.Stringer.
func (op CollectiveOp) String() string {
	switch op {
	case CollAllReduce:
		return "allreduce"
	case CollReduceScatter:
		return "reduce-scatter"
	case CollAllGather:
		return "allgather"
	case CollAllToAll:
		return "alltoall"
	}
	return fmt.Sprintf("collective(%d)", int(op))
}

// Config describes the core microarchitecture.
type Config struct {
	ClockHz     float64 // core clock (2.5 GHz in the evaluation)
	Window      int     // outstanding memory requests per thread
	IssueCycles uint64  // core cycles to issue one memory operation
}

// DefaultConfig returns the evaluation's NMP core model: 2.5 GHz, 8
// outstanding misses, single-issue memory pipeline.
func DefaultConfig() Config {
	return Config{ClockHz: 2.5e9, Window: 8, IssueCycles: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ClockHz <= 0 {
		return fmt.Errorf("cores: non-positive clock")
	}
	if c.Window <= 0 {
		return fmt.Errorf("cores: window %d <= 0", c.Window)
	}
	return nil
}

// ThreadStats aggregates one thread's time breakdown.
type ThreadStats struct {
	Finish       sim.Time // when the thread completed
	IDCStall     sim.Time // stalled on inter-DIMM accesses and sync
	LocalStall   sim.Time // stalled on local memory
	Ops          uint64   // memory operations issued
	RemoteOps    uint64   // operations that crossed DIMMs
	BytesTouched uint64
}

type opKind uint8

const (
	opLoad opKind = iota
	opLoadDep
	opStore
	opCompute
	opBroadcast
	opDrain
	opScatter
)

type op struct {
	addr   uint64
	cycles uint64
	span   uint64
	size   uint32
	kind   opKind
	write  bool
}

// chunkOps bounds a thread's queue in serial phases: a body that has
// queued this many ops hands them over without waiting for a rendezvous,
// so a long phase buffers at most chunkOps ops (a few KB) per thread.
const chunkOps = 64

type slot struct {
	done   sim.Time
	remote bool
}

// termKind is how a handoff from a thread body ends its queued ops: the
// chunk filled up (the phase goes on), a rendezvous (barrier, collective),
// or the body returning.
type termKind uint8

const (
	termNone termKind = iota
	termBarrier
	termCollective
	termFinish
)

// ThreadPanic is the value Run and RunParallel re-raise on their caller
// when a workload body panicked: the thread, the original panic value, and
// the body's stack where it was raised.
type ThreadPanic struct {
	Thread int
	Value  any
	Stack  []byte
}

func (p *ThreadPanic) Error() string {
	return fmt.Sprintf("cores: thread %d panicked: %v\n\n%s", p.Thread, p.Value, p.Stack)
}

// errAbandoned unwinds a body whose run was cut short by a panic.
var errAbandoned = errors.New("cores: run abandoned")

type thread struct {
	id       int
	homeDIMM int
	coreID   int
	eng      *sim.Engine // the event lane this thread's resumptions run on
	lane     int         // eng's lane index in a parallel run, else 0
	resume   func()      // the event that steps this thread
	time     sim.Time
	finished bool
	win      []slot // outstanding ops, issue order
	stats    ThreadStats

	// The op stream. body runs on its own goroutine; wake resumes it and
	// yield reports each handoff (see Ctx.send). The body appends to q and
	// the consumer reads q[qi:] only between handoffs, so the two never
	// touch the queue at once. term is how the queued ops end, coll and
	// collBytes the terminating collective, and parked is set once the
	// consumer processed the terminator of the current phase.
	body      func(*Ctx)
	wake      chan struct{}
	yield     chan termKind
	panicked  *ThreadPanic
	q         []op
	qi        int
	term      termKind
	coll      CollectiveOp
	collBytes uint32
	parked    bool
}

// Group is a gang of threads executing one NMP kernel (or the host
// baseline). All threads participate in every barrier.
type Group struct {
	eng     *sim.Engine
	cfg     Config
	mem     Memory
	period  sim.Time
	threads []*thread
	running int

	// laneOf, when set, assigns each thread's resumption events to the
	// event lane owning its home DIMM (sharded kernel; see internal/sim
	// shard.go). nil keeps every thread on the group's engine. Merged
	// execution runs either assignment in the identical order; a parallel
	// run uses it to run each lane's threads on the lane's own goroutine.
	laneOf func(homeDIMM int) *sim.Engine

	// Rendezvous state: which threads wait at the pending barrier or
	// collective, since when, and how many. Every unfinished thread must
	// arrive at the same rendezvous (a barrier, or one collective op and
	// payload) before it releases them at a uniform time.
	arrived []bool
	arrival []sim.Time
	waiting int

	// Profile[i][d] counts thread i's accesses to DIMM d when profiling is
	// enabled — the M[T][N] table of Algorithm 1.
	Profile    [][]uint64
	profiling  bool
	profDIMMs  int
	profDIMMOf func(addr uint64) int

	// Phase state. During a parallel span, thread events on different
	// lanes run concurrently; everything they touch is either thread-owned
	// (t.*, arrived/arrival rows, Profile rows) or lane-owned (the lane*
	// slices, indexed by the executing thread's lane). The shared counters
	// (waiting, running) are only folded from the lane-owned counts at the
	// join, on the driving goroutine.
	whole        bool  // fill takes whole phases (a parallel run classifies them)
	inSpan       bool  // a parallel span is executing (lane goroutines live)
	phaseLeft    int   // serial-phase countdown of unparked threads
	laneActive   []int // unparked threads per lane (span loop condition)
	laneArrived  []int // rendezvous arrivals this phase, per lane
	laneFinished []int // threads finished this phase, per lane
	laneParkAt   []sim.Time
	released     []*thread // threads the join's rendezvous released
}

// NewGroup creates an empty thread group over the memory system.
func NewGroup(eng *sim.Engine, cfg Config, mem Memory) *Group {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Group{eng: eng, cfg: cfg, mem: mem, period: sim.Period(cfg.ClockHz)}
}

// SetLanes routes each subsequently spawned thread's events to the engine
// laneOf returns for its home DIMM. Call before Spawn.
func (g *Group) SetLanes(laneOf func(homeDIMM int) *sim.Engine) { g.laneOf = laneOf }

// EnableProfiling starts recording the per-thread, per-DIMM access counts
// used by distance-aware task mapping. dimmOf maps an address to its DIMM;
// numDIMMs sizes the table.
func (g *Group) EnableProfiling(numDIMMs int, dimmOf func(addr uint64) int) {
	g.profiling = true
	g.profDIMMs = numDIMMs
	g.profDIMMOf = dimmOf
	g.Profile = make([][]uint64, len(g.threads))
	for i := range g.Profile {
		g.Profile[i] = make([]uint64, numDIMMs)
	}
}

// Spawn adds a thread with the given home DIMM (-1 for host threads) and
// global core ID, running body. Must be called before Run; the body starts
// when the run does.
func (g *Group) Spawn(homeDIMM, coreID int, body func(*Ctx)) *ThreadStats {
	t := &thread{
		id:       len(g.threads),
		homeDIMM: homeDIMM,
		coreID:   coreID,
		eng:      g.eng,
		win:      make([]slot, 0, g.cfg.Window),
		body:     body,
		q:        make([]op, 0, chunkOps),
	}
	if g.laneOf != nil {
		t.eng = g.laneOf(homeDIMM)
	}
	t.resume = func() { g.step(t) }
	g.threads = append(g.threads, t)
	g.running++
	if g.profiling {
		g.Profile = append(g.Profile, make([]uint64, g.profDIMMs))
	}
	return &t.stats
}

// Threads returns the number of spawned threads.
func (g *Group) Threads() int { return len(g.threads) }

// Stats returns the per-thread statistics (valid after Run).
func (g *Group) Stats() []ThreadStats {
	out := make([]ThreadStats, len(g.threads))
	for i, t := range g.threads {
		out[i] = t.stats
	}
	return out
}

// Run drives the simulation until every thread has finished and returns
// the makespan (the last thread's finish time). It panics on deadlock
// (mismatched barriers), which is always a workload bug, and re-raises a
// panic in a workload body as a *ThreadPanic.
func (g *Group) Run() sim.Time { return g.run(nil) }

// RunParallel drives the gang to completion over a sharded engine,
// executing provably lane-confined phases concurrently (one goroutine per
// lane) and everything else on the composite merged engine. Output is
// byte-identical to Run on the same sharded engine in merged mode: within
// a lane the event order is unchanged, concurrent lanes touch disjoint
// state, and every cross-lane interaction (remote access, broadcast,
// rendezvous release) happens in a serial context in the same order the
// merged engine would produce. Panics are raised as in Run.
func (g *Group) RunParallel(sh *sim.ShardedEngine) sim.Time { return g.run(sh) }

// run is Run (sh == nil, one lane) and RunParallel. It drives the gang
// phase by phase: a phase ends when every unfinished thread has parked at
// a rendezvous or finished, and the join then folds the arrivals into the
// shared counters and releases whatever rendezvous completed — at the
// engine time of the last park, exactly when merged execution would. Each
// phase runs serially on the merged engine, or — when sh is set and
// classify proves every queued op lane-local — as one parallel span.
func (g *Group) run(sh *sim.ShardedEngine) sim.Time {
	lanes, step := 1, g.eng.Step
	if sh != nil {
		lanes, step = sh.Lanes(), sh.Step
	}
	g.whole = lanes > 1
	n := len(g.threads)
	g.arrived = make([]bool, n)
	g.arrival = make([]sim.Time, n)
	g.laneActive = make([]int, lanes)
	g.laneArrived = make([]int, lanes)
	g.laneFinished = make([]int, lanes)
	g.laneParkAt = make([]sim.Time, lanes)

	for _, t := range g.threads {
		t.lane = 0
		if sh != nil {
			t.lane = t.eng.LaneIndex()
		}
		t.wake = make(chan struct{})
		t.yield = make(chan termKind)
		go t.produce()
	}
	defer g.abandon()
	g.fillAll(g.threads)
	for _, t := range g.threads {
		t.eng.At(t.eng.Now(), t.resume)
	}

	for g.running > 0 {
		total := 0
		for i := range g.laneActive {
			g.laneActive[i] = 0
			g.laneParkAt[i] = 0
		}
		for _, t := range g.threads {
			if t.finished || t.parked {
				continue
			}
			g.laneActive[t.lane]++
			total++
		}
		if total == 0 {
			g.deadlock()
		}
		if g.classify(lanes) {
			g.inSpan = true
			sh.Span(func(lane int, e *sim.Engine) {
				for g.laneActive[lane] > 0 {
					if !e.StepLocal() {
						panic("cores: lane ran dry mid-span")
					}
				}
			})
			g.inSpan = false
			var maxPark sim.Time
			for _, at := range g.laneParkAt {
				if at > maxPark {
					maxPark = at
				}
			}
			sh.CatchUp(maxPark)
		} else {
			g.phaseLeft = total
			for g.phaseLeft > 0 {
				if !step() {
					g.deadlock()
				}
			}
		}

		// Join: fold the lane-owned counts into the shared counters, then
		// release the rendezvous if it completed and refill its threads.
		for i := range g.laneArrived {
			g.waiting += g.laneArrived[i]
			g.running -= g.laneFinished[i]
			g.laneArrived[i] = 0
			g.laneFinished[i] = 0
		}
		g.released = g.released[:0]
		g.checkRendezvous()
		g.fillAll(g.released)
	}

	var makespan sim.Time
	for _, t := range g.threads {
		if t.stats.Finish > makespan {
			makespan = t.stats.Finish
		}
	}
	return makespan
}

// deadlock reports unfinished threads that can never resume, which is
// always a workload bug.
func (g *Group) deadlock() {
	panic(fmt.Sprintf("cores: deadlock with %d threads unfinished (mismatched barriers?)", g.running))
}

// produce runs t's body on its own goroutine. The body starts at the first
// wake; its return, or its panic, is the final handoff.
func (t *thread) produce() {
	if _, ok := <-t.wake; !ok {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if r == errAbandoned {
				return
			}
			t.panicked = &ThreadPanic{Thread: t.id, Value: r, Stack: debug.Stack()}
		}
		t.yield <- termFinish
	}()
	t.body(&Ctx{t: t})
}

// handoff gives the queued ops to the consumer, ended by term, and blocks
// until the consumer resumes the body.
func (t *thread) handoff(term termKind) {
	t.yield <- term
	if _, ok := <-t.wake; !ok {
		panic(errAbandoned)
	}
}

// abandon unwinds the body goroutine of every thread whose body has not
// returned; it only has work when a panic cut the run short. Every body is
// blocked in a handoff then (each fill has returned), so each wakes to the
// closed channel and exits.
func (g *Group) abandon() {
	for _, t := range g.threads {
		if t.term != termFinish {
			close(t.wake)
		}
	}
}

// fill resumes t's body and takes its next handoff: one chunk in a serial
// run, and in a parallel run every chunk up to the phase's terminator,
// because classify must see the whole phase before a span. This is sound
// because Ctx exposes no time queries and no op returns data, so the op
// stream a body produces cannot depend on when its ops are timed. fill
// runs on the driving goroutine or a fillAll goroutine, never in a span.
func (g *Group) fill(t *thread) {
	t.q, t.qi = t.q[:0], 0
	t.parked = false
	for {
		t.wake <- struct{}{}
		t.term = <-t.yield
		if t.panicked != nil {
			panic(t.panicked)
		}
		if t.term != termNone || !g.whole {
			return
		}
	}
}

// fillAll fills a set of threads: one after another in a serial run, whose
// fills are one chunk each, and concurrently when the host allows in a
// parallel run, whose fills are whole phases. A fill touches only the
// thread's own fields and channels, so fills are mutually independent as
// long as the workload bodies follow the BSP ownership discipline
// (mutations between rendezvous ops touch only thread-owned state;
// cross-thread reads happen only across a barrier). The resulting queues
// are identical to sequential fills; filling in parallel matters because
// for compute-heavy workloads the bodies' own Go work (input generation,
// gradient math) dominates wall time. A body's panic reaches the caller as
// the body's *ThreadPanic.
func (g *Group) fillAll(ts []*thread) {
	if !g.whole {
		for _, t := range ts {
			g.fill(t)
		}
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if fp, ok := r.(*sim.FanPanic); ok {
				r = fp.Value
			}
			panic(r)
		}
	}()
	sim.Fan(len(ts), func(i int) { g.fill(ts[i]) })
}

// step is the one queue consumer, for serial phases and spans alike: it
// runs t's next queued op — taking the next chunk first when one ran out —
// or, at the end of the phase, processes the terminator and parks the
// thread until the join. It runs on t's own lane during a span or on the
// driving goroutine in a serial phase; all state it touches is thread- or
// lane-owned, so concurrent lanes never conflict.
func (g *Group) step(t *thread) {
	if t.qi == len(t.q) && t.term == termNone {
		g.fill(t) // serial phases only: a span's queues hold whole phases
	}
	if t.qi < len(t.q) {
		o := t.q[t.qi]
		t.qi++
		g.processOp(t, o)
		return
	}
	g.retireAll(t)
	switch t.term {
	case termFinish:
		t.finished = true
		t.stats.Finish = t.time
		g.laneFinished[t.lane]++
	case termBarrier, termCollective:
		g.arrival[t.id] = t.time
		g.arrived[t.id] = true
		g.laneArrived[t.lane]++
	}
	t.parked = true
	// Record the event time (not the post-drain thread clock): a
	// rendezvous that completes at the join is clamped to the engine's Now
	// at the last arrival, and a span's join must replay exactly that.
	if at := t.eng.Now(); at > g.laneParkAt[t.lane] {
		g.laneParkAt[t.lane] = at
	}
	g.laneActive[t.lane]--
	if !g.inSpan {
		g.phaseLeft--
	}
}

// processOp executes one queued op for t and schedules the thread's next
// step.
func (g *Group) processOp(t *thread, o op) {
	switch o.kind {
	case opCompute:
		t.time += sim.Cycles(o.cycles, g.period)
	case opLoad, opStore:
		g.issue(t, o)
	case opScatter:
		g.makeRoom(t)
		done, remote := g.mem.Scatter(t.time, t.coreID, o.addr, o.span, o.size, o.write)
		t.win = append(t.win, slot{done: done, remote: remote})
		t.stats.Ops++
		t.stats.BytesTouched += uint64(o.size) * 64
		if remote {
			t.stats.RemoteOps++
		}
		if g.profiling {
			g.Profile[t.id][g.profDIMMOf(o.addr)] += uint64(o.size)
		}
		t.time += sim.Cycles(g.cfg.IssueCycles*uint64(o.size), g.period)
	case opLoadDep:
		g.makeRoom(t)
		done, remote := g.access(t, o)
		g.accountWait(t, done, remote)
		t.time = done
	case opBroadcast:
		g.retireAll(t)
		done := g.mem.Broadcast(t.time, t.coreID, o.addr, o.size)
		g.accountWait(t, done, true)
		t.time = done
		t.stats.Ops++
		t.stats.RemoteOps++
		t.stats.BytesTouched += uint64(o.size)
	case opDrain:
		g.retireAll(t)
	default:
		panic(fmt.Sprintf("cores: unknown op kind %d", o.kind))
	}
	g.schedule(t)
}

func (g *Group) schedule(t *thread) {
	t.eng.At(t.time, t.resume)
}

// issue puts a non-dependent access into the window, stalling only when the
// window is full.
func (g *Group) issue(t *thread, o op) {
	g.makeRoom(t)
	done, remote := g.access(t, o)
	t.win = append(t.win, slot{done: done, remote: remote})
	t.time += sim.Cycles(g.cfg.IssueCycles, g.period)
}

// makeRoom retires the oldest window entry, stalling the thread if it is
// still outstanding.
func (g *Group) makeRoom(t *thread) {
	if len(t.win) < g.cfg.Window {
		return
	}
	head := t.win[0]
	t.win = append(t.win[:0], t.win[1:]...)
	g.accountWait(t, head.done, head.remote)
	if head.done > t.time {
		t.time = head.done
	}
}

// retireAll drains the window (barrier, broadcast, kernel end).
func (g *Group) retireAll(t *thread) {
	for _, s := range t.win {
		g.accountWait(t, s.done, s.remote)
		if s.done > t.time {
			t.time = s.done
		}
	}
	t.win = t.win[:0]
}

// accountWait attributes the stall (if any) between the thread's clock and
// the completion time.
func (g *Group) accountWait(t *thread, done sim.Time, remote bool) {
	if done <= t.time {
		return
	}
	stall := done - t.time
	if remote {
		t.stats.IDCStall += stall
	} else {
		t.stats.LocalStall += stall
	}
}

// access performs the memory access and updates profiling and counters.
func (g *Group) access(t *thread, o op) (sim.Time, bool) {
	done, remote := g.mem.Access(t.time, t.coreID, o.addr, o.size, o.kind == opStore)
	t.stats.Ops++
	t.stats.BytesTouched += uint64(o.size)
	if remote {
		t.stats.RemoteOps++
	}
	if g.profiling {
		g.Profile[t.id][g.profDIMMOf(o.addr)]++
	}
	return done, remote
}

// checkRendezvous completes the pending rendezvous once every unfinished
// thread arrived: the memory system turns the arrivals into the release
// time, at which every waiting thread is charged the wait as IDC stall
// (and, for a collective, one remote op of the payload) and resumed. When
// a thread finishing (rather than arriving) completed the rendezvous, the
// release cannot predate that discovery, so it is clamped to the engine's
// Now.
func (g *Group) checkRendezvous() {
	if g.waiting == 0 || g.waiting < g.running {
		return
	}
	var arrivals []sim.Time
	var dimms []int
	var ts []*thread
	for _, t := range g.threads {
		if !g.arrived[t.id] {
			continue
		}
		arrivals = append(arrivals, g.arrival[t.id])
		dimms = append(dimms, t.homeDIMM)
		ts = append(ts, t)
	}
	first := ts[0]
	coll := first.term == termCollective
	for _, t := range ts[1:] {
		if t.term != first.term || coll && (t.coll != first.coll || t.collBytes != first.collBytes) {
			panic(fmt.Sprintf("cores: mismatched rendezvous in one gang: thread %d at %s, thread %d at %s",
				first.id, first.rendezvous(), t.id, t.rendezvous()))
		}
	}
	var at sim.Time
	if coll {
		at = g.mem.Collective(first.coll, arrivals, dimms, first.collBytes)
	} else {
		at = g.mem.Barrier(arrivals, dimms)
	}
	if now := g.eng.Now(); at < now {
		at = now
	}
	for i, t := range ts {
		g.arrived[t.id] = false
		t.stats.IDCStall += at - arrivals[i]
		if coll {
			t.stats.Ops++
			t.stats.RemoteOps++
			t.stats.BytesTouched += uint64(first.collBytes)
		}
		t.time = at
		g.schedule(t)
	}
	g.waiting = 0
	g.released = append(g.released, ts...)
}

// rendezvous names the rendezvous t waits at.
func (t *thread) rendezvous() string {
	if t.term == termCollective {
		return fmt.Sprintf("%v/%d", t.coll, t.collBytes)
	}
	return "barrier"
}

// classify reports whether the pending phase may run as a parallel span:
// every queued op of every active thread must be provably confined to the
// thread's own lane. Rendezvous terminators are excluded — they are
// processed at the join. Any op touching another lane's state (a remote
// access, a broadcast) forces the phase serial, where the composite merged
// engine reproduces exact single-queue FIFO call order.
func (g *Group) classify(lanes int) bool {
	if lanes <= 1 {
		return false
	}
	loc, ok := g.mem.(LaneLocality)
	if !ok {
		return false
	}
	for _, t := range g.threads {
		if t.finished || t.parked {
			continue
		}
		for _, o := range t.q {
			switch o.kind {
			case opCompute, opDrain:
				// Never touches memory.
			case opLoad, opStore, opLoadDep:
				if !loc.LaneLocalAccess(t.coreID, o.addr) {
					return false
				}
			case opScatter:
				if !loc.LaneLocalSpan(t.coreID, o.addr, o.span) {
					return false
				}
			default:
				return false
			}
		}
	}
	return true
}

// Ctx is the interface workload code uses to interact with the timing
// model. All methods must be called from the thread's own goroutine.
type Ctx struct {
	t *thread
}

// send queues o. The body runs ahead of simulated time: it hands its
// queue over, and blocks until the consumer resumes it, only when chunkOps
// ops are queued (in a parallel run's whole-phase fill the queue keeps
// growing, so every chunkOps-th op).
func (c *Ctx) send(o op) {
	t := c.t
	t.q = append(t.q, o)
	if len(t.q)%chunkOps == 0 {
		t.handoff(termNone)
	}
}

// ThreadID returns the thread's index within its group.
func (c *Ctx) ThreadID() int { return c.t.id }

// HomeDIMM returns the thread's home DIMM (-1 on the host).
func (c *Ctx) HomeDIMM() int { return c.t.homeDIMM }

// Load issues an independent read of size bytes; it returns once the
// request is in flight (the window bounds outstanding requests).
func (c *Ctx) Load(addr uint64, size uint32) { c.send(op{kind: opLoad, addr: addr, size: size}) }

// LoadDep issues a dependent read (pointer chase): the thread blocks until
// the data has returned.
func (c *Ctx) LoadDep(addr uint64, size uint32) { c.send(op{kind: opLoadDep, addr: addr, size: size}) }

// Store issues an independent write.
func (c *Ctx) Store(addr uint64, size uint32) { c.send(op{kind: opStore, addr: addr, size: size}) }

// Compute advances the thread by n core cycles of computation.
func (c *Ctx) Compute(n uint64) {
	if n > 0 {
		c.send(op{kind: opCompute, cycles: n})
	}
}

// Barrier synchronizes with every other thread in the group, using the
// memory system's synchronization mechanism.
func (c *Ctx) Barrier() { c.t.handoff(termBarrier) }

// Broadcast pushes size bytes at addr (on this thread's DIMM) to all DIMMs
// and blocks until the last DIMM received them.
func (c *Ctx) Broadcast(addr uint64, size uint32) {
	c.send(op{kind: opBroadcast, addr: addr, size: size})
}

// Collective joins a gang-wide collective exchange of bytes per rank; the
// thread blocks until the exchange completes. Every thread of the group
// must issue the same (kind, bytes) pair, like a barrier.
func (c *Ctx) Collective(kind CollectiveOp, bytes uint32) {
	c.t.coll, c.t.collBytes = kind, bytes
	c.t.handoff(termCollective)
}

// AllReduce sums a bytes-sized payload across all ranks, leaving every
// rank with the full result (the gradient exchange of data-parallel
// training).
func (c *Ctx) AllReduce(bytes uint32) { c.Collective(CollAllReduce, bytes) }

// ReduceScatter sums across ranks, leaving each rank with its 1/N share.
func (c *Ctx) ReduceScatter(bytes uint32) { c.Collective(CollReduceScatter, bytes) }

// AllGather concatenates each rank's 1/N share into the full payload on
// every rank.
func (c *Ctx) AllGather(bytes uint32) { c.Collective(CollAllGather, bytes) }

// AllToAll performs the personalized exchange: each rank sends a distinct
// 1/N chunk to every other rank.
func (c *Ctx) AllToAll(bytes uint32) { c.Collective(CollAllToAll, bytes) }

// Drain blocks until all of this thread's outstanding accesses complete.
func (c *Ctx) Drain() { c.send(op{kind: opDrain}) }

// ScatterStore issues count random single-element updates within
// [addr, addr+span): each costs one line-granularity memory transaction
// (on any system — this is the access pattern near-memory processing
// exists to accelerate). The op occupies one window slot; lines contend in
// the memory system.
func (c *Ctx) ScatterStore(addr uint64, span uint64, count uint32) {
	if count == 0 {
		return
	}
	c.send(op{kind: opScatter, addr: addr, span: span, size: count, write: true})
}

// ScatterLoad is ScatterStore for reads.
func (c *Ctx) ScatterLoad(addr uint64, span uint64, count uint32) {
	if count == 0 {
		return
	}
	c.send(op{kind: opScatter, addr: addr, span: span, size: count, write: false})
}
