// Package cores models the processing cores (NMP cores in the DIMM buffer
// chips, and host CPU cores for the baseline) and the threads they run.
//
// Simulation is functional-first and timing-directed (DESIGN.md §3): each
// workload thread runs the real algorithm in its own goroutine against real
// Go data structures, and reports every memory access, compute phase and
// synchronization point through a Ctx. The Group scheduler resumes exactly
// one thread at a time, in simulated-time order, so the whole simulation
// stays deterministic while the workload code reads and writes its data
// naturally.
//
// The core model is in-order issue with a bounded outstanding-request
// window (MSHR-style): independent accesses (Load/Store) overlap up to the
// window size, dependent loads (LoadDep) block the thread until the data
// returns, and Compute advances the thread's clock. This captures the
// memory-level parallelism that decides how much IDC latency a workload can
// hide — the quantity behind the paper's "non-overlapped IDC cycles".
package cores

import (
	"fmt"

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

type opKind int

const (
	opLoad opKind = iota
	opLoadDep
	opStore
	opCompute
	opBarrier
	opBroadcast
	opDrain
	opScatter
	opCollective
)

type op struct {
	kind   opKind
	addr   uint64
	size   uint32
	cycles uint64
	span   uint64
	write  bool
	coll   CollectiveOp
}

type slot struct {
	done   sim.Time
	remote bool
}

// termKind is how a phase segment of a thread's op stream ends: at a
// rendezvous (barrier, collective) or by the thread finishing.
type termKind int

const (
	termNone termKind = iota
	termBarrier
	termCollective
	termFinish
)

type thread struct {
	id       int
	homeDIMM int
	coreID   int
	eng      *sim.Engine // the event lane this thread's resumptions run on
	time     sim.Time
	ops      chan op
	ack      chan struct{}
	started  bool
	finished bool
	win      []slot // outstanding ops, issue order
	stats    ThreadStats

	// Phased-mode state (RunParallel): the lane index, the segment's
	// pre-collected op queue with its consume cursor, how the segment
	// terminates, the terminating collective op (for uniformity checks at
	// the join), and whether the thread is parked at its terminator.
	lane   int
	q      []op
	qi     int
	term   termKind
	termOp op
	parked bool
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
	// shard.go). nil keeps every thread on the group's engine. In the
	// deterministic-merge mode the composite engine executes either
	// assignment in the identical order, so this is purely an ownership
	// annotation until the model runs parallel windows.
	laneOf func(homeDIMM int) *sim.Engine

	barrierArr  []sim.Time
	barrierIn   []bool
	barrierWait int

	// Collective rendezvous state, mirroring the barrier plumbing: all
	// unfinished threads must issue the same collective (op, bytes) before
	// the exchange runs and releases them at a uniform time.
	collArr   []sim.Time
	collIn    []bool
	collWait  int
	collOp    CollectiveOp
	collBytes uint32

	// Profile[i][d] counts thread i's accesses to DIMM d when profiling is
	// enabled — the M[T][N] table of Algorithm 1.
	Profile    [][]uint64
	profiling  bool
	profDIMMs  int
	profDIMMOf func(addr uint64) int

	// Phased-mode state (RunParallel). During a parallel span, thread
	// events on different lanes run concurrently; everything they touch is
	// either thread-owned (t.*, barrierArr/barrierIn/collArr/collIn rows,
	// Profile rows) or lane-owned (the lane* slices, indexed by the
	// executing thread's lane). The shared rendezvous counters
	// (barrierWait/collWait/running) are only folded from the lane-owned
	// counts at the join, in the serial driver.
	phased        bool
	inSpan        bool  // a parallel span is executing (lane goroutines live)
	phaseLeft     int   // serial-phase countdown of unparked threads
	laneActive    []int // unparked threads per lane (span loop condition)
	laneBarrier   []int // barrier arrivals this phase, per lane
	laneColl      []int // collective arrivals this phase, per lane
	laneFinished  []int // threads finished this phase, per lane
	laneParkAt    []sim.Time
	refillScratch []*thread // reused released-thread list between joins
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
// global core ID, running body. Must be called before Run.
func (g *Group) Spawn(homeDIMM, coreID int, body func(*Ctx)) *ThreadStats {
	t := &thread{
		id:       len(g.threads),
		homeDIMM: homeDIMM,
		coreID:   coreID,
		eng:      g.eng,
		ops:      make(chan op),
		ack:      make(chan struct{}),
	}
	if g.laneOf != nil {
		t.eng = g.laneOf(homeDIMM)
	}
	g.threads = append(g.threads, t)
	g.running++
	if g.profiling {
		g.Profile = append(g.Profile, make([]uint64, g.profDIMMs))
	}
	go func() {
		defer close(t.ops)
		body(&Ctx{g: g, t: t})
	}()
	return &t.stats
}

// Threads returns the number of spawned threads.
func (g *Group) Threads() int { return len(g.threads) }

// Run drives the simulation until every thread has finished and returns
// the makespan (the last thread's finish time). It panics on deadlock
// (mismatched barriers), which is always a workload bug.
func (g *Group) Run() sim.Time {
	g.barrierArr = make([]sim.Time, len(g.threads))
	g.barrierIn = make([]bool, len(g.threads))
	g.collArr = make([]sim.Time, len(g.threads))
	g.collIn = make([]bool, len(g.threads))
	for _, t := range g.threads {
		t := t
		t.eng.At(t.eng.Now(), func() { g.step(t) })
	}
	for g.running > 0 {
		if !g.eng.Step() {
			panic(fmt.Sprintf("cores: deadlock with %d threads unfinished (mismatched barriers?)", g.running))
		}
	}
	var makespan sim.Time
	for _, t := range g.threads {
		if t.stats.Finish > makespan {
			makespan = t.stats.Finish
		}
	}
	return makespan
}

// Stats returns the per-thread statistics (valid after Run).
func (g *Group) Stats() []ThreadStats {
	out := make([]ThreadStats, len(g.threads))
	for i, t := range g.threads {
		out[i] = t.stats
	}
	return out
}

// step resumes thread t at its current simulated time, obtains its next
// operation, and processes it.
func (g *Group) step(t *thread) {
	if g.phased {
		g.stepPhased(t)
		return
	}
	if t.started {
		t.ack <- struct{}{} // release the goroutine to produce its next op
	}
	t.started = true
	o, ok := <-t.ops
	if !ok {
		g.retireAll(t)
		t.finished = true
		t.stats.Finish = t.time
		g.running--
		g.checkBarrier()
		g.checkCollective()
		return
	}
	switch o.kind {
	case opBarrier:
		g.retireAll(t)
		g.barrierArr[t.id] = t.time
		g.barrierIn[t.id] = true
		g.barrierWait++
		g.checkBarrier()
	case opCollective:
		g.retireAll(t)
		if g.collWait == 0 {
			g.collOp, g.collBytes = o.coll, o.size
		} else if g.collOp != o.coll || g.collBytes != o.size {
			panic(fmt.Sprintf("cores: mismatched collectives in one gang: %v/%d vs %v/%d",
				g.collOp, g.collBytes, o.coll, o.size))
		}
		g.collArr[t.id] = t.time
		g.collIn[t.id] = true
		g.collWait++
		g.checkCollective()
	default:
		g.processOp(t, o)
	}
}

// processOp executes one non-rendezvous op for t and schedules the
// thread's next step. It is shared between the merged step and the phased
// queue consumer, so the two modes process every op identically.
func (g *Group) processOp(t *thread, o op) {
	switch o.kind {
	case opCompute:
		t.time += sim.Cycles(o.cycles, g.period)
		g.schedule(t)
	case opLoad, opStore:
		g.issue(t, o)
		g.schedule(t)
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
		g.schedule(t)
	case opLoadDep:
		g.makeRoom(t)
		done, remote := g.access(t, o)
		g.accountWait(t, done, remote)
		t.time = done
		g.schedule(t)
	case opBroadcast:
		g.retireAll(t)
		done := g.mem.Broadcast(t.time, t.coreID, o.addr, o.size)
		g.accountWait(t, done, true)
		t.time = done
		t.stats.Ops++
		t.stats.RemoteOps++
		t.stats.BytesTouched += uint64(o.size)
		g.schedule(t)
	case opDrain:
		g.retireAll(t)
		g.schedule(t)
	default:
		panic(fmt.Sprintf("cores: unknown op kind %d", o.kind))
	}
}

func (g *Group) schedule(t *thread) {
	t.eng.At(t.time, func() { g.step(t) })
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
	t.win = t.win[1:]
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

// checkBarrier releases the barrier once every unfinished thread arrived.
func (g *Group) checkBarrier() {
	if g.barrierWait == 0 || g.barrierWait < g.running {
		return
	}
	var arrivals []sim.Time
	var dimms []int
	var ids []int
	for _, t := range g.threads {
		if t.finished || !g.barrierIn[t.id] {
			continue
		}
		arrivals = append(arrivals, g.barrierArr[t.id])
		dimms = append(dimms, t.homeDIMM)
		ids = append(ids, t.id)
	}
	release := g.mem.Barrier(arrivals, dimms)
	// If the barrier was completed by a thread *finishing* (rather than
	// arriving), the release cannot predate that discovery.
	if now := g.eng.Now(); release < now {
		release = now
	}
	for i, id := range ids {
		t := g.threads[id]
		g.barrierIn[id] = false
		t.stats.IDCStall += release - arrivals[i]
		t.time = release
		g.schedule(t)
	}
	g.barrierWait = 0
}

// checkCollective runs the collective exchange once every unfinished
// thread issued it, then releases them all at the uniform time.
func (g *Group) checkCollective() {
	if g.collWait == 0 || g.collWait < g.running {
		return
	}
	var arrivals []sim.Time
	var dimms []int
	var ids []int
	for _, t := range g.threads {
		if t.finished || !g.collIn[t.id] {
			continue
		}
		arrivals = append(arrivals, g.collArr[t.id])
		dimms = append(dimms, t.homeDIMM)
		ids = append(ids, t.id)
	}
	release := g.mem.Collective(g.collOp, arrivals, dimms, g.collBytes)
	// As with barriers: when the rendezvous completes because a thread
	// finished, the release cannot predate that discovery.
	if now := g.eng.Now(); release < now {
		release = now
	}
	for i, id := range ids {
		t := g.threads[id]
		g.collIn[id] = false
		t.stats.IDCStall += release - arrivals[i]
		t.stats.Ops++
		t.stats.RemoteOps++
		t.stats.BytesTouched += uint64(g.collBytes)
		t.time = release
		g.schedule(t)
	}
	g.collWait = 0
}

// fill pre-collects thread t's next phase segment: it resumes the
// goroutine and receives ops into t.q until the stream hits a rendezvous
// op (stored as the segment terminator, with the goroutine left blocked on
// its ack) or the channel closes (the thread's body returned). It must run
// in a serial context — the whole point of the fill protocol is that
// workload goroutines never execute during parallel spans. This is sound
// because Ctx exposes no time queries and no op returns data, so the op
// stream a goroutine produces cannot depend on when its ops are timed.
func (g *Group) fill(t *thread) {
	t.q = t.q[:0]
	t.qi = 0
	t.term = termNone
	t.termOp = op{}
	t.parked = false
	if t.started {
		t.ack <- struct{}{}
	}
	t.started = true
	for {
		o, ok := <-t.ops
		if !ok {
			t.term = termFinish
			return
		}
		switch o.kind {
		case opBarrier:
			t.term = termBarrier
			t.termOp = o
			return
		case opCollective:
			t.term = termCollective
			t.termOp = o
			return
		}
		t.q = append(t.q, o)
		t.ack <- struct{}{}
	}
}

// fillAll fills a set of threads, concurrently when the host allows. A
// fill never touches engine or group state — only the thread's own
// fields and its op/ack channels — so fills are mutually independent as
// long as the workload bodies follow the BSP ownership discipline the
// parallel mode requires (mutations between rendezvous ops touch only
// thread-owned state; cross-thread reads happen only across a barrier).
// The resulting queues are identical to sequential fills, so parallel
// filling is byte-identity-preserving; it matters because for compute-
// heavy workloads the goroutines' own Go-side work (input generation,
// gradient math) dominates wall time, not event processing.
func (g *Group) fillAll(ts []*thread) {
	sim.Fan(len(ts), func(i int) { g.fill(ts[i]) })
}

// stepPhased consumes one queued op for t, or — when the queue is
// exhausted — processes the segment terminator and parks the thread. It
// runs either on t's own lane during a parallel span or on the composite
// engine during a serial phase; all state it touches is thread- or
// lane-owned, so concurrent lanes never conflict.
func (g *Group) stepPhased(t *thread) {
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
	case termBarrier:
		g.barrierArr[t.id] = t.time
		g.barrierIn[t.id] = true
		g.laneBarrier[t.lane]++
	case termCollective:
		g.collArr[t.id] = t.time
		g.collIn[t.id] = true
		g.laneColl[t.lane]++
	default:
		panic("cores: phased thread ran out of ops with no terminator")
	}
	t.parked = true
	// Record the event time (not the post-drain thread clock): the merged
	// checkBarrier/checkCollective clamp releases to the engine's Now at
	// the last arrival, and the join must replay exactly that clamp.
	if at := t.eng.Now(); at > g.laneParkAt[t.lane] {
		g.laneParkAt[t.lane] = at
	}
	g.laneActive[t.lane]--
	if !g.inSpan {
		g.phaseLeft--
	}
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

// RunParallel drives the gang to completion over a sharded engine,
// executing provably lane-confined phases concurrently (one goroutine per
// lane) and everything else on the composite merged engine. Output is
// byte-identical to Run on the same sharded engine in merged mode: within
// a lane the event order is unchanged, concurrent lanes touch disjoint
// state, and every cross-lane interaction (remote access, broadcast,
// rendezvous release) happens in a serial context in the same order the
// merged engine would produce.
//
// Phases are delimited by rendezvous ops (barrier/collective — gang-wide,
// so globally aligned across lanes) and by threads finishing. The fill
// protocol (see fill) drains each goroutine's op stream for the phase up
// front, so no workload goroutine runs while lanes execute concurrently.
func (g *Group) RunParallel(sh *sim.ShardedEngine) sim.Time {
	lanes := sh.Lanes()
	g.barrierArr = make([]sim.Time, len(g.threads))
	g.barrierIn = make([]bool, len(g.threads))
	g.collArr = make([]sim.Time, len(g.threads))
	g.collIn = make([]bool, len(g.threads))
	g.laneActive = make([]int, lanes)
	g.laneBarrier = make([]int, lanes)
	g.laneColl = make([]int, lanes)
	g.laneFinished = make([]int, lanes)
	g.laneParkAt = make([]sim.Time, lanes)
	g.phased = true
	defer func() { g.phased = false }()

	for _, t := range g.threads {
		t.lane = t.eng.LaneIndex()
	}
	g.fillAll(g.threads)
	for _, t := range g.threads {
		t := t
		t.eng.At(t.eng.Now(), func() { g.step(t) })
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
			panic(fmt.Sprintf("cores: deadlock with %d threads unfinished (mismatched barriers?)", g.running))
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
				if !sh.Step() {
					panic(fmt.Sprintf("cores: deadlock with %d threads unfinished (mismatched barriers?)", g.running))
				}
			}
		}

		// Join: fold the lane-owned arrival counts into the shared
		// rendezvous counters, exactly as merged-mode step would have.
		newColl := 0
		for i := range g.laneBarrier {
			g.barrierWait += g.laneBarrier[i]
			newColl += g.laneColl[i]
			g.running -= g.laneFinished[i]
			g.laneBarrier[i] = 0
			g.laneColl[i] = 0
			g.laneFinished[i] = 0
		}
		if newColl > 0 {
			first := true
			for _, t := range g.threads {
				if t.term != termCollective || !g.collIn[t.id] {
					continue
				}
				o := t.termOp
				if g.collWait == 0 && first {
					g.collOp, g.collBytes = o.coll, o.size
				} else if g.collOp != o.coll || g.collBytes != o.size {
					panic(fmt.Sprintf("cores: mismatched collectives in one gang: %v/%d vs %v/%d",
						g.collOp, g.collBytes, o.coll, o.size))
				}
				first = false
			}
			g.collWait += newColl
		}
		g.checkBarrier()
		g.checkCollective()

		// Refill every thread the rendezvous released: it is parked, no
		// longer flagged as waiting, and its release event is scheduled.
		released := g.refillScratch[:0]
		for _, t := range g.threads {
			if t.finished || !t.parked {
				continue
			}
			if g.barrierIn[t.id] || g.collIn[t.id] {
				continue
			}
			released = append(released, t)
		}
		g.refillScratch = released
		g.fillAll(released)
	}

	var makespan sim.Time
	for _, t := range g.threads {
		if t.stats.Finish > makespan {
			makespan = t.stats.Finish
		}
	}
	return makespan
}

// Ctx is the interface workload code uses to interact with the timing
// model. All methods must be called from the thread's own goroutine.
type Ctx struct {
	g *Group
	t *thread
}

func (c *Ctx) send(o op) {
	c.t.ops <- o
	<-c.t.ack
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
func (c *Ctx) Barrier() { c.send(op{kind: opBarrier}) }

// Broadcast pushes size bytes at addr (on this thread's DIMM) to all DIMMs
// and blocks until the last DIMM received them.
func (c *Ctx) Broadcast(addr uint64, size uint32) {
	c.send(op{kind: opBroadcast, addr: addr, size: size})
}

// Collective joins a gang-wide collective exchange of bytes per rank; the
// thread blocks until the exchange completes. Every thread of the group
// must issue the same (op, bytes) pair, like a barrier.
func (c *Ctx) Collective(op CollectiveOp, bytes uint32) {
	c.send(op2coll(op, bytes))
}

func op2coll(o CollectiveOp, bytes uint32) op {
	return op{kind: opCollective, coll: o, size: bytes}
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
