// Package nmp assembles complete simulated systems: DIMM-NMP systems with a
// selectable inter-DIMM communication mechanism (DIMM-Link or one of the
// baselines), and the 16-core host-CPU baseline the paper normalizes
// against.
//
// The paper's target architecture (Section II-A) is the centralized-buffer
// DIMM-NMP with a coarse-grained execution flow: during kernel execution
// the DIMMs are in NMP-Access mode, the per-DIMM local memory controllers
// own the DRAM, and the host only touches buffer SRAM for polling and
// packet forwarding. Each DIMM carries four general-purpose NMP cores with
// private L1s and a shared 128 KB L2 (Table V).
package nmp

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cores"
	"repro/internal/dram"
	"repro/internal/host"
	"repro/internal/idc"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Mechanism selects the IDC mechanism of an NMP system, or the host-CPU
// baseline.
type Mechanism string

// The compared systems of the evaluation.
const (
	MechDIMMLink Mechanism = "dimm-link"
	MechMCN      Mechanism = "mcn"
	MechAIM      Mechanism = "aim"
	MechABCDIMM  Mechanism = "abc-dimm"
	MechHostCPU  Mechanism = "host-cpu"
)

// Config describes a full system.
type Config struct {
	Geo  mem.Geometry
	DRAM dram.Timing
	Mech Mechanism

	// NMP side.
	NMPCore      cores.Config
	CoresPerDIMM int
	L1           cache.Config
	L2           cache.Config // shared per DIMM
	MCLatency    sim.Time     // local memory controller overhead per access

	// Host side (polling/forwarding for NMP systems; the compute cores of
	// the host baseline).
	Host           host.Config
	HostCores      int
	HostCore       cores.Config
	HostL1         cache.Config
	HostLLC        cache.Config // shared
	HostBarrierLat sim.Time

	// Mechanism-specific knobs.
	DL  core.Config
	AIM idc.AIMConfig

	// CollAlgo overrides the collective schedule (ring / hd / tree) for
	// NMP systems; AlgoAuto (the default) selects per mechanism and DL
	// topology via idc.SelectAlgo.
	CollAlgo idc.CollAlgo

	// Metrics optionally attaches the observability layer to every
	// instrumentable component (DL network links, host forwarding, DL
	// controllers). nil — the default — records nothing and leaves the
	// simulation on the exact un-instrumented path.
	Metrics *metrics.Collector

	// Shards, when > 1, builds the system on a sharded event kernel
	// (sim.ShardedEngine): DIMMs are split into contiguous blocks, one
	// event lane each. The full system model runs in deterministic-merge
	// mode — execution order, and therefore every output byte, is
	// identical to the single-engine run for any shard count — so Shards
	// is pure execution policy: it is set by SimHooks / exp.Options,
	// never by the content-addressed spec. Values above the DIMM count
	// are clamped; 0 and 1 keep the plain single engine.
	Shards int
}

// DefaultConfig returns the Table V system for the given DIMM/channel
// count: 4x 2.5 GHz NMP cores per DIMM with 32 KB L1s and a shared 128 KB
// L2, DDR4-3200 LR-DIMMs with 2 ranks, a 16-core 2.4 GHz OoO host (the
// paper's testbed CPUs are Xeon 4210R @ 2.4 GHz) with 8 MB LLC, GRS
// DIMM-Link, and the polling-proxy strategy.
func DefaultConfig(dimms, channels int, mech Mechanism) Config {
	geo := mem.Geometry{
		NumDIMMs:     dimms,
		NumChannels:  channels,
		DIMMCapBytes: 1 << 28, // 256 MiB simulated footprint per DIMM
		RanksPerDIMM: 2,
		BanksPerRank: 16,
		RowBytes:     8192,
		LineBytes:    64,
	}
	hostCfg := host.DefaultConfig()
	if mech == MechDIMMLink {
		hostCfg.Mode = host.ProxyPolling
	}
	return Config{
		Geo:            geo,
		DRAM:           dram.DDR4_3200(),
		Mech:           mech,
		NMPCore:        cores.Config{ClockHz: 2.5e9, Window: 8, IssueCycles: 1},
		CoresPerDIMM:   4,
		L1:             cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 1200},
		L2:             cache.Config{SizeBytes: 128 << 10, LineBytes: 64, Ways: 8, HitLatency: 4 * sim.Nanosecond},
		MCLatency:      10 * sim.Nanosecond,
		Host:           hostCfg,
		HostCores:      16,
		HostCore:       cores.Config{ClockHz: 2.4e9, Window: 16, IssueCycles: 1},
		HostL1:         cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitLatency: 1200},
		HostLLC:        cache.Config{SizeBytes: 8 << 20, LineBytes: 64, Ways: 16, HitLatency: 12 * sim.Nanosecond},
		HostBarrierLat: 100 * sim.Nanosecond,
		DL:             core.DefaultConfig(core.GroupsFor(dimms)),
		AIM:            idc.DefaultAIMConfig(),
	}
}

// System is one assembled simulation instance. Create a fresh System per
// experiment run; state (DRAM rows, caches, counters) is not resettable.
type System struct {
	Cfg     Config
	Eng     *sim.Engine
	Space   *mem.Space
	Modules []*dram.Module

	// IC is the IDC mechanism; nil for the host baseline.
	IC        idc.Interconnect
	Link      *core.Link // non-nil only for MechDIMMLink
	hostModel *host.Host

	// Coll schedules collective operations over IC; nil for the host
	// baseline (whose shared memory needs no transport schedule).
	Coll *idc.Collectives

	// Traffic accumulates the src×dst inter-DIMM byte matrix (data
	// accesses and broadcasts; sync-only barrier/collective rendezvous
	// excluded). nil for the host baseline, whose accesses are never
	// inter-DIMM. Recording is passive bookkeeping — it never perturbs
	// the simulated timeline.
	Traffic *metrics.Traffic

	memory  cores.Memory
	nmpMem  *nmpMemory // base memory for the end-of-kernel cache flush
	Ctrs    stats.Counters
	sampler *metrics.Sampler
	sharded *sim.ShardedEngine // non-nil when Cfg.Shards > 1; Eng is lane 0

	// Parallel-mode shard-resident sinks: when parallel is on, the memory
	// layer accumulates counters and traffic into the lane owning the
	// accessing core's home DIMM instead of the shared Ctrs/Traffic, so
	// concurrent lanes never write the same cell. Stop folds them into
	// Ctrs/Traffic in lane index order — pure commutative sums, so the
	// folded totals are byte-identical to direct accumulation.
	parallel    bool
	laneCtrs    []stats.Counters
	laneTraffic []*metrics.Traffic
}

// NewSystem builds a system from cfg.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Geo.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.NMPCore.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	var sharded *sim.ShardedEngine
	if cfg.Shards > 1 {
		sharded = sim.NewShardedEngine(min(cfg.Shards, cfg.Geo.NumDIMMs))
		eng = sharded.Lane(0)
	}
	space := mem.MustNewSpace(cfg.Geo)
	modules := make([]*dram.Module, cfg.Geo.NumDIMMs)
	for i := range modules {
		modules[i] = dram.New(cfg.Geo, cfg.DRAM, i)
	}
	s := &System{Cfg: cfg, Eng: eng, Space: space, Modules: modules, sharded: sharded}

	switch cfg.Mech {
	case MechDIMMLink:
		dl := cfg.DL
		dl.Metrics = cfg.Metrics
		l := core.NewLink(eng, cfg.Geo, modules, cfg.Host, dl)
		s.IC, s.Link, s.hostModel = l, l, l.Host()
	case MechMCN:
		m := idc.NewMCN(eng, cfg.Geo, modules, cfg.Host)
		s.IC, s.hostModel = m, m.Host()
	case MechAIM:
		s.IC = idc.NewAIM(cfg.Geo, modules, cfg.AIM)
	case MechABCDIMM:
		b := idc.NewABCDIMM(eng, cfg.Geo, modules, cfg.Host)
		s.IC, s.hostModel = b, b.Host()
	case MechHostCPU:
		// The host baseline needs the channel buses but no polling loop.
		hc := cfg.Host
		hc.Mode = host.ProxyInterrupt // interrupt modes have no background polls
		s.hostModel = host.New(eng, cfg.Geo, hc, nil)
	default:
		return nil, fmt.Errorf("nmp: unknown mechanism %q", cfg.Mech)
	}
	if s.hostModel != nil && cfg.Mech != MechDIMMLink {
		// MechDIMMLink wires the collector through core.NewLink; the other
		// host-touching mechanisms attach it here.
		s.hostModel.SetMetrics(cfg.Metrics)
	}

	if cfg.Mech == MechHostCPU {
		s.memory = newHostMemory(s)
	} else {
		algo := cfg.CollAlgo
		if algo == idc.AlgoAuto {
			algo = idc.SelectAlgo(string(cfg.Mech), string(cfg.DL.Topology))
		}
		s.Coll = idc.NewCollectives(s.IC, cfg.Geo, idc.DefaultCollConfig(algo))
		s.Traffic = metrics.NewTraffic(cfg.Geo.NumDIMMs)
		s.nmpMem = newNMPMemory(s)
		s.memory = s.nmpMem
	}
	return s, nil
}

// MustNewSystem panics on configuration errors.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Host returns the host model (nil for AIM, which never touches the host).
func (s *System) Host() *host.Host { return s.hostModel }

// Memory returns the cores.Memory the system's threads run against.
func (s *System) Memory() cores.Memory { return s.memory }

// InstrumentMemory interposes wrap(current) in front of the memory system
// — e.g. a trace.Recorder. The end-of-kernel cache flush still operates on
// the underlying memory.
func (s *System) InstrumentMemory(wrap func(cores.Memory) cores.Memory) {
	s.memory = wrap(s.memory)
}

// NewGroup creates a thread group bound to this system's memory. NMP
// systems use the NMP core model; the host baseline uses the host core
// model.
func (s *System) NewGroup() *cores.Group {
	coreCfg := s.Cfg.NMPCore
	if s.Cfg.Mech == MechHostCPU {
		coreCfg = s.Cfg.HostCore
	}
	g := cores.NewGroup(s.Eng, coreCfg, s.memory)
	if s.sharded != nil {
		g.SetLanes(func(homeDIMM int) *sim.Engine {
			return s.sharded.Lane(s.LaneFor(homeDIMM))
		})
	}
	return g
}

// Sharded returns the sharded event kernel the system was built on, or nil
// for a plain single-engine system.
func (s *System) Sharded() *sim.ShardedEngine { return s.sharded }

// SetParallel turns phase-parallel kernel execution on or off. It is an
// execution policy, never part of the content-addressed spec: a parallel
// run renders byte-identical reports to a merged run of the same system.
// Requires a sharded system (Shards > 1) and no armed sampler (sampler
// probes read cross-lane state from a lane-0 ticker, which is not safe
// while lanes run concurrently).
func (s *System) SetParallel(par bool) error {
	if !par {
		s.parallel = false
		return nil
	}
	if s.sharded == nil {
		return fmt.Errorf("nmp: parallel execution requires a sharded system (Shards > 1)")
	}
	if s.sampler != nil {
		return fmt.Errorf("nmp: parallel execution is incompatible with an armed sampler; drop sampling or parallel mode")
	}
	if s.laneCtrs == nil {
		lanes := s.sharded.Lanes()
		s.laneCtrs = make([]stats.Counters, lanes)
		if s.Traffic != nil {
			s.laneTraffic = make([]*metrics.Traffic, lanes)
			for i := range s.laneTraffic {
				s.laneTraffic[i] = metrics.NewTraffic(s.Cfg.Geo.NumDIMMs)
			}
		}
	}
	s.parallel = true
	return nil
}

// Parallel reports whether phase-parallel execution is enabled.
func (s *System) Parallel() bool { return s.parallel }

// ctrsFor returns the counter sink for activity homed on a DIMM: the
// owning lane's shard-resident counters in parallel mode, the shared
// system counters otherwise.
func (s *System) ctrsFor(dimm int) *stats.Counters {
	if s.parallel {
		return &s.laneCtrs[s.LaneFor(dimm)]
	}
	return &s.Ctrs
}

// trafficFor returns the traffic-matrix sink for activity homed on a
// DIMM, mirroring ctrsFor.
func (s *System) trafficFor(dimm int) *metrics.Traffic {
	if s.parallel && s.laneTraffic != nil {
		return s.laneTraffic[s.LaneFor(dimm)]
	}
	return s.Traffic
}

// LaneFor returns the event lane owning a DIMM: contiguous DIMM blocks map
// to lanes, aligned with the contiguous DL-group split, so a group never
// spans lanes when Shards divides the group count. Host threads (DIMM -1)
// and unsharded systems live on lane 0.
func (s *System) LaneFor(dimm int) int {
	if s.sharded == nil || dimm < 0 {
		return 0
	}
	return dimm * s.sharded.Lanes() / s.Cfg.Geo.NumDIMMs
}

// Threads returns how many worker threads this system runs: one per NMP
// core, or HostCores on the baseline.
func (s *System) Threads() int {
	if s.Cfg.Mech == MechHostCPU {
		return s.Cfg.HostCores
	}
	return s.Cfg.Geo.NumDIMMs * s.Cfg.CoresPerDIMM
}

// DefaultPlacement maps thread i to DIMM i*N/T: threads fill the DIMMs in
// blocks, colocated with the per-thread partitions workloads allocate the
// same way. The host baseline places every thread on "DIMM" -1.
func (s *System) DefaultPlacement() []int {
	t := s.Threads()
	place := make([]int, t)
	if s.Cfg.Mech == MechHostCPU {
		for i := range place {
			place[i] = -1
		}
		return place
	}
	for i := range place {
		place[i] = i * s.Cfg.Geo.NumDIMMs / t
	}
	return place
}

// ShuffledPlacement maps threads to DIMMs by a seeded pseudo-random
// permutation of the core slots — a fully data-oblivious scheduler ("we
// first randomly place T threads to N DIMMs"). The host baseline is
// unaffected (all -1).
func (s *System) ShuffledPlacement(seed int64) []int {
	place := s.DefaultPlacement()
	if s.Cfg.Mech == MechHostCPU {
		return place
	}
	rng := newSplitMix(uint64(seed))
	for i := len(place) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		place[i], place[j] = place[j], place[i]
	}
	return place
}

// GroupShuffledPlacement permutes thread placement *within* each DL group:
// the scheduler is NUMA-domain-aware (it keeps a thread on the correct side
// of the socket, where its partition lives) but not link-hop-aware — the
// realistic starting point that distance-aware task mapping (Section IV-B)
// improves on. Mechanisms with a uniform medium (MCN, AIM, ABC-DIMM) are
// insensitive to this shuffle; DIMM-Link pays extra hops until the task
// mapper recovers the alignment.
func (s *System) GroupShuffledPlacement(seed int64) []int {
	place := s.DefaultPlacement()
	if s.Cfg.Mech == MechHostCPU {
		return place
	}
	groups := core.GroupsFor(s.Cfg.Geo.NumDIMMs)
	if s.Cfg.Mech == MechDIMMLink && s.Cfg.DL.NumGroups > 0 {
		groups = s.Cfg.DL.NumGroups
	}
	perGroup := len(place) / groups
	rng := newSplitMix(uint64(seed))
	for g := 0; g < groups; g++ {
		lo := g * perGroup
		hi := lo + perGroup
		if g == groups-1 {
			hi = len(place)
		}
		for i := hi - 1; i > lo; i-- {
			j := lo + int(rng.next()%uint64(i-lo+1))
			place[i], place[j] = place[j], place[i]
		}
	}
	return place
}

// splitMix is a tiny deterministic PRNG, independent of math/rand so that
// placement shuffles never perturb workload generation streams.
type splitMix struct{ x uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{x: seed + 0x9e3779b97f4a7c15} }

func (s *splitMix) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PartitionDIMM returns the DIMM that thread i's data partition should live
// on under the default (aligned) layout, regardless of where the thread
// itself currently runs. For the host baseline data is striped; -1 selects
// round-robin placement by the caller.
func (s *System) PartitionDIMM(i int) int {
	if s.Cfg.Mech == MechHostCPU {
		return i % s.Cfg.Geo.NumDIMMs
	}
	return i * s.Cfg.Geo.NumDIMMs / s.Threads()
}

// StartSampler arms a periodic metrics sampler over the system's
// instrumentable state: per-link utilization of every DL group network
// (probe "linkutil.g<group>.<u>-><v>"), per-DIMM transaction-tag
// occupancy ("tags.d<dimm>"), and mean host channel-bus occupation
// ("hostbus.occ"). Probes register in a fixed order (groups, then link
// keys sorted, then DIMMs, then the host), so the recorded series — and
// any trace events — are deterministic. The sampler stops with the
// system's Stop. Sampling is passive observation: it reads utilization
// state but never reserves simulated resources, so an identically-seeded
// run without a sampler produces the same timeline.
func (s *System) StartSampler(period sim.Time) *metrics.Sampler {
	if s.sampler != nil {
		return s.sampler
	}
	if s.parallel {
		// The sampler's ticker arms on lane 0 but its probes read link,
		// tag and host-bus state owned by every lane — unsafe while lanes
		// run concurrently. Callers must choose one mode (spec.RunSim
		// rejects the combination up front with a friendlier error).
		panic("nmp: sampler is not lane-safe in parallel mode; disable sampling or parallel execution")
	}
	sp := metrics.NewSampler(period, s.Cfg.Metrics)
	if s.Link != nil {
		for gi, net := range s.Link.Networks() {
			net := net
			for li, key := range net.LinkKeys() {
				li := li
				sp.AddProbe(fmt.Sprintf("linkutil.g%d.%s", gi, key),
					func(now sim.Time) float64 { return net.LinkUtilizationAt(li, now) })
			}
		}
		for d, c := range s.Link.Controllers() {
			c := c
			sp.AddProbe(fmt.Sprintf("tags.d%d", d),
				func(now sim.Time) float64 { return float64(c.TagsInUse(now)) })
		}
	}
	if s.hostModel != nil {
		h := s.hostModel
		sp.AddProbe("hostbus.occ",
			func(now sim.Time) float64 { return h.BusOccupation(now) })
	}
	sp.Start(s.Eng)
	s.sampler = sp
	return sp
}

// Sampler returns the sampler started by StartSampler, or nil.
func (s *System) Sampler() *metrics.Sampler { return s.sampler }

// Stop halts background activity (host polling). Call after the kernel
// completes, before reading utilization stats.
func (s *System) Stop() {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	if s.Link != nil {
		s.Link.Stop()
	} else if s.hostModel != nil {
		s.hostModel.Stop()
	}
	// Fold the shard-resident sinks into the shared views in lane index
	// order, then zero them so repeated Stops (and any later kernel on
	// the same system) stay correct.
	for i := range s.laneCtrs {
		s.Ctrs.Merge(&s.laneCtrs[i])
		s.laneCtrs[i].Reset()
	}
	for i, tm := range s.laneTraffic {
		s.Traffic.Merge(tm)
		s.laneTraffic[i] = metrics.NewTraffic(s.Cfg.Geo.NumDIMMs)
	}
}

// coreDIMM maps a global core ID to its DIMM for NMP systems: core c sits
// on DIMM c / CoresPerDIMM.
func (s *System) coreDIMM(coreID int) int { return coreID / s.Cfg.CoresPerDIMM }

// CoreID returns the global core ID of the ith core on a DIMM.
func (s *System) CoreID(dimm, localCore int) int {
	return dimm*s.Cfg.CoresPerDIMM + localCore
}
