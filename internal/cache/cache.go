// Package cache models the set-associative write-back caches of the NMP
// cores (per-core L1, per-DIMM shared L2) and of the host CPU.
//
// Coherence is software-assisted, as in the paper (Section III-E): the
// cores only route cacheable addresses here (thread-private and shared
// read-only data); shared read-write data bypasses the caches entirely, so
// no coherence protocol is modeled. At kernel completion the NMP cores
// flush their caches so the host can observe results; Flush returns the
// dirty lines so the caller can charge the write-back traffic.
package cache

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes one cache level.
type Config struct {
	SizeBytes  uint64
	LineBytes  uint64
	Ways       int
	HitLatency sim.Time
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d <= 0", c.Ways)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines == 0 || lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("cache: size %d / line %d not divisible by %d ways", c.SizeBytes, c.LineBytes, c.Ways)
	}
	sets := lines / uint64(c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
}

// way is one line slot: the line's tag, with dirtyBit set while the line
// is dirty, and the LRU timestamp of its last use, which is 0 exactly when
// the slot is invalid (ticks start at 1). Caches are most of a small
// system's memory, so a line takes two words.
type way struct {
	tag  uint64
	used uint64
}

// dirtyBit marks a dirty line in way.tag. Tags are line numbers (address
// over line size) shifted right by the set bits, far below it for any
// simulated address space.
const dirtyBit = 1 << 63

// Cache is a single set-associative write-back, write-allocate cache.
type Cache struct {
	cfg   Config
	ways  []way  // set s is ways[s*Ways : (s+1)*Ways]; nil until first Access
	setMx uint64 // set index mask
	tick  uint64
	Stats Stats
}

// New builds a cache from cfg; invalid configurations panic (they are
// always construction-time bugs).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Ways)
	return &Cache{cfg: cfg, setMx: nsets - 1}
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []way {
	n := uint64(c.cfg.Ways)
	return c.ways[s*n : s*n+n]
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	line := addr / c.cfg.LineBytes
	return line & c.setMx, line >> uint(popShift(c.setMx))
}

func popShift(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

// Result describes the outcome of an Access.
type Result struct {
	Hit           bool
	WriteBack     bool   // a dirty victim must be written to memory
	WriteBackAddr uint64 // line address of the victim
}

// Access looks up addr, allocating on miss (write-allocate). It returns
// whether the access hit and whether a dirty victim was evicted. The caller
// is responsible for charging miss/write-back traffic to the next level.
func (c *Cache) Access(addr uint64, write bool) Result {
	if c.ways == nil {
		// A system builds caches for every core; small runs leave many
		// of them untouched, so the lines are allocated on first use.
		c.ways = make([]way, (c.setMx+1)*uint64(c.cfg.Ways))
	}
	set, tag := c.index(addr)
	ways := c.set(set)
	c.tick++
	for i := range ways {
		if ways[i].used != 0 && ways[i].tag&^dirtyBit == tag {
			ways[i].used = c.tick
			if write {
				ways[i].tag |= dirtyBit
			}
			c.Stats.Hits++
			return Result{Hit: true}
		}
	}
	c.Stats.Misses++
	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range ways {
		if ways[i].used == 0 {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	res := Result{}
	if v := ways[victim]; v.used != 0 {
		c.Stats.Evictions++
		if v.tag&dirtyBit != 0 {
			c.Stats.WriteBacks++
			res.WriteBack = true
			res.WriteBackAddr = c.lineAddr(set, v.tag&^dirtyBit)
		}
	}
	if write {
		tag |= dirtyBit
	}
	ways[victim] = way{tag: tag, used: c.tick}
	return res
}

// Contains reports whether addr is present (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	if c.ways == nil {
		return false
	}
	set, tag := c.index(addr)
	for _, w := range c.set(set) {
		if w.used != 0 && w.tag&^dirtyBit == tag {
			return true
		}
	}
	return false
}

func (c *Cache) lineAddr(set, tag uint64) uint64 {
	return (tag<<uint(popShift(c.setMx)) | set) * c.cfg.LineBytes
}

// Flush invalidates the entire cache and returns the line addresses of all
// dirty lines (the write-back traffic at kernel completion).
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	n := uint64(c.cfg.Ways)
	for i, w := range c.ways {
		if w.used != 0 && w.tag&dirtyBit != 0 {
			dirty = append(dirty, c.lineAddr(uint64(i)/n, w.tag&^dirtyBit))
		}
	}
	clear(c.ways)
	return dirty
}

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() sim.Time { return c.cfg.HitLatency }

// HitRate returns hits/(hits+misses), or zero when untouched.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
