package mem

import (
	"fmt"
	"math/bits"
	"slices"
)

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes  int // total capacity
	LineBytes  int // line size (power of two)
	Ways       int // associativity
	HitLatency int // cycles from access to data for a hit

	// MSHRs bounds the outstanding misses this level tolerates (miss-status
	// holding registers). 0 means unbounded — the pre-MSHR model and the
	// differential oracle. The cache itself only carries the knob: occupancy
	// lives with the timing engine that owns the level (the simulator's
	// per-core LSU for L1s, the hierarchy's per-bank fetch path for L2).
	MSHRs int
}

// Validate checks the geometry is realizable.
func (c CacheConfig) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: line size %d not a power of two", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("mem: ways %d invalid", c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("mem: size %d not divisible by line*ways", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: set count %d not a power of two", sets)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("mem: negative hit latency")
	}
	if c.MSHRs < 0 {
		return fmt.Errorf("mem: negative MSHR count %d", c.MSHRs)
	}
	return nil
}

// CacheStats counts cache events.
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	// PrefetchIssued counts tag-only prefetch fills performed; PrefetchHits
	// counts demand accesses whose first touch landed on a still-unused
	// prefetched line (the bit clears on that touch, so a line counts once).
	// Neither perturbs Accesses/Hits/Misses: a prefetch hit is still a
	// demand hit.
	PrefetchIssued uint64
	PrefetchHits   uint64
}

// HitRate returns hits/accesses, or 0 for an untouched cache.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type cacheLine struct {
	tag    uint32
	valid  bool
	dirty  bool
	pfetch bool   // filled by a prefetch and not yet touched by demand
	lru    uint64 // last-touched stamp; larger is more recent
}

// Cache is one set-associative, write-back, write-allocate cache level.
// It tracks tags only; data lives in the flat Memory.
type Cache struct {
	cfg       CacheConfig
	lines     []cacheLine // sets*ways, set-major
	sets      int
	lineShift uint
	setMask   uint32
	stamp     uint64
	Stats     CacheStats
}

// resized returns s with length n, keeping the backing array — and whatever
// its slots hold, those beyond len included — when the capacity suffices.
// Callers reset the slots they expose.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// NewCache builds a cache; the config must validate.
func NewCache(cfg CacheConfig) (*Cache, error) {
	c := new(Cache)
	if err := c.Reshape(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reshape puts the cache into the freshly constructed state of cfg, which
// must validate, keeping the line array when it is large enough. It is the
// one construction path: NewCache is the zero value plus Reshape. On error
// the cache is unchanged.
func (c *Cache) Reshape(cfg CacheConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c.cfg = cfg
	c.lines = resized(c.lines, sets*cfg.Ways)
	c.sets = sets
	c.lineShift = uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	c.setMask = uint32(sets - 1)
	c.Reset()
	return nil
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineShift returns log2(line size).
func (c *Cache) LineShift() uint { return c.lineShift }

// lookup probes for the line containing addr, updating LRU on hit.
func (c *Cache) lookup(addr uint32, write bool) bool {
	c.Stats.Accesses++
	c.stamp++
	set := (addr >> c.lineShift) & c.setMask
	tag := addr >> c.lineShift
	base := int(set) * c.cfg.Ways
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			c.lines[i].lru = c.stamp
			if write {
				c.lines[i].dirty = true
			}
			if c.lines[i].pfetch {
				c.lines[i].pfetch = false
				c.Stats.PrefetchHits++
			}
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// fill inserts the line containing addr, evicting LRU. It reports whether a
// dirty line was written back.
func (c *Cache) fill(addr uint32, write bool) (writeback bool, victimAddr uint32) {
	c.stamp++
	set := (addr >> c.lineShift) & c.setMask
	tag := addr >> c.lineShift
	base := int(set) * c.cfg.Ways
	victim := base
	for i := base; i < base+c.cfg.Ways; i++ {
		if !c.lines[i].valid {
			victim = i
			break
		}
		if c.lines[i].lru < c.lines[victim].lru {
			victim = i
		}
	}
	line := &c.lines[victim]
	if line.valid && line.dirty {
		writeback = true
		victimAddr = (line.tag << c.lineShift)
		c.Stats.Writebacks++
	}
	*line = cacheLine{tag: tag, valid: true, dirty: write, lru: c.stamp}
	return writeback, victimAddr
}

// prefetchFill inserts addr's line as a clean, prefetched-but-unused line
// and reports whether it did. It is deliberately weaker than a demand fill:
// an already-present line is left untouched, and a set whose LRU victim is
// dirty drops the prefetch instead of evicting — a tag-only speculative
// fill never generates writeback traffic (the modeling choice DESIGN.md's
// "Memory axes" section records). Counted in Stats.PrefetchIssued, not in
// Accesses/Hits/Misses.
func (c *Cache) prefetchFill(addr uint32) bool {
	set := (addr >> c.lineShift) & c.setMask
	tag := addr >> c.lineShift
	base := int(set) * c.cfg.Ways
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			return false
		}
	}
	victim := base
	for i := base; i < base+c.cfg.Ways; i++ {
		if !c.lines[i].valid {
			victim = i
			break
		}
		if c.lines[i].lru < c.lines[victim].lru {
			victim = i
		}
	}
	if c.lines[victim].valid && c.lines[victim].dirty {
		return false
	}
	c.stamp++
	c.lines[victim] = cacheLine{tag: tag, valid: true, pfetch: true, lru: c.stamp}
	c.Stats.PrefetchIssued++
	return true
}

// Contains reports (without LRU side effects) whether addr's line is cached.
func (c *Cache) Contains(addr uint32) bool {
	set := (addr >> c.lineShift) & c.setMask
	tag := addr >> c.lineShift
	base := int(set) * c.cfg.Ways
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.lines[i].valid && c.lines[i].tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates every line (statistics are preserved).
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
}

// Reset restores the cache to its freshly constructed state: lines
// invalidated, the LRU stamp rewound and statistics zeroed, so a pooled
// device replays LRU decisions byte-identically to a new one.
func (c *Cache) Reset() {
	c.Flush()
	c.stamp = 0
	c.Stats = CacheStats{}
}
