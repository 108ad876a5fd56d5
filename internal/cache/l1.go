package cache

// L1 is an optional per-thread first-level data cache: direct-mapped
// over line numbers. When enabled (Config.L1Bytes), it filters
// repeated same-line accesses before they reach the shared LLC,
// refining the hierarchy toward the paper machine's L1/L2/L3 (Table
// 3). It is off by default: the suite's headline calibration treats
// the LLC as the only cache level.
type L1 struct {
	mask   uint64
	tags   []uint64 // 0 = invalid (tags biased by 1)
	hits   uint64
	misses uint64
}

// NewL1 builds a direct-mapped cache of totalBytes capacity with
// 64-byte lines, rounded down to a power-of-two line count.
func NewL1(totalBytes int) *L1 {
	lines := totalBytes / 64
	if lines < 1 {
		lines = 1
	}
	p := 1
	for p*2 <= lines {
		p *= 2
	}
	return &L1{mask: uint64(p - 1), tags: make([]uint64, p)}
}

// CopyFrom makes c's tags and statistics an exact copy of src's. Both
// caches must have the same size; src is only read.
func (c *L1) CopyFrom(src *L1) {
	if len(c.tags) != len(src.tags) {
		panic("cache: L1 CopyFrom across sizes")
	}
	copy(c.tags, src.tags)
	c.hits, c.misses = src.hits, src.misses
}

// Lines returns the number of line slots.
func (c *L1) Lines() int { return len(c.tags) }

// Access looks up (and on miss installs) the line, reporting a hit.
func (c *L1) Access(line uint64) bool {
	slot := line & c.mask
	tag := line + 1
	if c.tags[slot] == tag {
		c.hits++
		return true
	}
	c.misses++
	c.tags[slot] = tag
	return false
}

// NoteStreakHits records n hits the caller proved without a lookup:
// immediate repeats of a line that is present. A repeat hit reads the
// same slot and moves no state, so this leaves the cache exactly as n
// Access calls would have.
func (c *L1) NoteStreakHits(n uint64) { c.hits += n }

// InvalidateRange removes n consecutive lines starting at line.
func (c *L1) InvalidateRange(line uint64, n uint64) {
	for i := uint64(0); i < n; i++ {
		slot := (line + i) & c.mask
		if c.tags[slot] == line+i+1 {
			c.tags[slot] = 0
		}
	}
}

// Flush invalidates everything.
func (c *L1) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
	}
}

// Stats returns cumulative hits and misses.
func (c *L1) Stats() (hits, misses uint64) { return c.hits, c.misses }
