// Package cache implements the set-associative last-level cache model
// of the simulated machine.
//
// The model tracks tags only (data lives in the page frames); its job
// is to classify each memory access as an LLC hit or miss so the cycle
// model can charge DRAM latency — and, for EPC-resident lines, the
// additional MEE encryption/decryption latency (paper §2.2: "data is
// decrypted when brought in to the LLC upon a CPU request").
package cache

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"
)

// LLC is a set-associative cache of line tags with round-robin
// replacement within a set. It is not safe for concurrent use; the
// machine serializes simulated threads.
//
// Pollute models the cache pollution of one enclave transition: call
// k invalidates every tag slot i with i ≡ k (mod n), n fixed when the
// cache is built. The call only counts itself; a set applies the
// clears it owes before Access or AccessRun next reads its tags (see
// sync). Replacement
// is round-robin, never "prefer an invalid slot", and pollution moves
// no replacement pointer, hint or statistic, so applying a clear late
// — but before the set is next read — changes no hit, miss or victim.
//
// Call k reaches set s at position j = (k − s·ways) mod n: it clears
// ways j, j+n, j+2n, ... below ways, and none when j ≥ span =
// min(ways, n). Successive calls advance j by one. Each set records
// due, the first call since its last sync that reaches it, and that
// call's position; the set owes pollution exactly while due is below
// the call count.
type LLC struct {
	sets    int
	ways    int
	setMask uint64
	setBits uint
	// tags holds, per slot, the line's set-relative tag (line with the
	// set-index bits shifted out) biased by 1; 0 means invalid. Within
	// a set that remainder identifies the line uniquely, and 32 bits
	// cover any simulated address below 2^(38+log2 sets) bytes — far
	// beyond the simulator's address space. Packing 16 ways into one
	// 64-byte cache line keeps the way scan to a single real memory
	// touch.
	tags []uint32 // sets*ways entries; 0 means invalid
	// meta holds each set's replacement pointer, lookup hint and
	// pollution bookkeeping, packed so one load serves a lookup.
	meta []setMeta
	// last is the biased tag (line+1) of the most recent Access, or 0.
	// A repeat of the same line with no intervening Access is always a
	// hit — hits never move tags, and the previous Access left the
	// line installed — so it skips the way scan. Any bulk invalidation
	// clears it.
	last   uint64
	hits   uint64
	misses uint64

	// Pollution state; see the type comment. n is the pollution
	// stride (0 disables pollution), calls the number of Pollute calls
	// so far and span = min(ways, n).
	n     uint64
	calls uint64
	span  uint64
}

// setMeta is one set's state besides its tags.
type setMeta struct {
	// due is the first Pollute call since the set's last sync that
	// reaches it (math.MaxUint64 for none), and pos that call's
	// position: the set owes pollution while due < calls.
	due uint64
	pos uint8
	// next is the round-robin victim. mru is the way of the most
	// recent hit or install, probed before the way scan: a pure
	// lookup-order hint (like the `last` shortcut) that never changes
	// what Access returns or which victim a miss picks.
	next, mru uint8
}

// NewLLC builds a cache of totalBytes capacity with the given
// associativity and 64-byte lines, whose Pollute displaces every
// pollutionDenom-th line slot (0 disables pollution). totalBytes is
// rounded down to a power-of-two set count; the resulting geometry is
// available through Sets and Ways. It panics if the geometry is
// degenerate.
func NewLLC(totalBytes int, ways int, pollutionDenom uint64) *LLC {
	if ways <= 0 || ways > 255 {
		panic(fmt.Sprintf("cache: invalid ways %d", ways))
	}
	lines := totalBytes / 64
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	setBits := uint(0)
	for 1<<setBits < sets {
		setBits++
	}
	c := &LLC{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		setBits: setBits,
		tags:    make([]uint32, sets*ways),
		meta:    make([]setMeta, sets),
		n:       pollutionDenom,
	}
	c.span = min(uint64(ways), pollutionDenom)
	for s := range c.meta {
		m := &c.meta[s]
		m.due = math.MaxUint64 // no pollution
		if n := pollutionDenom; n > 0 {
			r := uint64(s) * uint64(ways) % n
			c.setDue(m, 0, (n-r)%n) // call 0 reaches position (0 − r) mod n
		}
	}
	return c
}

// CopyFrom makes c's tags, replacement pointers, lookup hints,
// statistics and pending pollution an exact copy of src's. Both caches
// must have the same geometry and pollution stride; src is only read.
func (c *LLC) CopyFrom(src *LLC) {
	if c.sets != src.sets || c.ways != src.ways || c.n != src.n {
		panic(fmt.Sprintf("cache: CopyFrom across geometries (%dx%d/%d from %dx%d/%d)",
			c.sets, c.ways, c.n, src.sets, src.ways, src.n))
	}
	copy(c.tags, src.tags)
	copy(c.meta, src.meta)
	c.last, c.hits, c.misses = src.last, src.hits, src.misses
	c.calls = src.calls
}

// Sets returns the number of sets.
func (c *LLC) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *LLC) Ways() int { return c.ways }

// SizeBytes returns the modeled capacity in bytes.
func (c *LLC) SizeBytes() int { return c.sets * c.ways * 64 }

// Access looks up the cache line containing lineAddr (a line number,
// i.e. byte address / 64) and returns true on a hit. On a miss the
// line is installed, evicting the round-robin victim of its set.
func (c *LLC) Access(line uint64) bool {
	// Tag 0 marks an invalid slot, so bias stored tags by 1.
	tag := line + 1
	if tag == c.last {
		c.hits++
		return true
	}
	c.last = tag
	set := int(line & c.setMask)
	m := &c.meta[set]
	if m.due < c.calls {
		c.sync(set)
	}
	base := set * c.ways
	st := uint32(line>>c.setBits) + 1
	w := c.tags[base : base+c.ways]
	if w[m.mru] == st {
		c.hits++
		return true
	}
	for i, t := range w {
		if t == st {
			c.hits++
			m.mru = uint8(i)
			return true
		}
	}
	c.misses++
	v := int(m.next)
	w[v] = st
	nv := v + 1
	if nv == c.ways {
		nv = 0
	}
	m.next = uint8(nv)
	m.mru = uint8(v)
	return false
}

// NoteStreakHits records n hits that the caller proved without a
// lookup: immediate repeats of the most recently accessed line. Such
// repeats always take the `last` shortcut in Access — a hit that
// reads no tags and moves no state — so batching them into one
// counter add leaves the cache's state and statistics exactly as n
// Access calls would have.
func (c *LLC) NoteStreakHits(n uint64) { c.hits += n }

// AccessRun performs Access on n consecutive lines starting at line
// and returns how many hit and how many missed. It is the bulk
// equivalent of calling Access in a loop and leaves identical cache
// state and statistics; the machine's fast path uses it to charge a
// whole intra-page run of lines in one call.
//
// The body is Access unrolled across the run with the bookkeeping
// kept in locals: only the first line can take the `last` shortcut
// (consecutive lines never repeat), and the final `last` is the run's
// last line — exactly what n sequential Access calls leave behind.
func (c *LLC) AccessRun(line uint64, n uint64) (hits, misses uint64) {
	if n == 0 {
		return 0, 0
	}
	i := uint64(0)
	if line+1 == c.last {
		hits++
		i++
	}
	for ; i < n; i++ {
		ln := line + i
		set := int(ln & c.setMask)
		m := &c.meta[set]
		if m.due < c.calls {
			c.sync(set)
		}
		base := set * c.ways
		st := uint32(ln>>c.setBits) + 1
		w := c.tags[base : base+c.ways]
		if w[m.mru] == st {
			hits++
			continue
		}
		found := false
		for k, t := range w {
			if t == st {
				m.mru = uint8(k)
				hits++
				found = true
				break
			}
		}
		if found {
			continue
		}
		misses++
		v := int(m.next)
		w[v] = st
		nv := v + 1
		if nv == c.ways {
			nv = 0
		}
		m.next = uint8(nv)
		m.mru = uint8(v)
	}
	c.last = line + n // biased tag of the run's final line
	c.hits += hits
	c.misses += misses
	return hits, misses
}

// InvalidateRange removes n consecutive lines starting at line from
// the cache (used when an EPC page is encrypted out to DRAM).
//
// It leaves a set's pending pollution pending: a set's tags are unique
// even in slots it owes (lines install only after a sync), so zeroing
// the line's slot now and that set's owed slots later ends in the
// state the other order gives.
func (c *LLC) InvalidateRange(line uint64, n uint64) {
	c.last = 0
	for i := uint64(0); i < n; i++ {
		ln := line + i
		st := uint32(ln>>c.setBits) + 1
		base := int(ln&c.setMask) * c.ways
		w := c.tags[base : base+c.ways]
		for k, t := range w {
			if t == st {
				w[k] = 0
				break
			}
		}
	}
}

// Pollute records one enclave transition's cache pollution: the
// kernel/microcode path displaces every n-th line slot, spread across
// sets, starting at a slot that advances by one per call so repeated
// transitions do not always spare the same slots. It costs one
// counter increment, whatever the size of the cache.
func (c *LLC) Pollute() {
	if c.n == 0 {
		return
	}
	c.last = 0
	c.calls++
}

// setDue records in m the first call k ≥ from that reaches the set,
// given from's position j, or math.MaxUint64 if there is none before
// the counter would wrap.
func (c *LLC) setDue(m *setMeta, from, j uint64) {
	if j < c.span {
		m.due, m.pos = from, uint8(j)
		return
	}
	m.pos = 0 // the next call at position 0
	if gap := c.n - j; gap <= math.MaxUint64-from {
		m.due = from + gap
	} else {
		m.due = math.MaxUint64
	}
}

// sync applies the pollution set owes. The d calls since its due call
// reached positions j0, j0+1, ... mod n, where j0 < span is the due
// call's position: with d ≥ n that is every position, so the whole
// set goes; otherwise positions j0 up to span, and after the wrap at
// n the positions from 0 the remaining calls reach. The current call
// count then sits at position j0 + d mod n.
func (c *LLC) sync(set int) {
	m := &c.meta[set]
	n, d, j0 := c.n, c.calls-m.due, uint64(m.pos)
	w := c.tags[set*c.ways : set*c.ways+c.ways]
	if d >= n {
		clear(w)
		d %= n
	} else {
		clearPositions(w, j0, min(j0+d, c.span), n)
		if d > n-j0 {
			clearPositions(w, 0, d-(n-j0), n)
		}
	}
	j := j0 + d
	if j0 >= n-d {
		j = j0 - (n - d)
	}
	c.setDue(m, c.calls, j)
}

// clearPositions invalidates the ways at positions [from, to) of a
// set polluted with stride n: ways j, j+n, j+2n, ... for each j.
func clearPositions(w []uint32, from, to, n uint64) {
	ways := uint64(len(w))
	stride := min(n, ways) // any stride ≥ ways visits one way per position
	for j := from; j < to; j++ {
		for k := j; k < ways; k += stride {
			w[k] = 0
		}
	}
}

// Flush invalidates the entire cache. No pollution stays pending; the
// pollution call count runs on.
func (c *LLC) Flush() {
	c.last = 0
	for s := range c.meta {
		if c.meta[s].due < c.calls {
			c.sync(s)
		}
		c.meta[s].next = 0
	}
	clear(c.tags)
}

// Hash writes the cache's full state — geometry, tags, replacement
// pointers, lookup hints, statistics and pending pollution — to h.
// Pending clears are hashed as recorded, not applied, so hashing only
// reads.
func (c *LLC) Hash(h hash.Hash) {
	var b []byte
	for _, v := range []uint64{uint64(c.sets), uint64(c.ways), c.n, c.calls, c.last, c.hits, c.misses} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	for _, t := range c.tags {
		b = binary.LittleEndian.AppendUint32(b, t)
	}
	for _, m := range c.meta {
		b = binary.LittleEndian.AppendUint64(b, m.due)
		b = append(b, m.pos, m.next, m.mru)
	}
	h.Write(b)
}

// Stats returns cumulative hits and misses since construction.
func (c *LLC) Stats() (hits, misses uint64) { return c.hits, c.misses }
