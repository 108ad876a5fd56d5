package cache

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := NewLLC(64*1024, 16, 0)
	if c.Ways() != 16 {
		t.Errorf("ways = %d", c.Ways())
	}
	if c.SizeBytes() > 64*1024 || c.SizeBytes() < 32*1024 {
		t.Errorf("size = %d, want close to 64K", c.SizeBytes())
	}
	if s := c.Sets(); s&(s-1) != 0 {
		t.Errorf("sets = %d is not a power of two", s)
	}
}

func TestInvalidWaysPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLLC(_, 0, 0) did not panic")
		}
	}()
	NewLLC(1024, 0, 0)
}

func TestMissThenHit(t *testing.T) {
	c := NewLLC(64*1024, 8, 0)
	if c.Access(12345) {
		t.Fatal("first access hit")
	}
	if !c.Access(12345) {
		t.Fatal("second access missed")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1/1", hits, misses)
	}
}

func TestSetConflictEviction(t *testing.T) {
	c := NewLLC(8*64, 2, 0) // 4 sets x 2 ways
	sets := uint64(c.Sets())
	// Fill one set beyond capacity: lines 0, sets, 2*sets... map to
	// set 0.
	c.Access(0)
	c.Access(sets)
	c.Access(2 * sets) // evicts line 0 (round robin)
	if c.Access(0) {
		t.Error("evicted line still hit")
	}
}

func TestFlush(t *testing.T) {
	c := NewLLC(64*1024, 8, 0)
	for i := uint64(0); i < 100; i++ {
		c.Access(i)
	}
	c.Flush()
	if c.Access(5) {
		t.Error("hit after flush")
	}
}

func TestInvalidateRange(t *testing.T) {
	c := NewLLC(64*1024, 8, 0)
	for i := uint64(0); i < 64; i++ {
		c.Access(1000 + i)
	}
	c.InvalidateRange(1000, 64)
	for i := uint64(0); i < 64; i++ {
		if c.Access(1000 + i) {
			t.Fatalf("line %d survived InvalidateRange", 1000+i)
		}
	}
}

func TestInvalidateRangeLeavesOthers(t *testing.T) {
	c := NewLLC(64*1024, 8, 0)
	c.Access(1)
	c.Access(100000)
	c.InvalidateRange(100000, 1)
	if !c.Access(1) {
		t.Error("unrelated line was invalidated")
	}
}

// TestAccessRunMatchesAccessLoop drives two identical caches with a
// random interleaving of runs — one through AccessRun, the other
// through the equivalent Access loop — and demands identical hit and
// miss counts per run plus identical full state (tags, round-robin
// pointers, `last` shortcut) throughout. AccessRun's contract is
// exactly "Access in a loop"; this pins it against the bulk path's
// unrolled internals.
func TestAccessRunMatchesAccessLoop(t *testing.T) {
	a := NewLLC(16*1024, 4, 0) // small: plenty of conflict evictions
	b := NewLLC(16*1024, 4, 0)
	rng := uint64(0x1234abcd)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for step := 0; step < 20000; step++ {
		line := next(4 * uint64(a.Sets()))
		n := next(130) // runs up to two pages of lines, incl. n == 0
		gh, gm := a.AccessRun(line, n)
		var wh, wm uint64
		for i := uint64(0); i < n; i++ {
			if b.Access(line + i) {
				wh++
			} else {
				wm++
			}
		}
		if gh != wh || gm != wm {
			t.Fatalf("step %d: AccessRun(%d, %d) = %d hits %d misses, Access loop %d/%d",
				step, line, n, gh, gm, wh, wm)
		}
		if a.last != b.last {
			t.Fatalf("step %d: last = %d want %d", step, a.last, b.last)
		}
		ah, am := a.Stats()
		bh, bm := b.Stats()
		if ah != bh || am != bm {
			t.Fatalf("step %d: stats %d/%d want %d/%d", step, ah, am, bh, bm)
		}
		for i := range a.tags {
			if a.tags[i] != b.tags[i] {
				t.Fatalf("step %d: tags[%d] = %d want %d", step, i, a.tags[i], b.tags[i])
			}
		}
		for i := range a.meta {
			if a.meta[i] != b.meta[i] {
				t.Fatalf("step %d: set %d state %+v want %+v", step, i, a.meta[i], b.meta[i])
			}
		}
	}
}

func TestRepeatedAccessAlwaysHitsProperty(t *testing.T) {
	c := NewLLC(256*1024, 16, 0)
	f := func(line uint64) bool {
		c.Access(line)
		return c.Access(line) // immediate re-access must hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetWithinCapacityHits(t *testing.T) {
	c := NewLLC(64*1024, 8, 0)
	lines := uint64(c.Sets()) // one line per set: no conflicts
	for pass := 0; pass < 3; pass++ {
		miss := 0
		for i := uint64(0); i < lines; i++ {
			if !c.Access(i) {
				miss++
			}
		}
		if pass > 0 && miss != 0 {
			t.Fatalf("pass %d: %d misses for conflict-free working set", pass, miss)
		}
	}
}
