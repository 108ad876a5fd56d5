package cache

import (
	"crypto/sha256"
	"math"
	"testing"
)

// eagerLLC is the reference pollution model: a cache without lazy
// pollution whose Pollute zeroes every n-th tag slot on the spot,
// starting at the call count mod n. The LLC's lazy Pollute must be
// indistinguishable from it.
type eagerLLC struct {
	*LLC
	n, calls uint64
}

func newEagerLLC(totalBytes, ways int, n uint64) *eagerLLC {
	return &eagerLLC{LLC: NewLLC(totalBytes, ways, 0), n: n}
}

func (e *eagerLLC) Pollute() {
	if e.n == 0 {
		return
	}
	e.last = 0
	slots := uint64(len(e.tags))
	for i := e.calls % e.n; i < slots; i += e.n {
		e.tags[i] = 0
		if e.n >= slots-i {
			break
		}
	}
	e.calls++
}

func (e *eagerLLC) CopyFrom(src *eagerLLC) {
	e.LLC.CopyFrom(src.LLC)
	e.calls = src.calls
}

// settle applies every set's pending pollution.
func (c *LLC) settle() {
	for s, m := range c.meta {
		if m.due < c.calls {
			c.sync(s)
		}
	}
}

func llcHash(c *LLC) [32]byte {
	h := sha256.New()
	c.Hash(h)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// pollutionWays, pollutionDenoms and pollutionSets span the cases the
// position arithmetic distinguishes: one way; ways that do and do not
// divide n; n below ways, where one call clears several ways of a set;
// n beyond the slot count, where most calls reach no set (0 stands
// for "slots + 13"), up to n whose due calls overflow the counter.
var (
	pollutionWays   = []int{1, 3, 12, 16, 255}
	pollutionDenoms = []uint64{1, 7, 16, 256, 1000, 0, math.MaxUint64}
	pollutionSets   = []int{1, 8, 32}
)

// checkPollution runs the op stream ops against a lazy LLC and the
// eager reference of the same geometry. Every op's result and the
// statistics must agree after each op; at intervals, and at the end,
// a copy of the lazy cache with all pending clears applied must hold
// exactly the reference's tags. A Flush must leave no set owing
// pollution. A CopyFrom op continues on a fresh copy; the cache it
// copied from must never change again.
func checkPollution(t *testing.T, sets, ways int, n uint64, ops []byte) {
	t.Helper()
	size := sets * ways * 64
	if n == 0 {
		n = uint64(sets*ways) + 13
	}
	lazy := NewLLC(size, ways, n)
	eager := newEagerLLC(size, ways, n)
	if lazy.Sets() != sets {
		t.Fatalf("built %d sets, want %d", lazy.Sets(), sets)
	}
	lines := uint64(3 * sets * ways) // working set: 1.5x capacity
	type frozen struct {
		c   *LLC
		sum [32]byte
	}
	var sources []frozen
	compare := func(step int) {
		t.Helper()
		probe := NewLLC(size, ways, n)
		probe.CopyFrom(lazy)
		probe.settle()
		for i := range probe.tags {
			if probe.tags[i] != eager.tags[i] {
				t.Fatalf("%dx%d n=%d step %d: tags[%d] = %d, eager %d", sets, ways, n, step, i, probe.tags[i], eager.tags[i])
			}
		}
		for s, m := range probe.meta {
			if e := eager.meta[s]; m.next != e.next || m.mru != e.mru {
				t.Fatalf("%dx%d n=%d step %d: set %d next/mru %d/%d, eager %d/%d",
					sets, ways, n, step, s, m.next, m.mru, e.next, e.mru)
			}
		}
		if lazy.calls != eager.calls {
			t.Fatalf("%dx%d n=%d step %d: %d calls, eager %d", sets, ways, n, step, lazy.calls, eager.calls)
		}
	}
	for step := 0; len(ops) >= 3; step++ {
		op, a, b := ops[0], uint64(ops[1]), uint64(ops[2])
		ops = ops[3:]
		line := (a<<8 | b) % lines
		switch {
		case op < 110:
			if got, want := lazy.Access(line), eager.Access(line); got != want {
				t.Fatalf("%dx%d n=%d step %d: Access(%d) = %v, eager %v", sets, ways, n, step, line, got, want)
			}
		case op < 160:
			run := b % 130
			gh, gm := lazy.AccessRun(line, run)
			wh, wm := eager.AccessRun(line, run)
			if gh != wh || gm != wm {
				t.Fatalf("%dx%d n=%d step %d: AccessRun(%d, %d) = %d/%d, eager %d/%d", sets, ways, n, step, line, run, gh, gm, wh, wm)
			}
		case op < 185:
			lazy.InvalidateRange(line, b%130)
			eager.InvalidateRange(line, b%130)
		case op < 240:
			calls := 1 + a%4
			if op >= 235 { // a long burst: pending counts pass the block size
				calls = 1 + a*4
			}
			for ; calls > 0; calls-- {
				lazy.Pollute()
				eager.Pollute()
			}
		case op < 245:
			lazy.Flush()
			eager.Flush()
			for s, m := range lazy.meta {
				if m.due < lazy.calls {
					t.Fatalf("%dx%d n=%d step %d: set %d still owes pollution after Flush", sets, ways, n, step, s)
				}
			}
		default:
			sources = append(sources, frozen{lazy, llcHash(lazy)})
			c := NewLLC(size, ways, n)
			c.CopyFrom(lazy)
			lazy = c
			e := newEagerLLC(size, ways, n)
			e.CopyFrom(eager)
			eager = e
		}
		if lazy.last != eager.last {
			t.Fatalf("%dx%d n=%d step %d: last = %d, eager %d", sets, ways, n, step, lazy.last, eager.last)
		}
		gh, gm := lazy.Stats()
		wh, wm := eager.Stats()
		if gh != wh || gm != wm {
			t.Fatalf("%dx%d n=%d step %d: stats %d/%d, eager %d/%d", sets, ways, n, step, gh, gm, wh, wm)
		}
		if step%32 == 0 {
			compare(step)
		}
	}
	compare(-1)
	for i, f := range sources {
		if llcHash(f.c) != f.sum {
			t.Fatalf("%dx%d n=%d: copy source %d changed after CopyFrom", sets, ways, n, i)
		}
	}
}

// TestPollutionMatchesEager drives the lazy LLC and the eager
// reference with the same random interleaving of accesses, runs,
// invalidations, pollution, flushes and copies, across every
// geometry the representation distinguishes.
func TestPollutionMatchesEager(t *testing.T) {
	steps := 2000
	if testing.Short() {
		steps = 500
	}
	rng := uint64(0x9e3779b97f4a7c15)
	for _, sets := range pollutionSets {
		for _, ways := range pollutionWays {
			for _, n := range pollutionDenoms {
				ops := make([]byte, 3*steps)
				for i := range ops {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					ops[i] = byte(rng >> 56)
				}
				checkPollution(t, sets, ways, n, ops)
			}
		}
	}
}

// TestPollutionDisabled: with n = 0 Pollute is a no-op that does not
// even drop the repeat-line shortcut.
func TestPollutionDisabled(t *testing.T) {
	c := NewLLC(64*1024, 8, 0)
	c.Access(7)
	c.Pollute()
	if c.last != 8 {
		t.Errorf("last = %d after disabled Pollute, want 8", c.last)
	}
	if !c.Access(7) {
		t.Error("disabled Pollute dropped a line")
	}
}

// FuzzLLCPollution decodes its input into a geometry (first byte: set
// count and ways; second byte: pollution stride) and an op stream, and
// checks it against the eager reference as TestPollutionMatchesEager
// does.
func FuzzLLCPollution(f *testing.F) {
	f.Add([]byte{3, 3, 0, 0, 1, 200, 0, 0, 0, 0, 1, 240, 9, 0, 250, 0, 0, 120, 0, 5})
	f.Add([]byte{14, 1, 0, 1, 2, 236, 70, 0, 0, 1, 2, 170, 0, 9, 246, 0, 0, 246, 0, 0})
	f.Add([]byte{10, 6, 200, 0, 40, 0, 0, 2, 237, 255, 0, 130, 0, 2, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := int(data[0])
		sets := pollutionSets[g/len(pollutionWays)%len(pollutionSets)]
		ways := pollutionWays[g%len(pollutionWays)]
		n := pollutionDenoms[int(data[1])%len(pollutionDenoms)]
		checkPollution(t, sets, ways, n, data[2:])
	})
}
