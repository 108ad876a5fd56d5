package tlb

import (
	"testing"
	"testing/quick"
)

func TestInsertLookup(t *testing.T) {
	d := New(64, 4)
	if d.Lookup(0x123) {
		t.Fatal("empty TLB hit")
	}
	d.Insert(0x123)
	if !d.Lookup(0x123) {
		t.Fatal("inserted vpn missed")
	}
	// Lookup must not modify state for other entries.
	if d.Lookup(0x124) {
		t.Fatal("phantom entry")
	}
}

func TestDoubleInsertKeepsOneEntry(t *testing.T) {
	d := New(8, 2)
	d.Insert(5)
	d.Insert(5)
	// Filling the rest of set 5's ways must not evict vpn 5 twice:
	// inserting one conflicting vpn should leave 5 resident.
	sets := uint64(d.Entries() / 2)
	d.Insert(5 + sets)
	if !d.Lookup(5) {
		t.Error("duplicate insert consumed both ways")
	}
}

func TestEvict(t *testing.T) {
	d := New(64, 4)
	d.Insert(7)
	d.Evict(7)
	if d.Lookup(7) {
		t.Error("evicted vpn still present")
	}
	d.Evict(7) // idempotent
}

func TestFlushAndCount(t *testing.T) {
	d := New(64, 4)
	for vpn := uint64(0); vpn < 32; vpn++ {
		d.Insert(vpn)
	}
	d.Flush()
	for vpn := uint64(0); vpn < 32; vpn++ {
		if d.Lookup(vpn) {
			t.Fatalf("vpn %d survived flush", vpn)
		}
	}
	if d.Flushes() != 1 {
		t.Errorf("Flushes = %d, want 1", d.Flushes())
	}
}

func TestSetConflictRoundRobin(t *testing.T) {
	d := New(8, 2) // 4 sets x 2 ways
	sets := uint64(4)
	d.Insert(0)
	d.Insert(sets)
	d.Insert(2 * sets) // evicts vpn 0
	if d.Lookup(0) {
		t.Error("round-robin victim survived")
	}
	if !d.Lookup(sets) || !d.Lookup(2*sets) {
		t.Error("newer entries were evicted instead")
	}
}

func TestEntriesGeometry(t *testing.T) {
	// Non-power-of-two set counts round *up*: a configured geometry
	// never models a smaller TLB than asked for. 100/4 = 25 sets →
	// 32 sets x 4 ways.
	d := New(100, 4)
	if d.Entries() != 128 {
		t.Errorf("Entries = %d, want 128", d.Entries())
	}
	// The regression case from the harness default path: 48 entries
	// 4-way used to round down to 32 entries (a 33% smaller TLB than
	// configured); it must now model at least the configured reach.
	d = New(48, 4)
	if d.Entries() != 64 {
		t.Errorf("Entries = %d, want 64", d.Entries())
	}
	// Exact powers of two are untouched.
	d = New(64, 4)
	if d.Entries() != 64 {
		t.Errorf("Entries = %d, want 64", d.Entries())
	}
	d = New(0, 0) // degenerate input yields a minimal TLB
	if d.Entries() < 1 {
		t.Errorf("Entries = %d, want >= 1", d.Entries())
	}
}

func TestNeverSmallerThanConfigured(t *testing.T) {
	for _, entries := range []int{1, 7, 48, 100, 192, 1536} {
		for _, ways := range []int{1, 2, 3, 4, 7, 16} {
			d := New(entries, ways)
			if d.Entries() < entries {
				t.Errorf("New(%d, %d).Entries() = %d < configured", entries, ways, d.Entries())
			}
		}
	}
}

func TestHighAssociativityRoundRobin(t *testing.T) {
	// ways > 255 used to overflow the uint8 round-robin index. With a
	// 300-way single-set TLB, 300 inserts must all stay resident and
	// the 301st must evict exactly the oldest entry.
	const ways = 300
	d := New(ways, ways)
	sets := uint64(d.Entries() / ways)
	for i := uint64(0); i < ways; i++ {
		d.Insert(i * sets) // all land in set 0
	}
	for i := uint64(0); i < ways; i++ {
		if !d.Lookup(i * sets) {
			t.Fatalf("entry %d missing after filling %d ways", i, ways)
		}
	}
	d.Insert(ways * sets)
	if d.Lookup(0) {
		t.Error("round-robin did not evict the oldest entry")
	}
	if !d.Lookup(1*sets) || !d.Lookup(ways*sets) {
		t.Error("wrong victim chosen past the uint8 range")
	}
}

func TestFlushIsLazyButComplete(t *testing.T) {
	// Many flushes with interleaved inserts: entries from older epochs
	// must never resurface, including across the uint32 epoch wrap.
	d := New(16, 4)
	d.epoch = ^uint32(0) - 2 // force a wrap within a few flushes
	for round := uint64(0); round < 8; round++ {
		d.Insert(round)
		if !d.Lookup(round) {
			t.Fatalf("round %d: fresh insert missed", round)
		}
		d.Flush()
		for old := uint64(0); old <= round; old++ {
			if d.Lookup(old) {
				t.Fatalf("round %d: vpn %d survived flush (epoch %d)", round, old, d.epoch)
			}
		}
	}
	if d.Flushes() != 8 {
		t.Errorf("Flushes = %d, want 8", d.Flushes())
	}
}

// TestFlushRestartsRoundRobin: after a flush — including one that
// wraps the epoch back to one a set's pointer was last moved in — a
// set's first insert lands in way 0, whatever way its round robin had
// reached before.
func TestFlushRestartsRoundRobin(t *testing.T) {
	d := New(16, 4)
	sets := uint64(d.sets)
	fill := func(set uint64) { // leaves set's round robin at way 3
		for i := uint64(0); i < 3; i++ {
			d.Insert(set + i*sets)
		}
	}
	check := func(set uint64, when string) {
		t.Helper()
		vpn := set + 7*sets
		d.Insert(vpn)
		if got := d.tags[int(set)*d.ways]; got != vpn+1 {
			t.Errorf("%s: set %d's first insert missed way 0 (tags %v)", when, set, d.tags[int(set)*d.ways:][:d.ways])
		}
	}
	fill(0)
	fill(1)
	d.Flush()
	check(0, "after a flush")
	d.epoch = ^uint32(0)
	fill(0)
	d.Flush() // wraps to epoch 0, the epoch set 1's pointer was moved in
	check(0, "after the epoch wraps")
	check(1, "after the epoch wraps")
}

func TestEvictAfterFlushDoesNotTouchNewEpoch(t *testing.T) {
	// A stale same-vpn entry from before a flush must not shadow the
	// current-epoch entry when Evict runs: evicting after re-insert
	// must remove the live entry, not a dead one.
	d := New(8, 2)
	d.Insert(3)
	d.Flush()
	d.Insert(3)
	d.Evict(3)
	if d.Lookup(3) {
		t.Error("Evict removed a stale-epoch slot instead of the live entry")
	}
}

func TestInsertLookupProperty(t *testing.T) {
	d := New(512, 4)
	f := func(vpn uint64) bool {
		d.Insert(vpn)
		return d.Lookup(vpn) // insert-then-lookup always hits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
