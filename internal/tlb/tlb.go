// Package tlb implements the data-TLB model of the simulated machine.
//
// SGX flushes the TLB on every enclave transition (ECALL, OCALL return
// path, AEX) "due to security concerns", and refills entries through
// page walks that additionally verify the EPCM for EPC pages (paper
// §2.3, Figure 1). The dTLB model makes those flushes and refills
// observable: the dTLB-miss and walk-cycle explosions in the paper's
// Figures 2, 5 and 8 are emergent behaviour of this component.
package tlb

// Each slot carries the flush epoch it was filled in, and each set's
// round-robin pointer the epoch it was set in, so Flush — which runs
// on every simulated enclave transition — is a counter bump whatever
// the TLB's size: a slot whose epoch differs from the current one is
// invalid, and a pointer from an older epoch reads as way 0. When the
// epoch counter wraps, the arrays are cleared eagerly once so entries
// surviving from 2^32 flushes ago can never false-hit.

// DTLB is a set-associative translation lookaside buffer over virtual
// page numbers, with round-robin replacement within a set. It is not
// safe for concurrent use; each simulated hardware thread owns one.
type DTLB struct {
	sets    int
	ways    int
	setMask uint64
	// tags holds vpn+1 per slot so the zero value is never a live
	// entry; a slot is valid iff tags[i] != 0 and epochs[i] == epoch.
	tags   []uint64
	epochs []uint32
	// next holds each set's round-robin victim as epoch<<32 | way.
	next    []uint64
	epoch   uint32
	flushes uint64
}

// New builds a TLB with the given number of entries and associativity.
// sets must be a power of two for the index mask, so entries is
// rounded up to the next power-of-two set count — a configured
// geometry never models a *smaller* TLB than asked for.
func New(entries, ways int) *DTLB {
	if ways < 1 {
		ways = 1
	}
	sets := (entries + ways - 1) / ways
	if sets < 1 {
		sets = 1
	}
	p := 1
	for p < sets {
		p *= 2
	}
	sets = p
	return &DTLB{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*ways),
		epochs:  make([]uint32, sets*ways),
		next:    make([]uint64, sets),
	}
}

// CopyFrom makes t's entries, flush epoch, replacement pointers and
// flush count an exact copy of src's. Both TLBs must have the same
// geometry; src is only read.
func (t *DTLB) CopyFrom(src *DTLB) {
	if t.sets != src.sets || t.ways != src.ways {
		panic("tlb: CopyFrom across geometries")
	}
	copy(t.tags, src.tags)
	copy(t.epochs, src.epochs)
	copy(t.next, src.next)
	t.epoch, t.flushes = src.epoch, src.flushes
}

// Entries returns the total number of TLB entries modeled.
func (t *DTLB) Entries() int { return t.sets * t.ways }

// Lookup reports whether the translation for virtual page number vpn
// is present. It does not modify the TLB.
func (t *DTLB) Lookup(vpn uint64) bool {
	tag := vpn + 1
	base := int(vpn&t.setMask) * t.ways
	for i := base; i < base+t.ways; i++ {
		if t.tags[i] == tag && t.epochs[i] == t.epoch {
			return true
		}
	}
	return false
}

// Insert installs the translation for vpn, evicting the round-robin
// victim of its set. When a still-valid entry is displaced, Insert
// returns its vpn and true, so callers holding derived state about
// cached translations (the machine's page memos) can invalidate it.
func (t *DTLB) Insert(vpn uint64) (victim uint64, evicted bool) {
	tag := vpn + 1
	set := int(vpn & t.setMask)
	base := set * t.ways
	for i := base; i < base+t.ways; i++ {
		if t.tags[i] == tag && t.epochs[i] == t.epoch {
			return 0, false
		}
	}
	v := 0
	if p := t.next[set]; uint32(p>>32) == t.epoch {
		v = int(uint32(p)) % t.ways // guard against ways beyond the index range
	}
	if old := t.tags[base+v]; old != 0 && t.epochs[base+v] == t.epoch {
		victim, evicted = old-1, true
	}
	t.tags[base+v] = tag
	t.epochs[base+v] = t.epoch
	t.next[set] = uint64(t.epoch)<<32 | uint64((v+1)%t.ways)
	return victim, evicted
}

// Evict removes the translation for vpn if present (used when a page
// is paged out of the EPC).
func (t *DTLB) Evict(vpn uint64) {
	tag := vpn + 1
	base := int(vpn&t.setMask) * t.ways
	for i := base; i < base+t.ways; i++ {
		if t.tags[i] == tag && t.epochs[i] == t.epoch {
			t.tags[i] = 0
			return
		}
	}
}

// Flush invalidates every entry and restarts every set's round robin
// at way 0, as happens on each enclave transition. Both are a lazy
// epoch bump.
func (t *DTLB) Flush() {
	t.epoch++
	if t.epoch == 0 { // wrapped: clear eagerly so stale epochs can't match
		clear(t.tags)
		clear(t.epochs)
		clear(t.next)
	}
	t.flushes++
}

// Flushes returns the number of Flush calls since construction.
func (t *DTLB) Flushes() uint64 { return t.flushes }
