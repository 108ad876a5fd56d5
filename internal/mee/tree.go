// Integrity tree: an optional Merkle tree over evicted-page MACs,
// modelling the hardware integrity structures the paper's §2.2
// discusses (and that VAULT [Taassori et al., ASPLOS'18] — cited by
// the paper — redesigns to reduce paging overheads).
//
// With the flat scheme, each sealed page carries an independent MAC
// and a version in trusted metadata. With the tree enabled, the MACs
// are additionally hashed into a binary Merkle tree whose root is held
// in trusted storage: sealing updates a leaf-to-root path, unsealing
// verifies one. The simulator charges a configurable cost per
// non-cached tree level, so enabling the tree makes EWB/ELDU visibly
// more expensive — exactly the overhead VAULT attacks by reducing the
// tree's height.

package mee

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"sgxgauge/internal/mem"
)

// ErrTreeMismatch indicates a Merkle path failed verification: some
// node of the tree (kept in untrusted memory, save for the root) was
// tampered with.
var ErrTreeMismatch = errors.New("mee: integrity-tree verification failed")

// IntegrityTree is a binary Merkle tree over page MACs. Leaves are
// assigned to pages on first eviction. The root and the top
// CachedLevels levels are modeled as residing in trusted/on-die
// storage (no per-access charge); deeper levels live in untrusted
// memory and cost one memory access each to touch.
type IntegrityTree struct {
	// CachedLevels is how many levels from the root are held on-die.
	CachedLevels int

	levels [][]uint64 // levels[0] = leaves ... levels[depth-1] = root level
	leafOf map[mem.PageID]int
	depth  int
	cap    int
}

// NewIntegrityTree builds a tree with capacity for at least capPages
// leaves (rounded up to a power of two) and the given number of
// cached top levels.
func NewIntegrityTree(capPages, cachedLevels int) *IntegrityTree {
	if capPages < 2 {
		capPages = 2
	}
	n := 1
	for n < capPages {
		n *= 2
	}
	t := &IntegrityTree{
		CachedLevels: cachedLevels,
		leafOf:       make(map[mem.PageID]int),
		cap:          n,
	}
	for w := n; w >= 1; w /= 2 {
		t.levels = append(t.levels, make([]uint64, w))
	}
	t.depth = len(t.levels)
	// Initialize internal nodes over the all-zero leaves so fresh
	// paths verify.
	for lvl := 1; lvl < t.depth; lvl++ {
		for i := range t.levels[lvl] {
			t.levels[lvl][i] = nodeHash(t.levels[lvl-1][2*i], t.levels[lvl-1][2*i+1])
		}
	}
	return t
}

// Clone returns an independent copy of the tree: node values, leaf
// assignments and geometry.
func (t *IntegrityTree) Clone() *IntegrityTree {
	c := *t
	c.levels = make([][]uint64, len(t.levels))
	for i, lvl := range t.levels {
		c.levels[i] = slices.Clone(lvl)
	}
	c.leafOf = maps.Clone(t.leafOf)
	return &c
}

// Depth returns the number of tree levels (leaves included).
func (t *IntegrityTree) Depth() int { return t.depth }

// Capacity returns the number of leaves.
func (t *IntegrityTree) Capacity() int { return t.cap }

// UncachedLevels returns how many levels of a path must be fetched
// from untrusted memory (the per-operation traffic the tree adds).
func (t *IntegrityTree) UncachedLevels() int {
	u := t.depth - t.CachedLevels
	if u < 0 {
		return 0
	}
	return u
}

func nodeHash(a, b uint64) uint64 {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], a)
	binary.LittleEndian.PutUint64(buf[8:], b)
	s := sha256.Sum256(buf[:])
	return binary.LittleEndian.Uint64(s[:8])
}

func macLeaf(mac [16]byte) uint64 {
	// Fold the page MAC into the 8-byte leaf, never zero (zero marks
	// an unassigned leaf).
	v := binary.LittleEndian.Uint64(mac[:8])
	if v == 0 {
		v = 1
	}
	return v
}

// leaf assigns (or returns) the leaf index for a page.
func (t *IntegrityTree) leaf(id mem.PageID) (int, error) {
	if i, ok := t.leafOf[id]; ok {
		return i, nil
	}
	i := len(t.leafOf)
	if i >= t.cap {
		return 0, fmt.Errorf("mee: integrity tree full (%d leaves)", t.cap)
	}
	t.leafOf[id] = i
	return i, nil
}

// Update records the MAC of a freshly sealed page, rewriting its
// leaf-to-root path.
func (t *IntegrityTree) Update(id mem.PageID, mac [16]byte) error {
	i, err := t.leaf(id)
	if err != nil {
		return err
	}
	t.levels[0][i] = macLeaf(mac)
	for lvl := 1; lvl < t.depth; lvl++ {
		i /= 2
		t.levels[lvl][i] = nodeHash(t.levels[lvl-1][2*i], t.levels[lvl-1][2*i+1])
	}
	return nil
}

// Verify checks a sealed page's MAC against the tree: the leaf must
// match and the path to the root must be consistent.
func (t *IntegrityTree) Verify(id mem.PageID, mac [16]byte) error {
	i, ok := t.leafOf[id]
	if !ok {
		return fmt.Errorf("mee: page %v has no integrity-tree leaf", id)
	}
	if t.levels[0][i] != macLeaf(mac) {
		return ErrTreeMismatch
	}
	for lvl := 1; lvl < t.depth; lvl++ {
		i /= 2
		if t.levels[lvl][i] != nodeHash(t.levels[lvl-1][2*i], t.levels[lvl-1][2*i+1]) {
			return ErrTreeMismatch
		}
	}
	return nil
}

// CorruptNode flips a bit in an internal node (test hook standing in
// for an untrusted-memory attack on the tree itself).
func (t *IntegrityTree) CorruptNode(level, index int) {
	t.levels[level][index] ^= 1
}
