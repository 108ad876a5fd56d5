// Package mem provides the physical-memory primitives of the simulated
// machine: fixed-size page frames, a frame pool, and the untrusted
// backing store that holds pages evicted from the EPC.
package mem

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash"
	"maps"
	"slices"
	"sync"
)

// PageSize is the size of one page in bytes (4 KiB, as on x86 and as
// assumed throughout the paper: a 4 GB enclave is "1 M * 4 KB").
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// LineSize is the size of one cache line in bytes.
const LineSize = 64

// PageBase returns the page-aligned base of addr.
func PageBase(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// PageNumber returns the virtual page number of addr.
func PageNumber(addr uint64) uint64 { return addr >> PageShift }

// LineNumber returns the cache-line number of addr.
func LineNumber(addr uint64) uint64 { return addr / LineSize }

// Frame is one physical page frame.
type Frame struct {
	Data [PageSize]byte
}

// Pool recycles page frames to keep allocation pressure low during
// long simulations. It is safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free []*Frame // guarded by mu
}

// Get returns a zeroed frame, reusing a recycled one when available.
func (p *Pool) Get() *Frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		f.Data = [PageSize]byte{}
		return f
	}
	return &Frame{}
}

// Put returns a frame to the pool.
func (p *Pool) Put(f *Frame) {
	if f == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, f)
}

// PageID identifies an enclave page: the owning enclave and the
// virtual page number within it. Enclave 0 is reserved for untrusted
// (non-enclave) memory.
type PageID struct {
	Enclave uint32
	VPN     uint64
}

func (id PageID) String() string {
	return fmt.Sprintf("enclave %d vpn %#x", id.Enclave, id.VPN)
}

// SealedPage is an encrypted page together with the metadata the MEE
// needs to verify it on load-back (paper §2.2: pages are evicted "in an
// encrypted form" with a MAC, and integrity-checked when brought back).
// The MAC is the MEE's 128-bit AES-GCM tag.
type SealedPage struct {
	ID         PageID
	Version    uint64
	Ciphertext [PageSize]byte
	MAC        [16]byte
}

// BackingStore is the untrusted main memory region that receives
// evicted (sealed) EPC pages. It is safe for concurrent use.
//
// Sealed pages live in slabs: Reserve carves them sealedSlabPages at a
// time from one []SealedPage allocation, and dead entries are recycled
// through a bounded free list before the slab is touched. An eviction
// storm therefore allocates once per slab rather than once per page.
//
// A *SealedPage obtained from Get stays valid until that entry is
// deleted or replaced; afterwards its storage may be recycled through
// Reserve and overwritten by a later seal. Callers that need a sealed
// image beyond that point (e.g. to replay it later) must copy the
// struct, not hold the pointer.
type BackingStore struct {
	mu    sync.Mutex
	pages map[PageID]*SealedPage // guarded by mu
	// free recycles the storage of dead entries: an EPC-thrashing run
	// retires one sealed page per load-back and seals another on the
	// next eviction, so recycling keeps its steady state free of new
	// storage. Bounded so enclave teardown cannot pin an arbitrary
	// amount of dead memory.
	free []*SealedPage // guarded by mu
	// slab is the not yet carved tail of the current slab.
	slab []SealedPage // guarded by mu
	// inherited is the page table of the store this one inherited
	// from (nil if none). It is read-only: the source is frozen.
	inherited map[PageID]*SealedPage
}

// maxFreeSealed bounds the recycling list: enough to feed several
// eviction storms (the EPC seals 16 pages per batch) while holding at
// most 64 dead pages. A dead page keeps its whole slab reachable, so
// teardown can retain up to that many slabs until the list drains.
const maxFreeSealed = 64

// sealedSlabPages is how many sealed pages one slab allocation holds
// (about 260 KiB): large enough that slab allocation is a small share
// of an eviction storm's allocations, small enough that a machine
// sealing only a handful of pages does not reserve much.
const sealedSlabPages = 64

// NewBackingStore returns an empty backing store.
func NewBackingStore() *BackingStore {
	return &BackingStore{pages: make(map[PageID]*SealedPage)}
}

// recycle adds a dead entry to the free list unless its storage is
// shared with the store this one inherited from; caller holds mu.
func (b *BackingStore) recycle(p *SealedPage) {
	if b.inherited != nil && b.inherited[p.ID] == p {
		return
	}
	if len(b.free) < maxFreeSealed {
		b.free = append(b.free, p)
	}
}

// Reserve returns storage for one sealed page: a recycled dead entry
// when there is one, otherwise the next page of the current slab (a
// new slab when it is used up). It never returns nil. The page may
// hold a previous seal's bytes, so every field must be overwritten
// before it is stored.
func (b *BackingStore) Reserve() *SealedPage {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.free); n > 0 {
		p := b.free[n-1]
		b.free = b.free[:n-1]
		return p
	}
	if len(b.slab) == 0 {
		b.slab = make([]SealedPage, sealedSlabPages)
	}
	p := &b.slab[0]
	b.slab = b.slab[1:]
	return p
}

// Put stores the sealed page, replacing any previous version.
func (b *BackingStore) Put(p *SealedPage) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old := b.pages[p.ID]; old != nil && old != p {
		b.recycle(old)
	}
	b.pages[p.ID] = p
}

// Get returns the sealed page for id, or nil when the page was never
// evicted.
func (b *BackingStore) Get(id PageID) *SealedPage {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pages[id]
}

// Delete removes the sealed page for id, if present.
func (b *BackingStore) Delete(id PageID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old := b.pages[id]; old != nil {
		b.recycle(old)
		delete(b.pages, id)
	}
}

// Len returns the number of sealed pages currently stored.
func (b *BackingStore) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pages)
}

// DropEnclave removes every sealed page belonging to the enclave.
func (b *BackingStore) DropEnclave(enclave uint32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, p := range b.pages {
		if id.Enclave == enclave {
			b.recycle(p)
			delete(b.pages, id)
		}
	}
}

// Inherit replaces the store's contents with src's sealed pages. The
// pages are shared with src rather than copied, and this store never
// recycles their storage (see BackingStore). src must not change
// afterwards: it stands for a frozen machine that clones start from.
func (b *BackingStore) Inherit(src *BackingStore) {
	src.mu.Lock()
	inherited := src.pages
	pages := maps.Clone(inherited)
	src.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pages = pages
	b.inherited = inherited
	b.free = nil
}

// Hash writes every stored sealed page — identity, version, MAC and
// ciphertext — to h in page-ID order.
func (b *BackingStore) Hash(h hash.Hash) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ids := make([]PageID, 0, len(b.pages))
	for id := range b.pages {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(x, y PageID) int {
		return cmp.Or(cmp.Compare(x.Enclave, y.Enclave), cmp.Compare(x.VPN, y.VPN))
	})
	var hdr [20]byte
	for _, id := range ids {
		p := b.pages[id]
		binary.LittleEndian.PutUint32(hdr[0:4], id.Enclave)
		binary.LittleEndian.PutUint64(hdr[4:12], id.VPN)
		binary.LittleEndian.PutUint64(hdr[12:20], p.Version)
		h.Write(hdr[:])
		h.Write(p.MAC[:])
		h.Write(p.Ciphertext[:])
	}
}
