// Package enclave models the software-visible state of one SGX
// enclave: its identity, virtual address range, launch-time
// measurement, and in-enclave heap.
//
// The launch measurement is computed on first read. A build records
// the image it added (RecordImage: loader pages with FillImagePage
// content, then zero heap pages) instead of hashing each page as it
// goes; Measurement replays the EEXTEND chain over that recipe once
// and keeps the result. The digest is byte-identical to hashing at
// build time, and runs that never read it never pay for it.
//
// The expensive parts of an enclave's life — paging its contents
// through the EPC, transitions, TLB flushes — are driven by the
// machine (package sgx); this package holds the bookkeeping.
package enclave

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"sgxgauge/internal/mem"
)

// ErrOutOfMemory is returned when an allocation does not fit in the
// enclave's declared size.
var ErrOutOfMemory = errors.New("enclave: heap exhausted (enclave size exceeded)")

// Enclave is one trusted execution environment instance.
type Enclave struct {
	// ID is the machine-assigned enclave identity (EPCM owner field).
	ID uint32
	// Base is the first virtual address of the enclave range.
	Base uint64
	// SizePages is the declared enclave size. SGX loads this many
	// pages through the EPC at launch to compute the measurement
	// (paper §3.2.1, Appendix D).
	SizePages int

	heapNext uint64
	hash     [32]byte // running measurement state (chained SHA-256)
	// digest and hdr are the reused SHA-256 state and page-header
	// scratch of extend, so extending allocates nothing per page.
	digest hash.Hash
	hdr    [8]byte
	// imagePages and reservePages are the image recorded by
	// RecordImage; Measurement folds them into hash on first read.
	imagePages, reservePages int
	launched                 bool
	abortCause               error
}

// New creates an un-launched enclave covering
// [base, base+SizePages*PageSize).
func New(id uint32, base uint64, sizePages int) *Enclave {
	if sizePages <= 0 {
		panic(fmt.Sprintf("enclave: invalid size %d pages", sizePages))
	}
	e := &Enclave{ID: id, Base: base, SizePages: sizePages, heapNext: base}
	e.hash = sha256.Sum256([]byte("sgxgauge-enclave-init"))
	return e
}

// Clone returns an independent copy of the enclave: identity, range,
// heap cursor, launch state, recorded image and measurement chain,
// and abort state. e is only read, so several clones may be taken of
// one frozen enclave concurrently; each computes a recorded image's
// measurement on its own first read.
func (e *Enclave) Clone() *Enclave {
	c := *e
	c.digest = nil // SHA-256 scratch is per enclave
	return &c
}

// Limit returns the first address past the enclave range.
func (e *Enclave) Limit() uint64 {
	return e.Base + uint64(e.SizePages)*mem.PageSize
}

// Contains reports whether addr falls inside the enclave range.
func (e *Enclave) Contains(addr uint64) bool {
	return addr >= e.Base && addr < e.Limit()
}

// PageID returns the EPC page identity for the page containing addr.
func (e *Enclave) PageID(addr uint64) mem.PageID {
	return mem.PageID{Enclave: e.ID, VPN: mem.PageNumber(addr)}
}

// ExtendMeasurement folds one added page into the launch measurement
// (the EEXTEND step): hash = SHA-256(hash || vpn || page). A build
// that adds pages with arbitrary content calls it once per page, in
// build order; a build whose content follows the standard image uses
// RecordImage instead. Extending a launched enclave panics.
func (e *Enclave) ExtendMeasurement(vpn uint64, f *mem.Frame) {
	if e.launched {
		panic("enclave: ExtendMeasurement after FinishLaunch")
	}
	e.extend(vpn, f)
}

func (e *Enclave) extend(vpn uint64, f *mem.Frame) {
	if e.digest == nil {
		e.digest = sha256.New()
	}
	h := e.digest
	h.Reset()
	h.Write(e.hash[:])
	binary.LittleEndian.PutUint64(e.hdr[:], vpn)
	h.Write(e.hdr[:])
	h.Write(f.Data[:])
	h.Sum(e.hash[:0])
}

// RecordImage records that the build added imagePages pages starting
// at Base, in order, after any pages passed to ExtendMeasurement: the
// first reservePages hold FillImagePage content and the rest are zero
// (EADDed heap). The measurement over them is computed on the first
// Measurement call, not here. An enclave records at most one image,
// before FinishLaunch.
func (e *Enclave) RecordImage(imagePages, reservePages int) {
	if e.launched || e.imagePages != 0 {
		panic("enclave: RecordImage after FinishLaunch or a previous RecordImage")
	}
	if reservePages < 0 || reservePages > imagePages || imagePages > e.SizePages {
		panic(fmt.Sprintf("enclave: invalid image %d/%d pages in a %d-page enclave", reservePages, imagePages, e.SizePages))
	}
	e.imagePages, e.reservePages = imagePages, reservePages
}

// FinishLaunch ends the build and fixes the measurement (a recorded
// image is still hashed on first read); ExtendMeasurement and
// RecordImage panic afterwards.
func (e *Enclave) FinishLaunch() {
	if e.launched {
		panic("enclave: FinishLaunch called twice")
	}
	e.launched = true
}

// Measurement returns the SHA-256 launch measurement (MRENCLAVE
// analogue) over every page added at build time, or the zero digest
// before FinishLaunch. The first call after launch hashes the recorded
// image; later calls return the kept result. Like the rest of the
// enclave state it is not safe for concurrent use.
func (e *Enclave) Measurement() [32]byte {
	if !e.launched {
		return [32]byte{}
	}
	if e.imagePages > 0 {
		e.measureImage()
	}
	return e.hash
}

// measureImage folds the recorded image into the measurement chain.
// Loader pages come first, so one frame serves the whole build: it is
// refilled per loader page (FillImagePage writes the same bytes each
// time and leaves the rest zero) and cleared once for the heap pages.
func (e *Enclave) measureImage() {
	f := new(mem.Frame)
	vpn := mem.PageNumber(e.Base)
	for i := 0; i < e.imagePages; i++ {
		if i < e.reservePages {
			FillImagePage(f, uint64(i))
		} else if i == e.reservePages {
			clear(f.Data[:])
		}
		e.extend(vpn+uint64(i), f)
	}
	e.imagePages, e.reservePages = 0, 0
}

// FillImagePage writes the deterministic pseudo-content of loader
// image page idx into a zeroed frame, so measurements are stable and
// non-trivial. It writes one byte in eight; the rest stay zero.
func FillImagePage(f *mem.Frame, idx uint64) {
	x := idx*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for i := 0; i < mem.PageSize; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f.Data[i] = byte(x)
	}
}

// Launched reports whether the enclave finished its build phase.
func (e *Enclave) Launched() bool { return e.launched }

// Abort transitions the enclave to the aborted state, recording the
// first cause. Real SGX has exactly this semantic: when the platform
// detects tampering it poisons the enclave, subsequent entries and
// accesses fail, and the rest of the machine keeps running. Abort is
// idempotent; later causes are ignored.
func (e *Enclave) Abort(cause error) {
	if e.abortCause != nil {
		return
	}
	if cause == nil {
		cause = errors.New("enclave: aborted")
	}
	e.abortCause = cause
}

// Aborted reports whether the enclave has been aborted.
func (e *Enclave) Aborted() bool { return e.abortCause != nil }

// AbortCause returns the first error that aborted the enclave, or nil
// while it is still live.
func (e *Enclave) AbortCause() error { return e.abortCause }

// Alloc reserves n bytes from the enclave heap with the given
// alignment (which must be a power of two; 0 means 8). Memory is
// demand-paged: no EPC pages are consumed until first touch.
func (e *Enclave) Alloc(n uint64, align uint64) (uint64, error) {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("enclave: alignment %d is not a power of two", align)
	}
	addr := (e.heapNext + align - 1) &^ (align - 1)
	if addr+n > e.Limit() || addr+n < addr {
		return 0, ErrOutOfMemory
	}
	e.heapNext = addr + n
	return addr, nil
}

// HeapUsed returns the number of heap bytes reserved so far.
func (e *Enclave) HeapUsed() uint64 { return e.heapNext - e.Base }
