// Package mee implements the Memory Encryption Engine of the simulated
// SGX machine.
//
// The real MEE sits between the LLC and DRAM and transparently
// encrypts EPC traffic; on an EPC eviction (EWB) the page is encrypted
// and MACed, and on load-back (ELDU) it is decrypted and
// integrity-checked (paper §2.2). This package performs that work for
// real: AES-128-GCM over the page — counter-mode confidentiality plus
// a Carter-Wegman (GHASH) authentication tag, the same MAC family the
// hardware MEE uses — and a per-page version counter for freshness
// (rollback protection). The page identity and version are bound into
// both the nonce and the additional authenticated data.
//
// It also provides the "sealing" primitive of Appendix E: data
// encrypted under a platform key that only the same platform (here,
// the same Engine) can unseal.
package mee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"sgxgauge/internal/mem"
)

// Errors returned by integrity verification.
var (
	// ErrMACMismatch indicates the page or sealed blob was tampered
	// with while it resided in untrusted memory.
	ErrMACMismatch = errors.New("mee: MAC verification failed")
	// ErrRollback indicates a stale (replayed) version of the page
	// was presented, violating freshness.
	ErrRollback = errors.New("mee: stale page version (rollback detected)")
)

// Engine is the memory encryption engine. One Engine guards one
// platform; the key is generated at machine boot. Engine methods are
// safe for concurrent use after construction because the key material
// is immutable (cipher instances are created per call).
type Engine struct {
	encKey [16]byte
	macKey [32]byte
}

// New creates an Engine with keys derived deterministically from the
// seed, so simulations are reproducible.
func New(seed uint64) *Engine {
	var e Engine
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte("sgxgauge-mee-enc"))
	copy(e.encKey[:], h.Sum(nil))
	h.Reset()
	h.Write(b[:])
	h.Write([]byte("sgxgauge-mee-mac"))
	copy(e.macKey[:], h.Sum(nil))
	return &e
}

// pageScratch holds the buffers of one page seal or unseal: the GCM
// output (ciphertext ∥ tag), the nonce and the authenticated header.
// They reach the AEAD through an interface and so escape; a Batch keeps
// one pageScratch for its lifetime, so sealing allocates nothing per
// page.
type pageScratch struct {
	buf [mem.PageSize + 16]byte
	iv  [aes.BlockSize]byte
	hdr [20]byte
}

// setPage derives the 16-byte GCM nonce and the additional
// authenticated data for a page from its identity and version. Every
// (page, version) pair gets a distinct nonce so key streams and tags
// are never reused; the header binds the full identity and full
// 64-bit version into the tag.
func (s *pageScratch) setPage(id mem.PageID, version uint64) {
	binary.LittleEndian.PutUint32(s.iv[0:4], id.Enclave)
	binary.LittleEndian.PutUint64(s.iv[4:12], id.VPN)
	binary.LittleEndian.PutUint32(s.iv[12:16], uint32(version))
	binary.LittleEndian.PutUint32(s.hdr[0:4], id.Enclave)
	binary.LittleEndian.PutUint64(s.hdr[4:12], id.VPN)
	binary.LittleEndian.PutUint64(s.hdr[12:20], version)
}

// pageAEAD builds the page AEAD: AES-128-GCM with the engine's full
// 16-byte page nonce.
func (e *Engine) pageAEAD() cipher.AEAD {
	block, err := aes.NewCipher(e.encKey[:])
	if err != nil {
		panic(fmt.Sprintf("mee: aes init: %v", err)) // key length is fixed; cannot happen
	}
	aead, err := cipher.NewGCMWithNonceSize(block, aes.BlockSize)
	if err != nil {
		panic(fmt.Sprintf("mee: gcm init: %v", err)) // nonce size is fixed; cannot happen
	}
	return aead
}

// SealPage encrypts and MACs one page frame for eviction to untrusted
// memory. The version must be the page's next (monotonically
// increasing) version number.
func (e *Engine) SealPage(id mem.PageID, version uint64, f *mem.Frame) *mem.SealedPage {
	return sealPage(e.pageAEAD(), &pageScratch{}, id, version, f)
}

// UnsealPage decrypts sp into f after verifying its MAC and checking
// that its version matches expectVersion (freshness).
func (e *Engine) UnsealPage(sp *mem.SealedPage, expectVersion uint64, f *mem.Frame) error {
	return unsealPage(e.pageAEAD(), &pageScratch{}, sp, expectVersion, f)
}

// sealPage runs one GCM seal through the given AEAD into the caller's
// scratch buffer (ciphertext ∥ tag), then splits it into the sealed
// page. Batch passes a long-lived AEAD and scratch; Engine builds
// per-call ones. The output depends only on the keys and inputs, so
// both produce byte-identical sealed pages.
func sealPage(aead cipher.AEAD, scratch *pageScratch, id mem.PageID, version uint64, f *mem.Frame) *mem.SealedPage {
	sp := &mem.SealedPage{}
	sealPageInto(aead, scratch, sp, id, version, f)
	return sp
}

// sealPageInto seals into a caller-provided SealedPage, overwriting
// every field — the destination may be recycled storage with stale
// contents (mem.BackingStore.Reserve).
func sealPageInto(aead cipher.AEAD, scratch *pageScratch, sp *mem.SealedPage, id mem.PageID, version uint64, f *mem.Frame) {
	sp.ID = id
	sp.Version = version
	scratch.setPage(id, version)
	out := aead.Seal(scratch.buf[:0], scratch.iv[:], f.Data[:], scratch.hdr[:])
	copy(sp.Ciphertext[:], out[:mem.PageSize])
	copy(sp.MAC[:], out[mem.PageSize:])
}

// unsealPage is sealPage's inverse: rollback check, then GCM open
// (which verifies the tag over ciphertext, identity and version before
// releasing any plaintext).
func unsealPage(aead cipher.AEAD, scratch *pageScratch, sp *mem.SealedPage, expectVersion uint64, f *mem.Frame) error {
	if sp.Version != expectVersion {
		return ErrRollback
	}
	scratch.setPage(sp.ID, sp.Version)
	n := copy(scratch.buf[:], sp.Ciphertext[:])
	copy(scratch.buf[n:], sp.MAC[:])
	if _, err := aead.Open(f.Data[:0], scratch.iv[:], scratch.buf[:], scratch.hdr[:]); err != nil {
		return ErrMACMismatch
	}
	return nil
}

// sealOverhead is the number of bytes Seal adds to the plaintext: a
// 16-byte IV slot plus a 32-byte MAC.
const sealOverhead = 48

// Seal encrypts arbitrary data under the platform key, binding it to
// the given enclave identity (Appendix E: sealed data "can only be
// unsealed on the same platform" and optionally by the same enclave).
// context must be unique per (enclave, plaintext slot) — e.g. a file
// chunk identifier — so that key streams are never reused.
func (e *Engine) Seal(enclaveID uint32, context uint64, plaintext []byte) []byte {
	out := make([]byte, sealOverhead+len(plaintext))
	iv := out[:aes.BlockSize]
	binary.LittleEndian.PutUint32(iv[0:4], enclaveID)
	binary.LittleEndian.PutUint64(iv[4:12], context)
	iv[12] = 0x5e // domain separator vs page nonces
	block, err := aes.NewCipher(e.encKey[:])
	if err != nil {
		panic(fmt.Sprintf("mee: aes init: %v", err))
	}
	cipher.NewCTR(block, iv).XORKeyStream(out[aes.BlockSize:aes.BlockSize+len(plaintext)], plaintext)
	h := hmac.New(sha256.New, e.macKey[:])
	h.Write(out[:aes.BlockSize+len(plaintext)])
	copy(out[aes.BlockSize+len(plaintext):], h.Sum(nil))
	return out
}

// Unseal reverses Seal, verifying integrity, the enclave binding and
// the context.
func (e *Engine) Unseal(enclaveID uint32, context uint64, sealed []byte) ([]byte, error) {
	if len(sealed) < sealOverhead {
		return nil, ErrMACMismatch
	}
	n := len(sealed) - sealOverhead
	iv := sealed[:aes.BlockSize]
	if binary.LittleEndian.Uint32(iv[0:4]) != enclaveID ||
		binary.LittleEndian.Uint64(iv[4:12]) != context {
		return nil, ErrMACMismatch
	}
	h := hmac.New(sha256.New, e.macKey[:])
	h.Write(sealed[:aes.BlockSize+n])
	if !hmac.Equal(h.Sum(nil), sealed[aes.BlockSize+n:]) {
		return nil, ErrMACMismatch
	}
	out := make([]byte, n)
	block, err := aes.NewCipher(e.encKey[:])
	if err != nil {
		panic(fmt.Sprintf("mee: aes init: %v", err))
	}
	cipher.NewCTR(block, iv).XORKeyStream(out, sealed[aes.BlockSize:aes.BlockSize+n])
	return out, nil
}
