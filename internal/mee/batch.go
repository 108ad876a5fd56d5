package mee

import (
	"crypto/cipher"
	"fmt"

	"sgxgauge/internal/mem"
)

// Batch amortizes the per-page crypto setup of the MEE across many
// page operations: the AES key schedule, GHASH subkey and scratch
// buffer are built once and reused for every page sealed or unsealed
// through the batch. The output is byte-identical to the per-call
// Engine.SealPage/UnsealPage — only the host-side setup cost is shared
// — so an eviction storm can run its whole 16-page EWB batch (and a
// fault storm its load-backs) through one Batch without changing any
// simulated or cryptographic result.
//
// A Batch is not safe for concurrent use; the EPC drives one from its
// single simulated-machine goroutine.
type Batch struct {
	e       *Engine
	aead    cipher.AEAD
	scratch pageScratch
}

// NewBatch returns a Batch sharing the engine's keys.
func (e *Engine) NewBatch() *Batch {
	return &Batch{e: e, aead: e.pageAEAD()}
}

// SealPage is Engine.SealPage through the batch's cached AEAD; the
// sealed page is byte-identical.
func (b *Batch) SealPage(id mem.PageID, version uint64, f *mem.Frame) *mem.SealedPage {
	return sealPage(b.aead, &b.scratch, id, version, f)
}

// SealPageInto is SealPage writing into a caller-provided (possibly
// recycled) SealedPage. Every field is overwritten; the result is
// byte-identical to SealPage.
func (b *Batch) SealPageInto(sp *mem.SealedPage, id mem.PageID, version uint64, f *mem.Frame) {
	sealPageInto(b.aead, &b.scratch, sp, id, version, f)
}

// UnsealPage is Engine.UnsealPage through the batch's cached state:
// identical verification outcome and plaintext.
func (b *Batch) UnsealPage(sp *mem.SealedPage, expectVersion uint64, f *mem.Frame) error {
	return unsealPage(b.aead, &b.scratch, sp, expectVersion, f)
}

// SealBatch seals len(ids) pages in one pass, amortizing cipher and
// MAC setup across the whole eviction storm. ids, versions, frames and
// out must have equal length; out[i] receives the sealed page for
// ids[i], byte-identical to SealPage(ids[i], versions[i], frames[i]).
// A non-nil out[i] is reused as the destination (every field
// overwritten); a nil out[i] gets a fresh allocation.
func (e *Engine) SealBatch(ids []mem.PageID, versions []uint64, frames []*mem.Frame, out []*mem.SealedPage) {
	if len(versions) != len(ids) || len(frames) != len(ids) || len(out) != len(ids) {
		panic(fmt.Sprintf("mee: SealBatch length mismatch (%d ids, %d versions, %d frames, %d out)",
			len(ids), len(versions), len(frames), len(out)))
	}
	b := e.NewBatch()
	for i, id := range ids {
		if out[i] != nil {
			b.SealPageInto(out[i], id, versions[i], frames[i])
		} else {
			out[i] = b.SealPage(id, versions[i], frames[i])
		}
	}
}

// VerifyBatch decrypts and integrity-checks len(sps) sealed pages in
// one pass (a whole load storm), writing plaintexts into frames. It
// stops at the first failure, returning which page failed and why;
// frames past that index are untouched.
func (e *Engine) VerifyBatch(sps []*mem.SealedPage, expectVersions []uint64, frames []*mem.Frame) error {
	if len(expectVersions) != len(sps) || len(frames) != len(sps) {
		panic(fmt.Sprintf("mee: VerifyBatch length mismatch (%d pages, %d versions, %d frames)",
			len(sps), len(expectVersions), len(frames)))
	}
	b := e.NewBatch()
	for i, sp := range sps {
		if err := b.UnsealPage(sp, expectVersions[i], frames[i]); err != nil {
			return fmt.Errorf("page %v: %w", sp.ID, err)
		}
	}
	return nil
}
