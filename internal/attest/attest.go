// Package attest models a DCAP-style remote-attestation stack on the
// simulated SGX machine: MRENCLAVE-like measurements, quote
// generation and verification, and platform-bound sealed key
// exchange.
//
// Everything is deterministic — measurements are pure functions of the
// manifest and machine configuration, platform keys derive from the
// machine seed, and every operation charges simulated cycles through
// the machine's cost model — so an attested multi-enclave scenario is
// exactly as reproducible as a plain workload run. The shape follows
// the Gramine attestor / DCAP verifier split of the go-ethereum SGX
// stack the ROADMAP names: an in-enclave report (EREPORT), a quoting
// step signing it with a platform key, and an out-of-enclave verifier
// checking the signature and the expected measurement.
package attest

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"

	"sgxgauge/internal/enclave"
	"sgxgauge/internal/libos"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/sgx"
)

// Measurement is an MRENCLAVE-like identity: the SHA-256 of what was
// (or would be) loaded into the enclave.
type Measurement [32]byte

// String renders the measurement as lowercase hex.
func (m Measurement) String() string { return hex.EncodeToString(m[:]) }

// writeStr appends one length-framed string to the hash, so field
// boundaries cannot alias ("ab","c" never hashes like "a","bc").
func writeStr(h hash.Hash, s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// MeasureManifest computes the launch measurement a LibOS-style loader
// would extend while building an enclave from the manifest on a
// machine with the given configuration: the binary, the trusted-file
// list in manifest order, the declared enclave geometry, and the
// machine parameters that change what gets loaded (EPC size and
// integrity tree). Any tampering with the manifest — an added trusted
// file, a flipped protected-files bit, a resized enclave — yields a
// different measurement, which is what quote verification catches.
func MeasureManifest(man libos.Manifest, cfg sgx.Config) Measurement {
	h := sha256.New()
	writeStr(h, "sgxgauge-mrenclave-v1")
	writeStr(h, man.Binary)
	writeU64(h, uint64(len(man.Libs)))
	for _, lib := range man.Libs {
		writeStr(h, lib)
	}
	writeU64(h, uint64(len(man.Files)))
	for _, f := range man.Files {
		writeStr(h, f)
	}
	writeU64(h, uint64(man.EnclaveSizePages))
	writeU64(h, uint64(man.Threads))
	writeU64(h, uint64(man.InternalMemPages))
	if man.ProtectedFiles {
		writeU64(h, 1)
	} else {
		writeU64(h, 0)
	}
	writeU64(h, uint64(cfg.EPCPages))
	if cfg.IntegrityTree {
		writeU64(h, 1)
	} else {
		writeU64(h, 0)
	}
	var m Measurement
	copy(m[:], h.Sum(nil))
	return m
}

// MeasureEnclave returns a built enclave's launch measurement (the
// EEXTEND chain over the pages the machine loaded, computed on the
// enclave's first measurement read), in attestation form.
func MeasureEnclave(enc *enclave.Enclave) Measurement { return Measurement(enc.Measurement()) }

// Quote is a remote-attestation quote: a report (measurement + report
// data) signed by the platform's quoting key. ReportData carries the
// attester's channel-binding payload — typically a hash of its
// ephemeral session public key — exactly like the 64-byte REPORTDATA
// field real quotes embed (truncated to 32 here).
type Quote struct {
	Measurement Measurement
	ReportData  [32]byte
	Signature   [32]byte
}

// Verification errors. ErrQuoteSignature means the quote was not
// produced by this platform (or was bit-tampered in flight);
// ErrMeasurementMismatch means it was, but over different enclave
// contents than the verifier expects.
var (
	ErrQuoteSignature      = errors.New("attest: quote signature invalid")
	ErrMeasurementMismatch = errors.New("attest: measurement mismatch")
)

// Cycle-cost factors, in units of the machine cost model's Compute
// cost. The magnitudes mirror the real stack's ordering: producing a
// report (EREPORT, a MAC over ~400 bytes) is cheap, signing a quote
// (ECDSA over the report) is ~an order costlier, and verifying one
// (certificate chain plus two signature checks, the DCAP verifier's
// job) costs about twice a sign.
const (
	reportFactor = 256
	signFactor   = 2048
	verifyFactor = 4096
	// sealBytesPerCycle divides the sealed-blob length to model
	// AES-GCM-style sealing throughput (~0.5 cycles/byte with AES-NI,
	// matching the protected-file-system constant).
	sealBytesPerCycle = 2
)

// Platform is one machine's attestation root: the quoting key the
// (simulated) quoting enclave signs with and the sealing engine bound
// to the platform. Both derive from the machine seed, so equal seeds
// attest identically.
type Platform struct {
	quoteKey [32]byte
	seal     *mee.Engine
}

// NewPlatform derives the attestation root for a machine. Call it
// with m.Config().Seed so the platform is bound to the booted machine.
func NewPlatform(seed uint64) *Platform {
	p := &Platform{seal: mee.New(seed ^ 0x61747465737421)} // "attest!"
	h := sha256.New()
	writeU64(h, seed)
	writeStr(h, "sgxgauge-attest-qe")
	copy(p.quoteKey[:], h.Sum(nil))
	return p
}

// signature computes the quote MAC standing in for the ECDSA
// signature of the real quoting enclave.
func (p *Platform) signature(meas Measurement, reportData [32]byte) [32]byte {
	mac := hmac.New(sha256.New, p.quoteKey[:])
	mac.Write(meas[:])
	mac.Write(reportData[:])
	var sig [32]byte
	copy(sig[:], mac.Sum(nil))
	return sig
}

// Quote produces a quote over the measurement and report data,
// charging the thread for the EREPORT and the quoting enclave's
// signing work (plus the ECALL round trip into the QE).
func (p *Platform) Quote(t *sgx.Thread, meas Measurement, reportData [32]byte) Quote {
	c := &t.Env().M.Costs
	t.Compute(c.Compute*(reportFactor+signFactor) + c.ECallEnter + c.ECallExit)
	return Quote{Measurement: meas, ReportData: reportData, Signature: p.signature(meas, reportData)}
}

// Verify checks the quote's platform signature, charging the DCAP
// verifier's certificate-and-signature work. It does not judge the
// measurement — callers compare against their expected Measurement
// (see VerifyExpected), mirroring the verifier/policy split.
func (p *Platform) Verify(t *sgx.Thread, q Quote) error {
	c := &t.Env().M.Costs
	t.Compute(c.Compute * verifyFactor)
	want := p.signature(q.Measurement, q.ReportData)
	if !hmac.Equal(want[:], q.Signature[:]) {
		return ErrQuoteSignature
	}
	return nil
}

// VerifyExpected is Verify plus the policy check: the quoted
// measurement must equal the one the verifier derived independently
// (from the manifest it trusts). A valid signature over the wrong
// measurement — the tampered-manifest case — fails here.
func (p *Platform) VerifyExpected(t *sgx.Thread, q Quote, want Measurement) error {
	if err := p.Verify(t, q); err != nil {
		return err
	}
	if q.Measurement != want {
		return fmt.Errorf("%w: quoted %s, expected %s", ErrMeasurementMismatch, q.Measurement, want)
	}
	return nil
}

// SealTo seals data to an enclave identity on this platform, charging
// the sealing crypto. Only UnsealAt with the same enclave identity
// and context — on the same platform — recovers it; any bit flip in
// the sealed blob is detected.
func (p *Platform) SealTo(t *sgx.Thread, enclaveID uint32, context uint64, data []byte) []byte {
	sealed := p.seal.Seal(enclaveID, context, data)
	t.Compute(uint64(len(sealed)) / sealBytesPerCycle)
	return sealed
}

// UnsealAt reverses SealTo inside the target enclave.
func (p *Platform) UnsealAt(t *sgx.Thread, enclaveID uint32, context uint64, sealed []byte) ([]byte, error) {
	t.Compute(uint64(len(sealed)) / sealBytesPerCycle)
	return p.seal.Unseal(enclaveID, context, sealed)
}

// Session is an attested secure channel: after both ends verified
// each other's quotes and exchanged the sealed session secret, they
// encrypt the request stream under it. Message sealing reuses the
// platform engine with the session identity as the enclave binding
// and a caller-supplied message counter as the context, so every
// message has a fresh keystream and MAC.
type Session struct {
	seal *mee.Engine
	id   uint32
}

// NewSession opens the channel state shared by two attested enclaves.
// Both ends derive the same session from the platform and the two
// enclave identities; secret is the sealed-exchanged session secret
// both now hold.
func NewSession(p *Platform, clientID, serverID uint32, secret []byte) *Session {
	h := sha256.New()
	writeStr(h, "sgxgauge-attest-session")
	writeU64(h, uint64(clientID))
	writeU64(h, uint64(serverID))
	h.Write(secret)
	sum := h.Sum(nil)
	return &Session{
		seal: mee.New(binary.LittleEndian.Uint64(sum[:8])),
		id:   clientID ^ serverID,
	}
}

// Encrypt seals one message under the session, charging the thread
// for the crypto.
func (s *Session) Encrypt(t *sgx.Thread, counter uint64, plaintext []byte) []byte {
	sealed := s.seal.Seal(s.id, counter, plaintext)
	t.Compute(uint64(len(sealed)) / sealBytesPerCycle)
	return sealed
}

// Decrypt opens one message; a wrong counter (replay), wrong session,
// or any tampering is an error.
func (s *Session) Decrypt(t *sgx.Thread, counter uint64, ciphertext []byte) ([]byte, error) {
	t.Compute(uint64(len(ciphertext)) / sealBytesPerCycle)
	return s.seal.Unseal(s.id, counter, ciphertext)
}

// SessionSecret deterministically derives the client's ephemeral
// session secret from the scenario seed and the two enclave
// identities — standing in for the ECDH the real handshake performs.
func SessionSecret(seed int64, clientID, serverID uint32) []byte {
	h := sha256.New()
	writeStr(h, "sgxgauge-attest-ecdh")
	writeU64(h, uint64(seed))
	writeU64(h, uint64(clientID))
	writeU64(h, uint64(serverID))
	return h.Sum(nil)
}
