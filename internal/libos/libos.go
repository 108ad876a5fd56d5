package libos

import (
	"crypto/subtle"
	"fmt"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
)

// Init-phase transition counts for an empty workload, calibrated to
// Figure 6a of the paper: "GrapheneSGX performs ~300 ECALLs, ~1000
// OCALLs, and ~1000 AEX exits" while initializing.
const (
	initECalls = 300
	initOCalls = 1000
	// initAEXs covers the interrupt-driven exits during init; the
	// loader's post-measurement working-set faults contribute the
	// remaining loaderPages AEXs, totalling ~1000.
	initAEXs = 1000 - loaderPages
)

// loaderPages is the LibOS's own in-enclave footprint (runtime code,
// loader state); the rest of the measured enclave is application heap.
const loaderPages = 128

// Instance is one running LibOS (one enclave hosting one unmodified
// application).
type Instance struct {
	// Env is the LibOS-mode environment the application runs in.
	Env *sgx.Env
	// Manifest is the effective (defaulted) manifest.
	Manifest Manifest

	fs         *osal.FS
	fileHashes map[string][32]byte
	verified   map[string]bool

	// StartupCycles is the main-thread cycle cost of initializing
	// the LibOS, which the paper excludes from workload run time
	// (Appendix D).
	StartupCycles uint64
	// StartupCounters snapshots the machine counters right after
	// initialization; harnesses measure workloads from this baseline.
	StartupCounters perf.Snapshot
}

// Start boots a LibOS instance on the machine: it processes the
// manifest (hashing the input files), builds and measures the full
// enclave, performs the loader's init-phase transitions, and leaves
// the application permanently inside the enclave.
func Start(m *sgx.Machine, fs *osal.FS, man Manifest) (*Instance, error) {
	return StartWithTimeline(m, fs, man, 0)
}

// StartWithTimeline is Start with EPC activity sampling enabled from
// before the enclave build, so the launch-time eviction storm is
// captured (Figure 9). timelineEvery = 0 disables sampling.
//
// It is Load followed by the machine boot and Attach. The boot depends
// only on the machine and the manifest's defaulted EnclaveSizePages,
// so callers running many manifests of one size on one machine
// configuration may boot once, freeze the machine (sgx.Freeze) and
// Attach each loaded manifest to a clone instead.
func StartWithTimeline(m *sgx.Machine, fs *osal.FS, man Manifest, timelineEvery uint64) (*Instance, error) {
	inst, err := Load(fs, man, m.Config().EPCPages)
	if err != nil {
		return nil, err
	}
	env, err := buildEnclave(m, inst.Manifest, timelineEvery)
	if err != nil {
		return nil, err
	}
	if err := inst.Attach(env); err != nil {
		return nil, err
	}
	return inst, nil
}

// Load performs manifest processing for a machine with epcPages EPC
// pages: it validates the manifest, applies its defaults and hashes
// every trusted input file. This is host-side work; the returned
// Instance has no environment until Attach.
func Load(fs *osal.FS, man Manifest, epcPages int) (*Instance, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	man = man.withDefaults(epcPages)

	inst := &Instance{
		Manifest:   man,
		fs:         fs,
		fileHashes: make(map[string][32]byte, len(man.Files)),
		verified:   make(map[string]bool, len(man.Files)),
	}
	for _, name := range man.Files {
		data := fs.Raw(name)
		if data == nil {
			return nil, fmt.Errorf("libos: manifest file %q not found", name)
		}
		inst.fileHashes[name] = hashFile(data)
	}
	return inst, nil
}

// Attach binds a loaded instance to a booted LibOS environment — one
// StartWithTimeline built, or a clone of a frozen one — and records
// its start-up cost and counters. The environment's enclave must have
// the manifest's size.
func (inst *Instance) Attach(env *sgx.Env) error {
	if env.Mode != sgx.LibOS || env.Enclave == nil || env.Enclave.SizePages != inst.Manifest.EnclaveSizePages {
		return fmt.Errorf("libos: cannot attach a %d-page manifest to this environment", inst.Manifest.EnclaveSizePages)
	}
	inst.Env = env
	inst.StartupCycles = env.Elapsed()
	inst.StartupCounters = env.Snapshot()
	return nil
}

// EnclavePages returns the declared enclave size of the manifest on a
// machine with epcPages EPC pages, defaults applied: together with the
// machine configuration, the only input of the boot.
func (m Manifest) EnclavePages(epcPages int) int {
	return m.withDefaults(epcPages).EnclaveSizePages
}

// buildEnclave builds the LibOS enclave on m, runs the loader's init
// phase and returns the environment the application will run in.
func buildEnclave(m *sgx.Machine, man Manifest, timelineEvery uint64) (*sgx.Env, error) {
	env := m.NewEnv(sgx.LibOS)
	if timelineEvery > 0 {
		m.EPC.EnableTimeline(&env.Main.Clock, timelineEvery)
	}

	// Build the enclave. Graphene EADDs the entire declared enclave
	// so SGX can measure it, producing the launch-time eviction storm
	// of Figure 6a when the enclave exceeds the EPC — but only the
	// loader's own footprint is reserved; the rest becomes the
	// application heap.
	if _, err := env.LaunchEnclaveReserve(man.enclaveImagePages(), loaderPages, man.EnclaveSizePages); err != nil {
		return nil, fmt.Errorf("libos: building enclave: %w", err)
	}

	// Loader init: the ECALL/OCALL/AEX activity Figure 6a reports for
	// an empty workload. The OCALLs load libraries and set up the
	// environment; the AEXs are interrupts taken during the long
	// build.
	t := env.Main
	for i := 0; i < initECalls; i++ {
		t.RuntimeECall(func() {})
	}
	t.RuntimeECall(func() {
		for i := 0; i < initOCalls; i++ {
			t.RuntimeOCall(func() {
				t.Clock.Advance(m.Costs.SyscallDirect)
			})
		}
		for i := 0; i < initAEXs; i++ {
			t.RuntimeAEX()
		}
	})

	// From here on the unmodified application executes inside the
	// enclave.
	env.EnterPermanently()

	// The runtime touches its own working set, which the measurement
	// sweep evicted — the small number of pages "loaded back" out of
	// the ~1M evicted that Figure 6a reports.
	for i := 0; i < loaderPages; i++ {
		t.ReadU64(env.Enclave.Base + uint64(i)*mem.PageSize)
	}
	return env, nil
}

// VerifyOnOpen checks a trusted file's hash the first time it is
// opened, charging the in-enclave hashing cost. It returns an error
// when the file was tampered with after manifest processing, or when
// the file is not listed in the manifest at all.
func (inst *Instance) verifyOnOpen(t *sgx.Thread, name string) error {
	want, ok := inst.fileHashes[name]
	if !ok {
		return fmt.Errorf("libos: %q is not a trusted file in the manifest", name)
	}
	if inst.verified[name] {
		return nil
	}
	data := inst.fs.Raw(name)
	got := hashFile(data)
	// Hashing happens inside the enclave over data fetched through
	// OCALLs; charge ~1 cycle/byte of SHA-256 work plus the fetches.
	t.Compute(uint64(len(data)))
	t.Syscall(uint64(len(data)))
	if subtle.ConstantTimeCompare(want[:], got[:]) != 1 {
		return fmt.Errorf("libos: hash mismatch for trusted file %q", name)
	}
	inst.verified[name] = true
	return nil
}

// FS returns the filesystem view the application should use: the
// shimmed (and, if configured, protected) filesystem.
func (inst *Instance) FS() osal.FileSystem {
	if inst.Manifest.ProtectedFiles {
		return &ProtectedFS{inst: inst}
	}
	return &ShimFS{inst: inst}
}

// ShimFS returns the plaintext trusted/allowed-file view regardless of
// the ProtectedFiles setting; a Graphene-style manifest mounts trusted
// input files and protected files side by side.
func (inst *Instance) ShimFS() osal.FileSystem { return &ShimFS{inst: inst} }
