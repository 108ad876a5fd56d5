package sgx

import (
	"crypto/sha256"
	"sync"
	"testing"
	"testing/quick"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

func TestConfigDefaults(t *testing.T) {
	m := NewMachine(Config{})
	cfg := m.Config()
	if cfg.EPCPages != DefaultEPCPages {
		t.Errorf("EPCPages = %d", cfg.EPCPages)
	}
	if cfg.TLBEntries != 2*DefaultEPCPages {
		t.Errorf("TLBEntries = %d, want %d", cfg.TLBEntries, 2*DefaultEPCPages)
	}
	if cfg.LLCBytes != DefaultEPCPages*mem.PageSize/2 {
		t.Errorf("LLCBytes = %d", cfg.LLCBytes)
	}
	if m.EPCBytes() != uint64(DefaultEPCPages)*mem.PageSize {
		t.Errorf("EPCBytes = %d", m.EPCBytes())
	}
}

func TestConfigMinimums(t *testing.T) {
	m := NewMachine(Config{EPCPages: 1})
	cfg := m.Config()
	if cfg.TLBEntries < 64 || cfg.LLCBytes < 64*1024 {
		t.Errorf("tiny machine got TLB=%d LLC=%d", cfg.TLBEntries, cfg.LLCBytes)
	}
}

func TestUntrustedReadWrite(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main

	addr := m.AllocUntrusted(64, 8)
	tr.WriteU64(addr, 0xdeadbeefcafef00d)
	if got := tr.ReadU64(addr); got != 0xdeadbeefcafef00d {
		t.Fatalf("ReadU64 = %#x", got)
	}
	tr.WriteU32(addr+8, 0x12345678)
	if got := tr.ReadU32(addr + 8); got != 0x12345678 {
		t.Fatalf("ReadU32 = %#x", got)
	}
	tr.WriteU8(addr+12, 0xAB)
	if got := tr.ReadU8(addr + 12); got != 0xAB {
		t.Fatalf("ReadU8 = %#x", got)
	}
	tr.WriteF64(addr+16, 3.25)
	if got := tr.ReadF64(addr + 16); got != 3.25 {
		t.Fatalf("ReadF64 = %v", got)
	}
}

func TestPageSpanningAccess(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main

	addr := m.AllocUntrusted(3*mem.PageSize, mem.PageSize)
	data := make([]byte, 2*mem.PageSize)
	for i := range data {
		data[i] = byte(i % 253)
	}
	// Write straddling two page boundaries.
	tr.Write(addr+mem.PageSize/2, data)
	out := make([]byte, len(data))
	tr.Read(addr+mem.PageSize/2, out)
	for i := range out {
		if out[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, out[i], data[i])
		}
	}
}

func TestMemsetMemcpy(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main

	a := m.AllocUntrusted(8192, mem.PageSize)
	b := m.AllocUntrusted(8192, mem.PageSize)
	tr.Memset(a, 0x5A, 5000)
	tr.Memcpy(b, a, 5000)
	buf := make([]byte, 5000)
	tr.Read(b, buf)
	for i, v := range buf {
		if v != 0x5A {
			t.Fatalf("byte %d = %#x after Memcpy", i, v)
		}
	}
	if tr.ReadU8(b+5000) != 0 {
		t.Error("Memcpy overran")
	}
}

func TestFirstTouchCountsPageFault(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main
	addr := m.AllocUntrusted(mem.PageSize, mem.PageSize)

	before := m.Counters.Get(perf.PageFaults)
	tr.WriteU8(addr, 1)
	if m.Counters.Get(perf.PageFaults) != before+1 {
		t.Error("first touch did not fault")
	}
	tr.WriteU8(addr+8, 1)
	if m.Counters.Get(perf.PageFaults) != before+1 {
		t.Error("second touch faulted again")
	}
}

func TestTLBMissThenHit(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main
	addr := m.AllocUntrusted(mem.PageSize, mem.PageSize)

	tr.ReadU8(addr)
	misses := m.Counters.Get(perf.DTLBMisses)
	if misses != 1 {
		t.Fatalf("first access: %d dTLB misses, want 1", misses)
	}
	tr.ReadU8(addr + 100)
	if m.Counters.Get(perf.DTLBMisses) != misses {
		t.Error("same-page access missed the TLB")
	}
	if m.Counters.Get(perf.WalkCycles) == 0 {
		t.Error("no walk cycles charged")
	}
}

func TestVanillaHasNoSGXCosts(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Vanilla)
	tr := env.Main
	addr := m.AllocUntrusted(16*mem.PageSize, mem.PageSize)
	tr.ECall(func() {
		tr.Memset(addr, 1, 16*mem.PageSize)
	})
	tr.Syscall(100)
	c := m.Counters
	for _, e := range []perf.Event{perf.ECalls, perf.OCalls, perf.AEXs, perf.EPCEvictions, perf.EPCAllocs, perf.TLBFlushes} {
		if c.Get(e) != 0 {
			t.Errorf("%v = %d in Vanilla mode, want 0", e, c.Get(e))
		}
	}
	if c.Get(perf.Syscalls) != 1 {
		t.Errorf("Syscalls = %d, want 1", c.Get(perf.Syscalls))
	}
}

func TestLaunchEnclaveMeasuresImage(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Native)
	enc, err := env.LaunchEnclave(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !enc.Launched() {
		t.Error("enclave not launched")
	}
	if enc.Measurement() == [32]byte{} {
		t.Error("empty measurement")
	}
	if got := m.Counters.Get(perf.EPCAllocs); got != 8 {
		t.Errorf("EPCAllocs = %d, want 8 (image pages)", got)
	}
}

func TestLaunchStormWhenImageExceedsEPC(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(LibOS)
	// A 3x-EPC image must evict roughly imagePages - capacity pages.
	if _, err := env.LaunchEnclaveReserve(192, 8, 192); err != nil {
		t.Fatal(err)
	}
	evic := m.Counters.Get(perf.EPCEvictions)
	if evic < 100 {
		t.Errorf("launch storm evicted only %d pages", evic)
	}
}

func TestLaunchErrors(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	if _, err := m.NewEnv(Vanilla).LaunchEnclave(1, 2); err == nil {
		t.Error("LaunchEnclave in Vanilla mode succeeded")
	}
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(4, 2); err == nil {
		t.Error("image > size accepted")
	}
	if _, err := env.LaunchEnclaveReserve(2, 3, 4); err == nil {
		t.Error("reserve > image accepted")
	}
	if _, err := env.LaunchEnclave(1, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := env.LaunchEnclave(1, 8); err == nil {
		t.Error("second enclave in one env accepted")
	}
}

func TestEnclaveDataIntegrityUnderThrash(t *testing.T) {
	// Working set 2x the EPC: every page round-trips through
	// evict/load-back, and every byte must survive.
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 256); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	base := env.MustAlloc(128*mem.PageSize, mem.PageSize)
	for pass := 0; pass < 3; pass++ {
		for p := uint64(0); p < 128; p++ {
			addr := base + p*mem.PageSize
			if pass == 0 {
				tr.WriteU64(addr, p*1000)
			} else if got := tr.ReadU64(addr); got != p*1000 {
				t.Fatalf("pass %d page %d: %d, want %d", pass, p, got, p*1000)
			}
		}
	}
	if m.Counters.Get(perf.EPCEvictions) == 0 {
		t.Fatal("thrash test did not evict — EPC too large for the test to mean anything")
	}
}

func TestEnclaveRandomAccessProperty(t *testing.T) {
	m := NewMachine(Config{EPCPages: 32})
	env := m.NewEnv(Native)
	if _, err := env.LaunchEnclave(1, 128); err != nil {
		t.Fatal(err)
	}
	tr := env.Main
	base := env.MustAlloc(96*mem.PageSize, 8)
	model := map[uint64]uint64{}
	f := func(slot uint16, val uint64) bool {
		addr := base + uint64(slot)%((96*mem.PageSize-8)/8)*8
		tr.WriteU64(addr, val)
		model[addr] = val
		// Read back a previously written address (this one).
		return tr.ReadU64(addr) == model[addr]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Re-verify the full model at the end (after arbitrary thrash).
	for addr, val := range model {
		if got := tr.ReadU64(addr); got != val {
			t.Fatalf("addr %#x = %d, want %d", addr, got, val)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, perf.Snapshot) {
		m := NewMachine(Config{EPCPages: 64, Seed: 3})
		env := m.NewEnv(Native)
		if _, err := env.LaunchEnclave(4, 192); err != nil {
			t.Fatal(err)
		}
		tr := env.Main
		base := env.MustAlloc(150*mem.PageSize, mem.PageSize)
		tr.ECall(func() {
			for p := uint64(0); p < 150; p++ {
				tr.WriteU64(base+p*mem.PageSize+8, p)
			}
			for p := uint64(0); p < 150; p += 3 {
				tr.ReadU64(base + p*mem.PageSize + 8)
			}
		})
		return tr.Clock.Cycles(), m.Counters.Snapshot()
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 {
		t.Errorf("cycles differ across identical runs: %d vs %d", c1, c2)
	}
	if s1 != s2 {
		t.Errorf("counters differ across identical runs")
	}
}

func TestDestroyEnclaveFreesEPC(t *testing.T) {
	m := NewMachine(Config{EPCPages: 64})
	env := m.NewEnv(Native)
	enc, err := env.LaunchEnclave(32, 48)
	if err != nil {
		t.Fatal(err)
	}
	if m.EPC.Resident() == 0 {
		t.Fatal("nothing resident after launch")
	}
	m.DestroyEnclave(enc)
	if m.EPC.Resident() != 0 {
		t.Errorf("%d pages resident after destroy", m.EPC.Resident())
	}
	if m.enclaveFor(enc.Base) != nil {
		t.Error("destroyed enclave still resolves")
	}
}

// TestFreezeRejectsUnclonableMachines: chaos, a tracer and an EPC
// timeline are not state a clone can continue from.
func TestFreezeRejectsUnclonableMachines(t *testing.T) {
	cases := map[string]func() *Env{
		"chaos": func() *Env {
			return NewMachine(Config{EPCPages: 64, Chaos: &chaos.Config{Seed: 1, Rate: 0.1, AEXStorm: true}}).NewEnv(Native)
		},
		"tracer": func() *Env {
			m := NewMachine(Config{EPCPages: 64})
			m.SetTracer(func(TraceEvent) {})
			return m.NewEnv(Native)
		},
		"timeline": func() *Env {
			m := NewMachine(Config{EPCPages: 64})
			env := m.NewEnv(Native)
			m.EPC.EnableTimeline(&env.Main.Clock, 8)
			return env
		},
	}
	for name, env := range cases {
		if _, err := Freeze(env()); err == nil {
			t.Errorf("%s: Freeze succeeded", name)
		}
	}
}

// TestSnapshotCloneContinuesIdentically: after a launch that overflows
// the EPC and a warm-up that fills the dTLB, L1 and LLC, a clone of
// the frozen machine and a machine that did the same set-up itself,
// run on with the same program, reach identical clocks and counters,
// and the frozen state is untouched by the clone.
func TestSnapshotCloneContinuesIdentically(t *testing.T) {
	launch := func() *Env {
		env := NewMachine(Config{EPCPages: 64, L1Bytes: 4096}).NewEnv(LibOS)
		if _, err := env.LaunchEnclave(200, 400); err != nil {
			t.Fatal(err)
		}
		env.EnterPermanently()
		for p := uint64(170); p < 200; p++ {
			env.Main.Memset(env.Enclave.Base+p*mem.PageSize, byte(p), 256)
		}
		return env
	}
	program := func(env *Env) {
		t := env.Main
		base := env.Enclave.Base
		// Re-touch the warm-up's pages first, newest first: these hits
		// and misses depend on the dTLB, L1 and LLC state the set-up
		// left.
		for p := uint64(199); p >= 170; p-- {
			for off := uint64(0); off < 256; off += 64 {
				t.ReadU64(base + p*mem.PageSize + off)
			}
		}
		for i := uint64(0); i < 300; i++ {
			t.WriteU64(base+(i*7%400)*mem.PageSize, i)
			t.ReadU64(base + (i*3%200)*mem.PageSize)
		}
		t.Syscall(64)
	}
	frozen := launch()
	snap, err := Freeze(frozen)
	if err != nil {
		t.Fatal(err)
	}
	before := snap.Fingerprint()
	clone := snap.Clone()
	program(clone)
	if snap.Fingerprint() != before {
		t.Fatal("running the clone changed the frozen machine")
	}
	fresh := launch()
	program(fresh)
	if clone.Elapsed() != fresh.Elapsed() || clone.Snapshot() != fresh.Snapshot() {
		t.Errorf("clone: %d cycles %v\nfresh: %d cycles %v", clone.Elapsed(), clone.Snapshot(), fresh.Elapsed(), fresh.Snapshot())
	}
	if clone.Enclave.Measurement() != fresh.Enclave.Measurement() {
		t.Error("clone measurement differs")
	}
}

// TestSnapshotClonesApplyPendingPollution: a machine frozen right
// after a burst of OCALLs owes pollution to every LLC set those calls
// reached and that it has not read since. Clones apply it on their own
// copies as they run: two clones doing OCALL-heavy work end exactly
// where a machine that booted and ran the same program itself does,
// and the frozen LLC — tags and pending state — is unchanged.
func TestSnapshotClonesApplyPendingPollution(t *testing.T) {
	launch := func() *Env {
		env := NewMachine(Config{EPCPages: 64}).NewEnv(LibOS)
		if _, err := env.LaunchEnclave(100, 200); err != nil {
			t.Fatal(err)
		}
		env.EnterPermanently()
		for p := uint64(0); p < 100; p++ {
			env.Main.WriteU64(env.Enclave.Base+p*mem.PageSize, p)
		}
		// Nothing touches the LLC after these; their pollution stays
		// pending in the frozen machine.
		for i := 0; i < 40; i++ {
			env.Main.OCall(func() {})
		}
		return env
	}
	program := func(env *Env) (uint64, perf.Snapshot) {
		t := env.Main
		for i := uint64(0); i < 400; i++ {
			t.ReadU64(env.Enclave.Base + (i*13%100)*mem.PageSize + i%64*8)
			t.Syscall(16)
			t.OCall(func() { t.ReadU64(env.Enclave.Base + (i*7%200)*mem.PageSize) })
		}
		return env.Elapsed(), env.Snapshot()
	}
	llcSum := func(env *Env) [32]byte {
		h := sha256.New()
		env.M.LLC.Hash(h)
		var sum [32]byte
		h.Sum(sum[:0])
		return sum
	}
	frozen := launch()
	snap, err := Freeze(frozen)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint, llc := snap.Fingerprint(), llcSum(frozen)
	wantCycles, wantCounters := program(launch())
	for i := 0; i < 2; i++ {
		if cycles, counters := program(snap.Clone()); cycles != wantCycles || counters != wantCounters {
			t.Errorf("clone %d: %d cycles %v\nfresh: %d cycles %v", i, cycles, counters, wantCycles, wantCounters)
		}
	}
	if llcSum(frozen) != llc {
		t.Error("running clones changed the frozen LLC")
	}
	if snap.Fingerprint() != fingerprint {
		t.Error("running clones changed the frozen machine")
	}
}

// TestSnapshotConcurrentClones: clones taken and run from several
// goroutines at once only read the frozen machine, so each ends where
// a serial clone does and the frozen state is unchanged.
func TestSnapshotConcurrentClones(t *testing.T) {
	env := NewMachine(Config{EPCPages: 64}).NewEnv(LibOS)
	if _, err := env.LaunchEnclave(300, 600); err != nil {
		t.Fatal(err)
	}
	env.EnterPermanently()
	snap, err := Freeze(env)
	if err != nil {
		t.Fatal(err)
	}
	before := snap.Fingerprint()
	run := func() (uint64, perf.Snapshot) {
		c := snap.Clone()
		for i := uint64(0); i < 600; i++ {
			c.Main.WriteU64(c.Enclave.Base+(i*11%600)*mem.PageSize, i)
		}
		return c.Elapsed(), c.Snapshot()
	}
	wantCycles, wantCounters := run()
	const n = 4
	var wg sync.WaitGroup
	cycles := make([]uint64, n)
	counters := make([]perf.Snapshot, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			cycles[i], counters[i] = run()
		}()
	}
	wg.Wait()
	for i := range cycles {
		if cycles[i] != wantCycles || counters[i] != wantCounters {
			t.Errorf("clone %d: %d cycles %v, want %d cycles %v", i, cycles[i], counters[i], wantCycles, wantCounters)
		}
	}
	if snap.Fingerprint() != before {
		t.Error("concurrent clones changed the frozen machine")
	}
}
