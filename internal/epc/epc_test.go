package epc

import (
	"errors"
	"testing"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

func newTestEPC(capacity int) (*EPC, *perf.Counters, *cycles.Clock, cycles.CostModel) {
	counters := &perf.Counters{}
	e := New(capacity, mee.New(1), mem.NewBackingStore(), counters)
	return e, counters, &cycles.Clock{}, cycles.DefaultCosts()
}

func id(vpn uint64) mem.PageID { return mem.PageID{Enclave: 1, VPN: vpn} }

// mustAlloc is AllocPage for tests that expect it to succeed.
func mustAlloc(t *testing.T, e *EPC, clk *cycles.Clock, costs *cycles.CostModel, pid mem.PageID) *mem.Frame {
	t.Helper()
	f, err := e.AllocPage(clk, costs, pid)
	if err != nil {
		t.Fatalf("AllocPage(%v): %v", pid, err)
	}
	return f
}

func TestAllocAndLookup(t *testing.T) {
	e, counters, clk, costs := newTestEPC(32)
	f := mustAlloc(t, e, clk, &costs, id(10))
	if f == nil {
		t.Fatal("AllocPage returned nil")
	}
	got, ok := e.Lookup(id(10))
	if !ok || got != f {
		t.Fatal("Lookup did not return the allocated frame")
	}
	if counters.Get(perf.EPCAllocs) != 1 {
		t.Errorf("EPCAllocs = %d, want 1", counters.Get(perf.EPCAllocs))
	}
	if clk.Cycles() == 0 {
		t.Error("AllocPage charged no cycles")
	}
	if e.Resident() != 1 {
		t.Errorf("Resident = %d, want 1", e.Resident())
	}
}

func TestAllocResidentPanics(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	mustAlloc(t, e, clk, &costs, id(1))
	defer func() {
		if recover() == nil {
			t.Error("double alloc did not panic")
		}
	}()
	mustAlloc(t, e, clk, &costs, id(1))
}

func TestBatchEvictionOnPressure(t *testing.T) {
	e, counters, clk, costs := newTestEPC(32)
	for vpn := uint64(0); vpn < 32; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	if counters.Get(perf.EPCEvictions) != 0 {
		t.Fatal("evictions before capacity exceeded")
	}
	// One more allocation forces a 16-page batch eviction.
	mustAlloc(t, e, clk, &costs, id(100))
	if got := counters.Get(perf.EPCEvictions); got != BatchEvictPages {
		t.Errorf("evictions = %d, want %d (one batch)", got, BatchEvictPages)
	}
	if e.Resident() != 32-BatchEvictPages+1 {
		t.Errorf("Resident = %d", e.Resident())
	}
}

func TestDataSurvivesEvictionAndFault(t *testing.T) {
	e, counters, clk, costs := newTestEPC(32)
	f := mustAlloc(t, e, clk, &costs, id(0))
	for i := range f.Data {
		f.Data[i] = byte(i % 251)
	}
	// Evict page 0 deterministically through the normal EWB path.
	if ok, err := e.EvictPage(clk, &costs, id(0)); err != nil || !ok {
		t.Fatalf("EvictPage: ok=%v err=%v", ok, err)
	}
	if _, ok := e.Lookup(id(0)); ok {
		t.Fatal("page 0 still resident after EvictPage")
	}
	got, loaded, err := e.Fault(clk, &costs, id(0))
	if err != nil {
		t.Fatalf("Fault: %v", err)
	}
	if !loaded {
		t.Fatal("Fault did not load back a previously-evicted page")
	}
	for i := range got.Data {
		if got.Data[i] != byte(i%251) {
			t.Fatalf("byte %d corrupted after evict/load-back: %d", i, got.Data[i])
		}
	}
	if counters.Get(perf.EPCLoadBacks) == 0 {
		t.Error("no load-back counted")
	}
}

func TestFaultFreshAllocation(t *testing.T) {
	e, counters, clk, costs := newTestEPC(32)
	f, loaded, err := e.Fault(clk, &costs, id(7))
	if err != nil {
		t.Fatalf("Fault: %v", err)
	}
	if loaded {
		t.Error("first-touch fault claimed a load-back")
	}
	for _, b := range f.Data[:64] {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
	if counters.Get(perf.EPCLoadBacks) != 0 {
		t.Error("load-back counted for a fresh allocation")
	}
}

func TestFaultResidentPanics(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	mustAlloc(t, e, clk, &costs, id(1))
	defer func() {
		if recover() == nil {
			t.Error("Fault on resident page did not panic")
		}
	}()
	e.Fault(clk, &costs, id(1))
}

func TestTamperedBackingStoreDetected(t *testing.T) {
	counters := &perf.Counters{}
	backing := mem.NewBackingStore()
	e := New(32, mee.New(1), backing, counters)
	clk := &cycles.Clock{}
	costs := cycles.DefaultCosts()

	f := mustAlloc(t, e, clk, &costs, id(0))
	f.Data[0] = 0x42
	if ok, err := e.EvictPage(clk, &costs, id(0)); err != nil || !ok {
		t.Fatalf("EvictPage: ok=%v err=%v", ok, err)
	}
	sp := backing.Get(id(0))
	if sp == nil {
		t.Fatal("evicted page missing from backing store")
	}
	sp.Ciphertext[0] ^= 1
	if _, _, err := e.Fault(clk, &costs, id(0)); err == nil {
		t.Fatal("tampered page loaded back without error")
	}
}

func TestDroppedSealedPageDetected(t *testing.T) {
	counters := &perf.Counters{}
	backing := mem.NewBackingStore()
	e := New(32, mee.New(1), backing, counters)
	clk := &cycles.Clock{}
	costs := cycles.DefaultCosts()

	mustAlloc(t, e, clk, &costs, id(0))
	if ok, err := e.EvictPage(clk, &costs, id(0)); err != nil || !ok {
		t.Fatalf("EvictPage: ok=%v err=%v", ok, err)
	}
	// The untrusted OS "loses" the sealed page.
	backing.Delete(id(0))
	_, _, err := e.Fault(clk, &costs, id(0))
	if !errors.Is(err, ErrPageLost) {
		t.Fatalf("Fault after dropped page: err=%v, want ErrPageLost", err)
	}
}

func TestEvictPageNonResident(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	if ok, err := e.EvictPage(clk, &costs, id(5)); err != nil || ok {
		t.Fatalf("EvictPage of non-resident page: ok=%v err=%v", ok, err)
	}
}

func TestResizeShrinkAndGrow(t *testing.T) {
	e, counters, clk, costs := newTestEPC(64)
	for vpn := uint64(0); vpn < 64; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	if err := e.Resize(clk, &costs, 32); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if e.Capacity() != 32 {
		t.Errorf("capacity = %d, want 32", e.Capacity())
	}
	if e.Resident() > 32 {
		t.Errorf("resident = %d exceeds shrunk capacity", e.Resident())
	}
	if counters.Get(perf.EPCEvictions) < 32 {
		t.Errorf("shrink evicted %d pages, want >= 32", counters.Get(perf.EPCEvictions))
	}
	if counters.Get(perf.EPCResizes) != 1 {
		t.Errorf("EPCResizes = %d, want 1", counters.Get(perf.EPCResizes))
	}
	// Every surviving resident page must still be found, and evicted
	// ones must load back intact.
	for vpn := uint64(0); vpn < 64; vpn++ {
		if _, ok := e.Lookup(id(vpn)); !ok {
			if _, _, err := e.Fault(clk, &costs, id(vpn)); err != nil {
				t.Fatalf("fault after shrink (vpn %d): %v", vpn, err)
			}
		}
	}
	if err := e.Resize(clk, &costs, 96); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if e.Capacity() != 96 {
		t.Errorf("capacity = %d, want 96", e.Capacity())
	}
	for vpn := uint64(100); vpn < 140; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	if counters.Get(perf.EPCResizes) != 2 {
		t.Errorf("EPCResizes = %d, want 2", counters.Get(perf.EPCResizes))
	}
}

func TestResizeClampsToMinimum(t *testing.T) {
	e, _, clk, costs := newTestEPC(64)
	if err := e.Resize(clk, &costs, 1); err != nil {
		t.Fatalf("resize: %v", err)
	}
	if e.Capacity() != MinCapacity {
		t.Errorf("capacity = %d, want MinCapacity %d", e.Capacity(), MinCapacity)
	}
}

func TestEPCMLookup(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	mustAlloc(t, e, clk, &costs, id(9))
	ent := e.EPCMLookup(id(9))
	if !ent.Valid || ent.Owner != 1 || ent.VPN != 9 {
		t.Errorf("EPCM entry = %+v", ent)
	}
	if e.EPCMLookup(id(10)).Valid {
		t.Error("EPCM entry valid for non-resident page")
	}
}

func TestEvictHookFires(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	var evicted []mem.PageID
	e.SetEvictHook(func(pid mem.PageID) { evicted = append(evicted, pid) })
	for vpn := uint64(0); vpn <= 32; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	if len(evicted) != BatchEvictPages {
		t.Errorf("hook fired %d times, want %d", len(evicted), BatchEvictPages)
	}
}

func TestOpStats(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	for vpn := uint64(0); vpn <= 40; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	alloc := e.OpStatsFor(OpAlloc)
	if alloc.Samples != 41 {
		t.Errorf("alloc samples = %d, want 41", alloc.Samples)
	}
	if alloc.MeanCycles() < float64(costs.EPCAlloc) {
		t.Errorf("alloc mean = %v below base cost %d", alloc.MeanCycles(), costs.EPCAlloc)
	}
	ewb := e.OpStatsFor(OpEWB)
	if ewb.Samples == 0 || ewb.Min == 0 || ewb.Max < ewb.Min {
		t.Errorf("ewb stats malformed: %+v", ewb)
	}
	// Figure 7 calibration: mean EWB should sit near 12K cycles and
	// exceed mean ELDU by roughly 16%.
	if m := ewb.MeanCycles(); m < float64(costs.EWBPage) || m > 1.2*float64(costs.EWBPage) {
		t.Errorf("EWB mean = %v, want near %d", m, costs.EWBPage)
	}
	if e.OpStatsFor(OpELDU).Samples != 0 {
		t.Error("phantom ELDU samples")
	}
}

func TestOpStatsEWBELDURatio(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	// Drive a thrash pattern so both EWB and ELDU accumulate samples.
	for round := 0; round < 20; round++ {
		for vpn := uint64(0); vpn < 64; vpn++ {
			if _, ok := e.Lookup(id(vpn)); !ok {
				if _, _, err := e.Fault(clk, &costs, id(vpn)); err != nil {
					t.Fatalf("fault: %v", err)
				}
			}
		}
	}
	ewb, eldu := e.OpStatsFor(OpEWB), e.OpStatsFor(OpELDU)
	if ewb.Samples < 100 || eldu.Samples < 100 {
		t.Fatalf("not enough samples: ewb=%d eldu=%d", ewb.Samples, eldu.Samples)
	}
	ratio := ewb.MeanCycles() / eldu.MeanCycles()
	if ratio < 1.10 || ratio > 1.25 {
		t.Errorf("EWB/ELDU mean ratio = %.3f, want ~1.16 (paper Appendix A)", ratio)
	}
}

func TestTimeline(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	e.EnableTimeline(clk, 4)
	for vpn := uint64(0); vpn < 40; vpn++ {
		mustAlloc(t, e, clk, &costs, id(vpn))
	}
	tl := e.Timeline()
	if len(tl) == 0 {
		t.Fatal("no timeline samples")
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Cycle < tl[i-1].Cycle || tl[i].Allocs < tl[i-1].Allocs {
			t.Fatal("timeline is not monotone")
		}
	}
}

func TestRemoveEnclave(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	mustAlloc(t, e, clk, &costs, mem.PageID{Enclave: 1, VPN: 0})
	mustAlloc(t, e, clk, &costs, mem.PageID{Enclave: 2, VPN: 0})
	e.RemoveEnclave(1)
	if _, ok := e.Lookup(mem.PageID{Enclave: 1, VPN: 0}); ok {
		t.Error("enclave 1 page survived RemoveEnclave")
	}
	if _, ok := e.Lookup(mem.PageID{Enclave: 2, VPN: 0}); !ok {
		t.Error("enclave 2 page was removed")
	}
}

func TestRemovePage(t *testing.T) {
	e, _, clk, costs := newTestEPC(32)
	mustAlloc(t, e, clk, &costs, id(3))
	e.Remove(id(3))
	if _, ok := e.Lookup(id(3)); ok {
		t.Error("page survived Remove")
	}
	// Removed page faults back as a fresh (zero) page.
	_, loaded, err := e.Fault(clk, &costs, id(3))
	if err != nil || loaded {
		t.Errorf("fault after Remove: loaded=%v err=%v", loaded, err)
	}
}

func TestMinimumCapacity(t *testing.T) {
	e := New(1, mee.New(1), mem.NewBackingStore(), &perf.Counters{})
	if e.Capacity() < BatchEvictPages+1 {
		t.Errorf("capacity = %d, must exceed one eviction batch", e.Capacity())
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{
		OpAlloc: "sgx_alloc_page",
		OpEWB:   "sgx_ewb",
		OpELDU:  "sgx_eldu",
		OpFault: "sgx_do_fault",
	}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(op), op.String(), want)
		}
	}
}

// poison fills every byte of a sealed page with 0xFF.
func poison(sp *mem.SealedPage) {
	sp.ID = mem.PageID{Enclave: ^uint32(0), VPN: ^uint64(0)}
	sp.Version = ^uint64(0)
	for i := range sp.Ciphertext {
		sp.Ciphertext[i] = 0xFF
	}
	for i := range sp.MAC {
		sp.MAC[i] = 0xFF
	}
}

// TestPoisonedSealStorageSealsLikeZero checks that sealing overwrites
// every field of the storage Reserve hands out, so recycled or slab
// pages holding stale bytes seal exactly like a zero-value page.
func TestPoisonedSealStorageSealsLikeZero(t *testing.T) {
	var f mem.Frame
	for i := range f.Data {
		f.Data[i] = byte(i * 7)
	}
	b := mee.New(1).NewBatch()
	var zero, dirty mem.SealedPage
	poison(&dirty)
	b.SealPageInto(&zero, id(5), 3, &f)
	b.SealPageInto(&dirty, id(5), 3, &f)
	if zero != dirty {
		t.Fatal("sealing into a poisoned page differs from sealing into a zero page")
	}

	// Through the EPC: one store starts with a free list of poisoned
	// pages (carved from its slab, then retired), the other is fresh.
	run := func(backing *mem.BackingStore) *mem.BackingStore {
		e := New(32, mee.New(1), backing, &perf.Counters{})
		clk, costs := &cycles.Clock{}, cycles.DefaultCosts()
		for v := uint64(0); v < 200; v++ {
			fr := mustAlloc(t, e, clk, &costs, id(v))
			fr.Data[v%mem.PageSize] = byte(v) | 1
		}
		return backing
	}
	dirtyStore := mem.NewBackingStore()
	for v := uint64(0); v < 100; v++ {
		sp := dirtyStore.Reserve()
		poison(sp)
		sp.ID = mem.PageID{Enclave: 99, VPN: v}
		dirtyStore.Put(sp)
	}
	dirtyStore.DropEnclave(99)
	want, got := run(mem.NewBackingStore()), run(dirtyStore)
	if want.Len() != got.Len() || want.Len() == 0 {
		t.Fatalf("stores hold %d and %d sealed pages", want.Len(), got.Len())
	}
	for v := uint64(0); v < 200; v++ {
		w, g := want.Get(id(v)), got.Get(id(v))
		if (w == nil) != (g == nil) || (w != nil && *w != *g) {
			t.Fatalf("page %d seals differently on recycled poisoned storage", v)
		}
	}
}

// TestEvictionStormAllocations guards the slab: sealing evicted pages
// must not allocate per page.
func TestEvictionStormAllocations(t *testing.T) {
	e, _, clk, costs := newTestEPC(64)
	next := uint64(0)
	storm := func() {
		for i := 0; i < 1024; i++ {
			if _, err := e.AllocPage(clk, &costs, id(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	storm() // fill the EPC and warm the eviction scratch
	evictions := e.counters.Get(perf.EPCEvictions)
	allocs := testing.AllocsPerRun(8, storm)
	perStorm := float64(e.counters.Get(perf.EPCEvictions)-evictions) / 9 // AllocsPerRun adds a warm-up call
	if perStorm < 1000 {
		t.Fatalf("%v evictions per storm, want ~1024", perStorm)
	}
	if limit := perStorm / 32; allocs > limit {
		t.Errorf("eviction storm allocates %v objects for %v evicted pages, want <= %v", allocs, perStorm, limit)
	}
	t.Logf("%v allocations per %v evictions", allocs, perStorm)
}
