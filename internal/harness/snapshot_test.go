package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/libos"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// Boot snapshots: a LibOS spec run on a clone of a batch's frozen boot
// must be indistinguishable from the same spec booting its own
// machine, and running clones must never disturb the frozen machine.

// frozenBoot is one snapshot a batch froze, with its fingerprint at
// freeze time.
type frozenBoot struct {
	members []int
	snap    *sgx.Snapshot
	sum     [32]byte
}

// observeBoots returns an option recording every snapshot a batch
// freezes, and the list it records into. check, when non-nil, runs on
// each snapshot as it is frozen, before any member clones it.
func observeBoots(check func([]int, *sgx.Snapshot)) (Option, func() []frozenBoot) {
	var mu sync.Mutex
	var boots []frozenBoot
	opt := func(o *engineOpts) {
		o.onSnapshot = func(members []int, snap *sgx.Snapshot) {
			if check != nil {
				check(members, snap)
			}
			sum := snap.Fingerprint()
			mu.Lock()
			boots = append(boots, frozenBoot{members: slices.Clone(members), snap: snap, sum: sum})
			mu.Unlock()
		}
	}
	return opt, func() []frozenBoot {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(boots)
	}
}

// libosSuite returns every suite workload that runs in LibOS mode.
func libosSuite() []workloads.Workload {
	return append(suite.All(), suite.Empty(), suite.Iozone())
}

// requireSameAsFresh runs every spec alone on a fresh machine and
// requires the batch's result for it to match: identical ResultWire
// JSON, timeline and EPC operation statistics. The reference runs
// share a worker pool so the check stays affordable under -race.
func requireSameAsFresh(t *testing.T, specs []Spec, batch []Result) {
	t.Helper()
	fresh := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	forEach(len(specs), 4, func(i int) { fresh[i], errs[i] = runOne(specs[i]) })
	for i, spec := range specs {
		if errs[i] != nil || batch[i].Err != nil {
			t.Fatalf("%s/%v epc %d seed %d: alone %v, in batch %v", spec.Workload.Name(), spec.Size, spec.EPCPages, spec.Seed, errs[i], batch[i].Err)
		}
		requireSame(t, spec, &batch[i], fresh[i])
	}
}

func requireSame(t *testing.T, spec Spec, got, want *Result) {
	t.Helper()
	wantJSON, err := json.Marshal(want.Wire())
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got.Wire())
	if err != nil {
		t.Fatal(err)
	}
	name := spec.Workload.Name()
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("%s/%v epc %d seed %d: batch result differs from a fresh boot:\n got %s\nwant %s",
			name, spec.Size, spec.EPCPages, spec.Seed, gotJSON, wantJSON)
	}
	if !reflect.DeepEqual(got.Timeline, want.Timeline) {
		t.Errorf("%s/%v: timeline differs from a fresh boot", name, spec.Size)
	}
	if !reflect.DeepEqual(got.OpStats, want.OpStats) {
		t.Errorf("%s/%v: op stats differ from a fresh boot: got %v, want %v", name, spec.Size, got.OpStats, want.OpStats)
	}
}

// TestSnapshotClonesMatchFreshBoots runs every LibOS workload at Low
// and High, EPC 64 and 256, seeds 1 and 2 in one batch on four
// workers, so each (EPC, seed) pair shares one frozen boot. Every
// result must equal the spec run alone, every clone's launch
// measurement must equal a fresh boot's, and every snapshot's sealed
// pages and EPC must be unchanged once all its clones have run —
// including the thrashing High runs at EPC 64.
func TestSnapshotClonesMatchFreshBoots(t *testing.T) {
	var specs []Spec
	for _, epc := range []int{64, 256} {
		for _, seed := range []int64{1, 2} {
			for _, w := range libosSuite() {
				for _, size := range []workloads.Size{workloads.Low, workloads.High} {
					specs = append(specs, Spec{Workload: w, Mode: sgx.LibOS, Size: size, EPCPages: epc, Seed: seed})
				}
			}
		}
	}
	measure := func(members []int, snap *sgx.Snapshot) {
		spec := specs[members[0]]
		m := sgx.NewMachine(machineConfig(spec))
		inst, err := libos.Start(m, osal.NewFS(), libos.Manifest{Binary: "fresh"})
		if err != nil {
			t.Errorf("fresh boot: %v", err)
			return
		}
		if got, want := snap.Clone().Enclave.Measurement(), inst.Env.Enclave.Measurement(); got != want {
			t.Errorf("epc %d seed %d: clone measurement %x, fresh boot %x", spec.EPCPages, spec.Seed, got, want)
		}
	}
	observe, boots := observeBoots(measure)
	results, err := execBatch(specs, Workers(4), observe)
	if err != nil {
		t.Fatal(err)
	}

	frozen := boots()
	if len(frozen) != 4 {
		t.Fatalf("batch froze %d boots, want one per (EPC, seed) pair: 4", len(frozen))
	}
	seen := make([]bool, len(specs))
	for _, f := range frozen {
		if got := f.snap.Fingerprint(); got != f.sum {
			t.Errorf("snapshot of specs %v changed while its clones ran", f.members)
		}
		for _, i := range f.members {
			seen[i] = true
		}
	}
	for i, spec := range specs {
		if !seen[i] {
			t.Errorf("spec %d (%s) did not run on a snapshot clone", i, spec.Workload.Name())
		}
	}
	requireSameAsFresh(t, specs, results)
}

// TestSnapshotBypass: chaos, hooks and EPC timelines observe or
// perturb the boot itself, so such specs boot their own machine, as
// does a spec whose boot key no other spec shares. Only the specs with
// a common, clean key share a snapshot, and they run at the position
// of their key's first member.
func TestSnapshotBypass(t *testing.T) {
	empty := suite.Empty()
	base := Spec{Workload: empty, Mode: sgx.LibOS, Size: workloads.Low, EPCPages: 64, Seed: 3}
	with := func(f func(*Spec)) Spec {
		s := base
		f(&s)
		return s
	}
	var hooked int
	specs := []Spec{
		base,
		with(func(s *Spec) { s.Chaos = &chaos.Config{Seed: 5, Rate: 0.01, AEXStorm: true} }),
		with(func(s *Spec) { s.Hooks.OnMachine = func(*sgx.Machine) { hooked++ } }),
		with(func(s *Spec) { s.Timeline = 64 }),
		with(func(s *Spec) { s.EPCPages = 96 }),
		with(func(s *Spec) { s.Mode = sgx.Vanilla }),
		with(func(s *Spec) { s.Size = workloads.High }),
		with(func(s *Spec) { s.Workload = suite.Iozone() }),
	}
	order, _ := planBoots(specs, &engineOpts{})
	if want := []int{0, 6, 7, 1, 2, 3, 4, 5}; !slices.Equal(order, want) {
		t.Errorf("execution order %v, want %v", order, want)
	}

	observe, boots := observeBoots(nil)
	results, err := execBatch(specs, Workers(1), observe)
	if err != nil {
		t.Fatal(err)
	}
	frozen := boots()
	if len(frozen) != 1 || !slices.Equal(frozen[0].members, []int{0, 6, 7}) {
		var got [][]int
		for _, f := range frozen {
			got = append(got, f.members)
		}
		t.Fatalf("snapshot groups %v, want exactly [[0 6 7]]", got)
	}
	if hooked != 1 {
		t.Errorf("OnMachine ran %d times, want once (a hooked spec boots its own machine)", hooked)
	}
	var plain []Spec
	var plainResults []Result
	for i, spec := range specs {
		if spec.Chaos == nil && spec.Hooks.empty() {
			plain = append(plain, spec)
			plainResults = append(plainResults, results[i])
		}
	}
	requireSameAsFresh(t, plain, plainResults)
	if len(results[3].Timeline) == 0 {
		t.Error("timeline spec recorded no boot timeline")
	}
}

// TestPlanBootsGroupsStably: interleaved keys group by first
// appearance, members keep input order, and every spec appears once.
// A batch a remote executor runs boots nothing here, so it keeps input
// order and gets no seats.
func TestPlanBootsGroupsStably(t *testing.T) {
	at := func(epc int) Spec {
		return Spec{Workload: suite.Empty(), Mode: sgx.LibOS, EPCPages: epc}
	}
	specs := []Spec{at(64), at(96), at(64), {Workload: suite.Empty(), Mode: sgx.Native}, at(96), at(128), at(64)}
	order, seats := planBoots(specs, &engineOpts{})
	if want := []int{0, 2, 6, 1, 4, 3, 5}; !slices.Equal(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	for i, seat := range seats {
		if grouped := seat != nil; grouped != (i != 3 && i != 5) {
			t.Errorf("spec %d: seat %v", i, seat)
		}
	}

	remote := &engineOpts{exec: func(Spec) (*Result, error) { return nil, nil }}
	order, seats = planBoots(specs, remote)
	if want := []int{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(order, want) {
		t.Errorf("remote batch order %v, want %v", order, want)
	}
	for i, seat := range seats {
		if seat != nil {
			t.Errorf("remote batch spec %d has a seat", i)
		}
	}
}
