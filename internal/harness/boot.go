package harness

import (
	"errors"
	"sync"

	"sgxgauge/internal/libos"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/sgx"
)

// A LibOS boot EADDs an enclave 44 times the EPC and so dominates the
// host cost of a LibOS run, yet the machine it leaves behind depends
// only on the machine configuration and the enclave size: workload
// setup, manifest files and parameters feed host-side file hashes
// alone. runBatch therefore groups a batch's LibOS specs by that boot
// key, boots each key's machine once, freezes it (sgx.Freeze), and
// runs every member on a clone. Results are identical to booting per
// spec. The groups live only as long as the batch: nothing is kept
// across RunAll calls.

// bootKey identifies the machine a LibOS boot produces.
type bootKey struct {
	cfg   sgx.Config // machineConfig, defaults applied
	pages int        // defaulted manifest enclave size
}

// snapshotKey returns the boot key of a spec that may run on a clone
// of a shared boot. Specs that must boot their own machine report
// false: non-LibOS specs, and specs with chaos (the injector's draws
// during boot are part of the run), hooks (they observe the machine
// from birth) or an EPC timeline (it samples the boot).
func snapshotKey(spec Spec) (bootKey, bool) {
	if spec.Mode != sgx.LibOS || spec.Workload == nil || spec.Scenario != nil ||
		spec.Chaos != nil || !spec.Hooks.empty() || spec.Timeline != 0 {
		return bootKey{}, false
	}
	cfg := machineConfig(spec).WithDefaults()
	return bootKey{cfg: cfg, pages: libosManifest(spec, nil).EnclavePages(cfg.EPCPages)}, true
}

// bootGroup is one boot key's members in a batch and the frozen
// machine they share. The first member to need it boots it; each
// member then gives up its seat by cloning (or by finishing without
// cloning), and the group drops the snapshot when the last seat is
// given up, so a serial batch holds at most one snapshot at a time.
type bootGroup struct {
	key     bootKey
	binary  string
	members []int                      // spec indices, in input order
	observe func([]int, *sgx.Snapshot) // test hook; may be nil

	once     sync.Once
	err      error // boot failure, reported by every member
	panicked any   // non-fault boot panic, re-raised in every member

	mu   sync.Mutex
	snap *sgx.Snapshot // guarded by mu
	gone int           // guarded by mu; seats given up so far
}

// boot builds and freezes the group's machine. It runs once, from the
// first member that needs a clone.
func (g *bootGroup) boot() {
	defer func() {
		if r := recover(); r != nil {
			g.panicked = r
		}
	}()
	m := sgx.NewMachine(g.key.cfg)
	man := libos.Manifest{Binary: g.binary, EnclaveSizePages: g.key.pages}
	var inst *libos.Instance
	var err error
	if perr := sgx.Protect(func() {
		inst, err = libos.StartWithTimeline(m, osal.NewFS(), man, 0)
	}); perr != nil {
		err = perr
	}
	if err != nil {
		g.err = err
		return
	}
	snap, err := sgx.Freeze(inst.Env)
	if err != nil {
		g.err = err
		return
	}
	if g.observe != nil {
		g.observe(g.members, snap)
	}
	g.mu.Lock()
	g.snap = snap
	g.mu.Unlock()
}

// bootSeat is one member's claim on its group's snapshot.
type bootSeat struct {
	g    *bootGroup
	gone bool
}

// start is libos.StartWithTimeline for the seat's spec: the manifest
// is processed as usual, but the environment is a clone of the
// group's frozen boot.
func (s *bootSeat) start(fs *osal.FS, man libos.Manifest, epcPages int) (*libos.Instance, error) {
	inst, err := libos.Load(fs, man, epcPages)
	if err != nil {
		return nil, err
	}
	g := s.g
	g.once.Do(g.boot)
	if g.panicked != nil {
		panic(g.panicked)
	}
	if g.err != nil {
		return nil, g.err
	}
	snap := s.leave()
	if snap == nil {
		return nil, errors.New("harness: boot snapshot released before its last member")
	}
	if err := inst.Attach(snap.Clone()); err != nil {
		return nil, err
	}
	return inst, nil
}

// leave gives up the seat and returns the snapshot as it stood, or
// nil if the seat was already given up. Safe on a nil seat.
func (s *bootSeat) leave() *sgx.Snapshot {
	if s == nil || s.gone {
		return nil
	}
	s.gone = true
	g := s.g
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := g.snap
	if g.gone++; g.gone == len(g.members) {
		g.snap = nil
	}
	return snap
}

// planBoots returns the batch's execution order and each spec's seat.
// Specs sharing a boot key with at least one other spec get a seat
// and run consecutively at the position of their key's first member;
// every other spec keeps its own position and boots its own machine
// (nil seat), as does every spec when a remote executor (o.exec) runs
// the batch. Grouping follows input order only, never map order.
func planBoots(specs []Spec, o *engineOpts) ([]int, []*bootSeat) {
	groups := make(map[bootKey]*bootGroup)
	groupOf := make([]*bootGroup, len(specs))
	for i, spec := range specs {
		key, ok := snapshotKey(spec)
		if !ok || o.exec != nil {
			continue
		}
		g := groups[key]
		if g == nil {
			g = &bootGroup{key: key, binary: spec.Workload.Name(), observe: o.onSnapshot}
			groups[key] = g
		}
		g.members = append(g.members, i)
		groupOf[i] = g
	}
	order := make([]int, 0, len(specs))
	seats := make([]*bootSeat, len(specs))
	for i, g := range groupOf {
		switch {
		case g == nil || len(g.members) == 1:
			order = append(order, i)
		case g.members[0] == i:
			for _, j := range g.members {
				order = append(order, j)
				seats[j] = &bootSeat{g: g}
			}
		}
	}
	return order, seats
}
