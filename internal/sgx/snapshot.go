package sgx

import (
	"crypto/sha256"
	"errors"

	"sgxgauge/internal/cache"
	"sgxgauge/internal/enclave"
	"sgxgauge/internal/tlb"
)

// Snapshot is a machine frozen after a deterministic set-up phase (a
// LibOS boot), from which any number of runs start on copies. The
// frozen machine never runs again; Clone hands out an independent
// machine whose simulated state equals the frozen one, so a run on a
// clone is indistinguishable from a run on a machine that performed
// the set-up itself.
//
// Clones share the frozen machine's sealed pages instead of copying
// them (see mem.BackingStore.Inherit): the launch storm of a LibOS
// enclave leaves most of its pages sealed, and a clone only ever
// replaces or drops those, never writes into them. Everything else a
// run can change is copied.
type Snapshot struct {
	env *Env
}

// Freeze turns env's machine into a snapshot. From here on the
// machine must not run: only Clone and Fingerprint may touch it, and
// both only read, so clones may be taken concurrently. A machine with
// a chaos injector, a tracer or an EPC timeline cannot be frozen: the
// injector's draws, the observer and the timeline's clock are not
// machine state a clone could continue from.
func Freeze(env *Env) (*Snapshot, error) {
	m := env.M
	switch {
	case m.chaos != nil:
		return nil, errors.New("sgx: cannot freeze a machine with a chaos injector")
	case m.tracer != nil:
		return nil, errors.New("sgx: cannot freeze a traced machine")
	case m.EPC.Sampling():
		return nil, errors.New("sgx: cannot freeze a machine sampling an EPC timeline")
	}
	return &Snapshot{env: env}, nil
}

// Clone returns the frozen environment on a fresh copy of its machine.
// The copy is built by NewMachine from the same configuration, so its
// EPC hooks are wired exactly as on any machine, and then takes over
// the frozen state: EPC slots, frames, indices, CLOCK hand, operation
// statistics and jitter; the backing store (shared sealed pages); the
// LLC; counters and per-thread shards; enclaves; and every thread's
// clock, dTLB, L1 and transition state.
//
// Page memos start empty. A memo only caches resolutions that are
// also in the thread's dTLB, and every access resolves the same way
// with or without it (the fast/slow differential tests pin this), so
// an empty memo charges exactly what a copied one would.
func (s *Snapshot) Clone() *Env {
	src := s.env.M
	m := NewMachine(src.cfg)
	m.Counters.CopyFrom(src.Counters)
	m.Backing.Inherit(src.Backing)
	m.EPC.CopyFrom(src.EPC)
	m.LLC.CopyFrom(src.LLC)
	//sgxlint:ignore determinism each entry is copied to its own key of a fresh map; the result is order-independent
	for vpn, f := range src.untrusted {
		cp := *f
		m.untrusted[vpn] = &cp
	}
	m.untrustedNext = src.untrustedNext
	encs := make(map[*enclave.Enclave]*enclave.Enclave, len(src.enclaves))
	for _, e := range src.enclaves {
		c := e.Clone()
		encs[e] = c
		m.enclaves = append(m.enclaves, c)
	}
	m.nextEnclave, m.enclaveNext = src.nextEnclave, src.enclaveNext
	m.switchlessSeq = src.switchlessSeq

	envs := make(map[*Env]*Env)
	for _, t := range src.threads {
		env := envs[t.env]
		if env == nil {
			e := t.env
			env = &Env{
				M:               m,
				Mode:            e.Mode,
				Enclave:         encs[e.Enclave],
				concurrency:     e.concurrency,
				nextThread:      e.nextThread,
				insideByDefault: e.insideByDefault,
			}
			envs[e] = env
		}
		c := &Thread{
			ID:           t.ID,
			Clock:        t.Clock,
			env:          env,
			tlb:          tlb.New(m.cfg.TLBEntries, m.cfg.TLBWays),
			shard:        m.Counters.NewShard(),
			enclaveDepth: t.enclaveDepth,
		}
		c.tlb.CopyFrom(t.tlb)
		c.shard.CopyFrom(t.shard)
		if t.l1 != nil {
			c.l1 = cache.NewL1(m.cfg.L1Bytes)
			c.l1.CopyFrom(t.l1)
		}
		if t == t.env.Main {
			env.Main = c
		}
		m.threads = append(m.threads, c)
	}
	return envs[s.env]
}

// Fingerprint returns a SHA-256 over the frozen machine's sealed
// pages, EPC (slot table and frame arena) and LLC (tags and pending
// pollution): the state clones share or copy. It lets tests prove
// that running clones leaves the snapshot untouched.
func (s *Snapshot) Fingerprint() [32]byte {
	h := sha256.New()
	s.env.M.Backing.Hash(h)
	s.env.M.EPC.Hash(h)
	s.env.M.LLC.Hash(h)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}
