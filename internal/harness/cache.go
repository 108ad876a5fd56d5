package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
)

// ResultCache stores completed Results keyed by canonical spec
// identity (Key). Implementations must be safe for concurrent use.
// The default runner cache is an unbounded in-process map; the
// sgxgauged daemon swaps in a sharded, size-bounded implementation
// (internal/serve).
type ResultCache interface {
	// Get returns the cached result for key, if present.
	Get(Key) (*Result, bool)
	// Add stores res under key unless the key is already present and
	// returns the entry the cache now holds — the earlier one on a
	// duplicate insert, so callers comparing identities always see
	// one canonical pointer per key.
	Add(Key, *Result) *Result
	// Len reports the number of cached results.
	Len() int
}

// mapCache is the default unbounded ResultCache.
type mapCache struct {
	mu sync.Mutex
	m  map[Key]*Result // guarded by mu
}

func newMapCache() *mapCache { return &mapCache{m: make(map[Key]*Result)} }

func (c *mapCache) Get(k Key) (*Result, bool) {
	c.mu.Lock()
	res, ok := c.m[k]
	c.mu.Unlock()
	return res, ok
}

func (c *mapCache) Add(k Key, res *Result) *Result {
	c.mu.Lock()
	if prev, ok := c.m[k]; ok {
		res = prev
	} else {
		c.m[k] = res
	}
	c.mu.Unlock()
	return res
}

func (c *mapCache) Len() int {
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return n
}

// Runner caches Results so the report generators can share runs
// between tables and figures (every figure of the paper draws from the
// same experiment grid), and is the module's single batch-execution
// surface: Run, Get and the figure/table generators are all thin
// wrappers over RunAll, which feeds the options-based parallel engine.
//
// It is also the one place that decides whether a spec executes: a
// cache miss whose key another RunAll call is already executing joins
// that run instead of starting its own, and every execution, from any
// number of concurrent batches, holds one of Jobs slots.
//
// Error convention (uniform across Run/RunAll/Get): a spec's own
// failure lands in its Result.Err — the batch always returns one
// Result per spec — while the error return is reserved for
// engine-level failure, i.e. the batch being cut short by context
// cancellation (WithContext).
type Runner struct {
	// EPCPages is the simulated EPC size used for all runs
	// (0 = machine default).
	EPCPages int
	// Seed is the base seed.
	Seed int64
	// Jobs bounds how many specs execute at once across all of the
	// runner's concurrent batches, sized at the first one, and is each
	// batch's default goroutine count, which Workers overrides
	// (0 = GOMAXPROCS).
	Jobs int
	// Progress, when non-nil, receives one event per spec completed
	// by a RunAll batch; the OnProgress option overrides it per call.
	Progress func(Progress)
	// Cache stores completed results, keyed by the SHA-256 of each
	// normalized spec's canonical JSON encoding. NewRunner installs
	// the default unbounded map; replace it before first use to bound
	// or share the cache. Failed runs and specs carrying Hooks are
	// never cached.
	Cache ResultCache
	// Exec, when non-nil, replaces local machine execution for specs
	// that are hook-free and canonically encodable: the engine calls
	// it, holding one of the runner's slots, instead of booting a
	// simulated machine, and everything around execution — cache
	// probes, deduplication, progress events, result caching — still
	// happens in this Runner. The sgxgauged coordinator uses it to
	// farm execution out to a worker fleet. Exec hands a spec back for
	// in-process execution (under the engine's retry and chaos
	// policies, which belong to whoever actually runs the machine) by
	// returning ErrExecLocal. Exec must be safe for concurrent use; it
	// receives normalized specs and returns the spec's own failure
	// inside the Result, reserving the error return for
	// transport-level trouble.
	Exec func(Spec) (*Result, error)

	initOnce sync.Once
	// slots is the execution bound shared by every batch.
	slots chan struct{}

	mu sync.Mutex
	// inflight maps every key some batch is executing to that batch's
	// cell; an entry lives exactly as long as its run. guarded by mu
	inflight map[Key]*cell

	executed atomic.Uint64 // specs this runner executed
	joined   atomic.Uint64 // cache misses that joined another batch's run
}

// ErrExecLocal is returned by a Runner's Exec to hand a spec back to
// the engine for in-process execution on the slot the call holds.
var ErrExecLocal = errors.New("harness: execute locally")

// NewRunner returns a Runner for the given EPC size.
func NewRunner(epcPages int) *Runner {
	return &Runner{EPCPages: epcPages, Cache: newMapCache()}
}

// init installs the default cache and sizes the execution bound on
// first use, so a zero Runner still works.
func (r *Runner) init() {
	r.initOnce.Do(func() {
		if r.Cache == nil {
			r.Cache = newMapCache()
		}
		n := r.Jobs
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.slots = make(chan struct{}, n)
	})
}

// Stats reports how many specs the runner executed (in-process or
// through Exec), how many joined another batch's in-flight run
// instead, and how many execution slots are busy right now.
func (r *Runner) Stats() (executed, joined uint64, busy int) {
	r.init()
	return r.executed.Load(), r.joined.Load(), len(r.slots)
}

// Normalize returns the spec as the runner actually files and runs
// it: the runner's EPC size and seed forced onto fields the spec
// leaves zero.
func (r *Runner) Normalize(spec Spec) Spec {
	if spec.EPCPages == 0 {
		spec.EPCPages = r.EPCPages
	}
	if spec.Seed == 0 {
		spec.Seed = r.Seed
	}
	return spec
}

// Key returns the canonical cache key the runner files spec under:
// the SHA-256 of the normalized spec's canonical JSON encoding. It
// fails when the spec cannot be canonically encoded (no workload).
func (r *Runner) Key(spec Spec) (Key, error) {
	return SpecKey(r.Normalize(spec))
}

// engineOpts merges the runner's defaults with per-call options.
func (r *Runner) engineOpts(opts []Option) engineOpts {
	o := engineOpts{ctx: context.Background(), clock: RealClock{}, workers: r.Jobs, progress: r.Progress, exec: r.Exec, slots: r.slots}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// cell is one distinct spec of a batch: input positions carrying the
// same keyed spec share one.
type cell struct {
	spec Spec
	key  Key
	// keyed marks a hook-free, canonically encodable spec: only those
	// are cached, shared with other batches and handed to Exec.
	keyed  bool
	first  int // first input position
	n      int // input positions
	res    *Result
	cached bool // res came from the cache
	// done is closed once res is final when this batch leads the key
	// in the in-flight table; join is the leading cell of another
	// batch when this one waits on it instead. Both are nil for
	// unkeyed specs.
	done chan struct{}
	join *cell
	// cancelled marks a led result the batch context stopped from
	// starting; joiners then run the spec themselves. Like res, it is
	// written before done closes and read by joiners only after.
	cancelled bool
}

// RunAll is the module's one batch entry point: it executes the specs
// through the parallel engine, sharing the runner's cache. Cached
// cells are not re-run, duplicate specs within the batch run once, a
// spec another batch is executing is joined rather than re-run, and
// fresh successful results are cached for later calls. Results keep
// input order and are never nil; a spec's failure is recorded in its
// Result.Err without aborting siblings. The error return is
// engine-level only: it is non-nil exactly when a WithContext context
// was cancelled, in which case unstarted specs carry the context
// error in their Result.Err.
//
// A batch first executes every key it leads and only then waits on
// the keys it joined, so batches that lead each other's keys cannot
// deadlock. A joined spec emits one progress event (not Cached) once
// its leader finishes; if that leader's own context ended before the
// spec started, the joiner runs the spec itself.
//
// Two spec classes bypass the cache: specs carrying Hooks (a function
// value has no canonical encoding to key on) and specs that cannot be
// canonically encoded at all (no workload). Both still execute;
// their results are simply never stored or shared.
func (r *Runner) RunAll(specs []Spec, opts ...Option) ([]*Result, error) {
	r.init()
	o := r.engineOpts(opts)
	cellOf := make([]*cell, len(specs))
	var cells []*cell
	byKey := map[Key]*cell{}
	for i, spec := range specs {
		spec = r.Normalize(spec)
		key, kerr := SpecKey(spec)
		keyed := kerr == nil && spec.Hooks.empty()
		c := byKey[key]
		if !keyed || c == nil {
			c = &cell{spec: spec, key: key, keyed: keyed, first: i}
			cells = append(cells, c)
			if keyed {
				byKey[key] = c
			}
		}
		c.n++
		cellOf[i] = c
	}
	leads, joins := r.resolve(cells)

	// Progress events are serialized: cache hits are reported here,
	// leaders from under the engine's lock, everything else from this
	// goroutine once the engine has returned.
	user := o.progress
	completed, total := 0, len(leads)+len(joins)
	emit := func(p Progress) {
		completed++
		p.Completed, p.Total = completed, total
		user(p)
	}
	report := func(i int, c *cell) {
		if user != nil {
			emit(Progress{Index: i, Name: c.res.Name, Mode: c.spec.Mode, Err: c.res.Err, Cached: c.cached})
		}
	}
	if o.progressCached {
		for _, c := range cells {
			if c.cached {
				total += c.n
			}
		}
		for i, c := range cellOf {
			if c.cached {
				report(i, c)
			}
		}
	}

	var err error
	for len(leads)+len(joins) > 0 {
		if len(leads) > 0 {
			err = r.execute(leads, o, emit)
		}
		var again []*cell
		for _, c := range joins {
			select {
			case <-c.join.done:
				if c.join.cancelled {
					c.join = nil
					again = append(again, c)
					continue
				}
				c.res = c.join.res
			case <-o.ctx.Done():
				err = o.ctx.Err()
				res := failedResult(c.spec, err)
				c.res = &res
			}
			report(c.first, c)
		}
		leads, joins = r.resolve(again)
		for _, c := range again {
			if c.cached {
				report(c.first, c)
			}
		}
	}
	out := make([]*Result, len(specs))
	for i, c := range cellOf {
		out[i] = c.res
	}
	return out, err
}

// resolve claims the pending cells in the in-flight table and only
// then probes the cache for them, once per input position, so no
// finished run slips between the two: a run that settles after the
// claim is joined, one that settled before it is in the cache. Cells
// found in the cache are resolved, releasing any joiners of their
// claim; the rest come back as the ones this batch leads and the ones
// it joined.
func (r *Runner) resolve(pending []*cell) (leads, joins []*cell) {
	r.mu.Lock()
	if r.inflight == nil {
		r.inflight = make(map[Key]*cell)
	}
	for _, c := range pending {
		if !c.keyed {
			continue
		}
		if l := r.inflight[c.key]; l != nil {
			c.join = l
			continue
		}
		c.done = make(chan struct{})
		r.inflight[c.key] = c
	}
	r.mu.Unlock()
	for _, c := range pending {
		for i := 0; c.keyed && i < c.n; i++ {
			if res, ok := r.Cache.Get(c.key); ok && c.res == nil {
				c.res, c.cached = res, true
			}
		}
		switch {
		case c.res != nil && c.done != nil:
			r.publish(c, false)
		case c.res != nil:
		case c.join != nil:
			r.joined.Add(1)
			joins = append(joins, c)
		default:
			leads = append(leads, c)
		}
	}
	return leads, joins
}

// publish hands a led cell's result to its joiners and retires the
// key from the in-flight table. cancelled marks a result the batch
// context stopped from starting.
func (r *Runner) publish(c *cell, cancelled bool) {
	c.cancelled = cancelled
	r.mu.Lock()
	delete(r.inflight, c.key)
	r.mu.Unlock()
	close(c.done)
}

// execute runs the batch's led cells on the engine and returns its
// engine-level error. As each spec finishes its result is cached and
// published to any joiners before its progress event is emitted with
// the batch's own numbering.
func (r *Runner) execute(leads []*cell, o engineOpts, emit func(Progress)) error {
	specs := make([]Spec, len(leads))
	o.remote = make([]bool, len(leads))
	for j, c := range leads {
		specs[j] = c.spec
		o.remote[j] = c.keyed
	}
	o.settle = func(j int, res *Result, ran bool) {
		c := leads[j]
		if ran {
			r.executed.Add(1)
		}
		// Failures are not cached, so a retry re-runs them.
		if c.keyed && res.Err == nil {
			res = r.Cache.Add(c.key, res)
		}
		c.res = res
		if c.done != nil {
			r.publish(c, !ran)
		}
	}
	if o.progress != nil {
		o.progress = func(p Progress) {
			p.Index = leads[p.Index].first
			emit(p)
		}
	}
	_, err := runBatch(specs, o)
	return err
}

// Run executes (or serves from cache) one spec: a thin wrapper over
// RunAll with the same conventions — the returned Result is non-nil
// and carries the spec's own failure in Err; the error return is
// engine-level (context cancellation) only.
func (r *Runner) Run(spec Spec, opts ...Option) (*Result, error) {
	results, err := r.RunAll([]Spec{spec}, opts...)
	return results[0], err
}

// Get runs workload w in the given mode and size with default
// parameters, under Run's conventions.
func (r *Runner) Get(w workloads.Workload, mode sgx.Mode, size workloads.Size) (*Result, error) {
	return r.Run(Spec{Workload: w, Mode: mode, Size: size})
}

// run is Run with the spec's own failure promoted into the error
// return — the abort-on-first-error form the report generators use.
func (r *Runner) run(spec Spec) (*Result, error) {
	res, err := r.Run(spec)
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}

// get is Get with the same promotion as run.
func (r *Runner) get(w workloads.Workload, mode sgx.Mode, size workloads.Size) (*Result, error) {
	return r.run(Spec{Workload: w, Mode: mode, Size: size})
}

// batch is RunAll with the first per-spec failure (in input order)
// promoted into the error return, preserving the generators'
// abort-on-error contract.
func (r *Runner) batch(specs []Spec) ([]*Result, error) {
	results, err := r.RunAll(specs)
	if err != nil {
		return results, err
	}
	for _, res := range results {
		if res.Err != nil {
			return results, res.Err
		}
	}
	return results, nil
}

// prefetch batches the specs through RunAll so the generator's
// subsequent get/run calls are cache hits; the serial part of a
// generator is then only table assembly.
func (r *Runner) prefetch(specs []Spec) error {
	_, err := r.batch(specs)
	return err
}
