package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// Settings of the two batch workloads. Both simulate fixed inputs
// (Seed 1) so their outputs can be pinned in golden.go; the run seed
// does not change them.
const (
	reportEPC = 256
	libosEPC  = 4096
	batchSeed = 1
	// One set-up takes well under a microsecond, too short to time
	// alone: setup_s is the median over setupBatches batches of
	// setupBatch set-ups each, per set-up.
	setupBatches = 25
	setupBatch   = 1000
)

var libosWorkloads = []string{"Empty", "OpenSSL", "Memcached", "Iozone"}

// sampleCache is a Runner's result cache for one sample: a plain map
// like the Runner's default that also keeps every fresh result, for
// the simulated counters, and counts hits.
type sampleCache struct {
	mu    sync.Mutex
	m     map[harness.Key]*harness.Result // guarded by mu
	fresh []*harness.Result               // guarded by mu
	hits  int                             // guarded by mu
}

func newSampleCache() *sampleCache {
	return &sampleCache{m: map[harness.Key]*harness.Result{}}
}

func (c *sampleCache) Get(k harness.Key) (*harness.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[k]
	if ok {
		c.hits++
	}
	return res, ok
}

func (c *sampleCache) Add(k harness.Key, res *harness.Result) *harness.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[k]; ok {
		return prev
	}
	c.m[k] = res
	c.fresh = append(c.fresh, res)
	return res
}

func (c *sampleCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// simTotals sums what the simulator did: counters, measured cycles
// and excluded start-up cycles.
type simTotals struct {
	counters perf.Snapshot
	cycles   uint64
	startup  uint64
}

// batchRun is one sample's fresh Runner and what its progress
// callback saw.
type batchRun struct {
	r         *harness.Runner
	cache     *sampleCache
	tr        *tracer
	parent    int             // span the next spec events belong to
	simulated int             // progress events with Cached=false
	cold      []time.Duration // their Progress.Wall
}

// newBatchRun is the batch workloads' set-up: a fresh Runner with an
// empty cache.
func newBatchRun(epc int, tr *tracer) *batchRun {
	b := &batchRun{cache: newSampleCache(), tr: tr}
	b.r = harness.NewRunner(epc)
	b.r.Seed = batchSeed
	b.r.Jobs = 1
	b.r.Cache = b.cache
	b.r.Progress = func(p harness.Progress) {
		if p.Cached {
			return
		}
		b.simulated++
		b.cold = append(b.cold, p.Wall)
		end := time.Now()
		b.tr.record(fmt.Sprintf("spec %s/%v", p.Name, p.Mode), b.parent, end.Add(-p.Wall), end)
	}
	return b
}

// totals sums the counters of every result the sample simulated and
// returns them with the cache hits so far.
func (b *batchRun) totals() (simTotals, int) {
	b.cache.mu.Lock()
	defer b.cache.mu.Unlock()
	var t simTotals
	for _, res := range b.cache.fresh {
		t.counters = t.counters.Add(res.TotalCounters)
		t.cycles += res.Cycles
		t.startup += res.StartupCycles
	}
	return t, b.cache.hits
}

// batchSample is what one cold unit of batch work measured.
type batchSample struct {
	wall      time.Duration
	cold      []time.Duration
	simulated int
	hits      int
	sim       simTotals
	peakMB    float64
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runReport regenerates every harness.Experiments() entry cold.
func runReport(opt options) (*outcome, error) {
	return runBatch(opt, reportEPC, reportSample)
}

func reportSample(b *batchRun, out *outcome) batchSample {
	exps := harness.Experiments()
	var s batchSample
	start := time.Now()
	for _, e := range exps {
		b.parent = b.tr.begin("render "+e.ID, 0)
		text, err := e.Render(b.r)
		b.tr.end(b.parent)
		out.attempted++
		switch {
		case err != nil:
			out.fail("report: %s: %v", e.ID, err)
		case digest([]byte(text)) != reportDigests[e.ID]:
			out.fail("report: %s output digest %s, pinned %s", e.ID, digest([]byte(text)), reportDigests[e.ID])
		}
	}
	s.wall = time.Since(start)
	s.simulated, s.cold = b.simulated, b.cold
	s.sim, s.hits = b.totals()
	out.attempted++
	if b.simulated != reportSimulated {
		out.fail("report: simulated %d specs from an empty cache, pinned %d", b.simulated, reportSimulated)
	}
	return s
}

// runLibOS runs the LibOS specs cold at a large EPC.
func runLibOS(opt options) (*outcome, error) {
	return runBatch(opt, libosEPC, libosSample)
}

func libosSpecs() []harness.Spec {
	specs := make([]harness.Spec, len(libosWorkloads))
	for i, name := range libosWorkloads {
		w, err := suite.ByName(name)
		if err != nil {
			panic(err) // the names above are the suite's own
		}
		specs[i] = harness.Spec{Workload: w, Mode: sgx.LibOS, Size: workloads.Low}
	}
	return specs
}

func libosSample(b *batchRun, out *outcome) batchSample {
	specs := libosSpecs()
	var s batchSample
	start := time.Now()
	b.parent = b.tr.begin("RunAll", 0)
	results, err := b.r.RunAll(specs)
	b.tr.end(b.parent)
	s.wall = time.Since(start)
	if err != nil {
		out.attempted++
		out.fail("libos: RunAll: %v", err)
		return s
	}
	for i, res := range results {
		out.attempted++
		name := libosWorkloads[i]
		if res.Err != nil {
			out.fail("libos: %s: %v", name, res.Err)
			continue
		}
		wire, err := json.Marshal(res.Wire())
		if err != nil {
			out.fail("libos: %s: encoding result: %v", name, err)
			continue
		}
		if d := digest(wire); d != libosDigests[name] {
			out.fail("libos: %s result digest %s, pinned %s", name, d, libosDigests[name])
		}
	}
	s.simulated, s.cold = b.simulated, b.cold
	s.sim, s.hits = b.totals()
	out.attempted++
	if b.simulated != libosSimulated {
		out.fail("libos: simulated %d specs from an empty cache, pinned %d", b.simulated, libosSimulated)
	}
	return s
}

// runBatch measures cold samples, each on a fresh Runner for epc pages,
// until the run's time is spent. sample does one unit of work and
// records its failures. Untraced samples give the end-to-end metrics;
// in a traced run every second sample runs under a CPU profile and
// gives the per-layer ones.
func runBatch(opt options, epc int, sample func(*batchRun, *outcome) batchSample) (*outcome, error) {
	out := &outcome{}
	tr := newTracer(time.Now())
	var setups []time.Duration
	for i := 0; i < setupBatches; i++ {
		t := time.Now()
		for j := 0; j < setupBatch; j++ {
			newBatchRun(epc, tr)
		}
		setups = append(setups, time.Since(t)/setupBatch)
	}

	var plain, traced []batchSample
	minSamples := 1
	if opt.trace {
		minSamples = 2
	}
	begin := time.Now()
	for i := 0; i < minSamples || time.Since(begin) < opt.seconds; i++ {
		// Start every sample from a collected heap and a fresh peak, so
		// its peak memory is its own.
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		isTraced := opt.trace && i%2 == 1
		b := newBatchRun(epc, tr)
		if isTraced {
			if err := tr.start(); err != nil {
				return nil, err
			}
		}
		s := sample(b, out)
		var err error
		if s.peakMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		if isTraced {
			if err := tr.stop(); err != nil {
				return nil, err
			}
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}

	walls, cold, peaks := batchTimes(plain)
	out.metrics = map[string]float64{
		"setup_s":     median(durations(setups, time.Second)),
		"wall_s":      median(walls),
		"peak_rss_mb": median(peaks),
	}
	out.note("samples %d untraced, %d traced", len(plain), len(traced))
	out.note("setup_s      %.4g s (median of %d batches of %d)", median(durations(setups, time.Second)), len(setups), setupBatch)
	out.note("wall_s       %.4f s (median of %d)", median(walls), len(walls))
	out.note("cold_p50_ms  %.4f ms (n=%d, one per simulated spec)", median(cold), len(cold))
	noteTail(out, "cold_p90_ms", cold, 0.9, "ms")
	out.note("peak_rss_mb  %.1f MB (median of %d sample peaks)", median(peaks), len(peaks))
	out.note("error_rate   %d/%d", out.failed, out.attempted)
	if len(plain) > 0 {
		out.note("simulated    %d specs per sample, %d cache hits", plain[0].simulated, plain[0].hits)
	}

	if opt.trace {
		tw, tcold, _ := batchTimes(traced)
		last := traced[len(traced)-1]
		m := layerMetrics(tr, len(traced), last.sim)
		m["harness.specs"] = float64(last.simulated)
		m["harness.cache_hits"] = float64(last.hits)
		m["harness.spec_wall_p50_ms"] = median(tcold)
		m["trace.overhead_share"] = median(tw)/median(walls) - 1
		out.metrics = m
		noteLayers(out, tr, len(traced))
		if err := tr.write(traceDir(opt)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batchTimes pools the samples' wall times in seconds, cold spec
// times in milliseconds and peak memory in MiB.
func batchTimes(samples []batchSample) (walls, cold, peaks []float64) {
	for _, s := range samples {
		walls = append(walls, s.wall.Seconds())
		cold = append(cold, durations(s.cold, time.Millisecond)...)
		peaks = append(peaks, s.peakMB)
	}
	return walls, cold, peaks
}

// noteTail adds a tail percentile to the report when enough samples
// lie beyond it.
func noteTail(out *outcome, name string, xs []float64, q float64, unit string) {
	if v, ok := tail(xs, q); ok {
		out.note("%-12s %.4f %s (n=%d)", name, v, unit, len(xs))
	} else {
		out.note("%-12s not reported: fewer than 10 of %d samples beyond it", name, len(xs))
	}
}
